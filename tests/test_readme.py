"""The README's CLI examples run as written and exit 0, its library
examples give the results their comments show, and every public name
documents its contract."""

import ast
import importlib
import inspect
import math
import pkgutil
import shlex
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import riordan
from riordan import Series, harness
from riordan.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def cli_examples() -> list[str]:
    """The `riordan ...` lines of the first code block under '## CLI'."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("riordan ")]


def test_cli_block_found():
    assert len(cli_examples()) >= 8


@pytest.mark.parametrize("line", cli_examples())
def test_cli_example_exits_0(line, tmp_path, monkeypatch, capsys, builtin_reports):
    # reuse the builtin_reports fixture rather than run the suite again
    def suite(on_report):
        for report in builtin_reports:
            on_report(report)
        return list(builtin_reports)

    monkeypatch.setattr(harness, "builtin_suite", suite)
    argv = shlex.split(line, comments=True)[1:]
    if "--out" in argv:
        i = argv.index("--out") + 1
        argv[i] = str(tmp_path / argv[i])
    assert main(argv) == 0, capsys.readouterr().err


def library_example() -> list[str]:
    """The lines of the python block under '## Library example'."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_library_example_results():
    ns: dict = {}
    shown = {}  # each expression line's value, by its comment
    for line in library_example():
        code, _, comment = (part.strip() for part in line.partition("#"))
        try:
            expr = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, ns)
        else:
            shown[comment] = eval(expr, ns)
    assert shown["Fraction(10, 1)"] == Fraction(10, 1)
    assert shown["exact Triangle of binomials"].rows == tuple(
        tuple(math.comb(n, k) for k in range(n + 1)) for n in range(6)
    )
    assert shown["True"] is True
    assert shown["{'1-bell', 'hitting-time'}"] == {"1-bell", "hitting-time"}
    assert any(line.endswith("# A = 1+t, Z = 1") for line in library_example())
    a, z = ns["az"].a, ns["az"].z
    assert a == Series.from_coeffs([1, 1], a.prec)
    assert z == Series.from_coeffs([1], z.prec)


def test_quasi_example_result():
    """The python block in the `riordan.quasi` module bullet."""
    section = README.read_text(encoding="utf-8").split("- `riordan.quasi`", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    *setup, last = [line.strip() for line in block.splitlines() if line.strip()]
    ns: dict = {}
    exec("\n".join(setup), ns)
    code, _, comment = (part.strip() for part in last.partition("#"))
    assert comment == "True"
    assert eval(code, ns) is True


def test_public_names_have_docstrings():
    """Every module of the package, and every class and function that
    ``riordan.__all__`` exports, carries its own non-empty docstring."""
    modules = [riordan] + [
        importlib.import_module(f"riordan.{m.name}") for m in pkgutil.iter_modules(riordan.__path__)
    ]
    for module in modules:
        assert (module.__doc__ or "").strip(), module.__name__
    for name in riordan.__all__:
        obj = getattr(riordan, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            # read off the source: a dataclass without one gets its signature
            node = ast.parse(textwrap.dedent(inspect.getsource(obj))).body[0]
            assert (ast.get_docstring(node) or "").strip(), name
