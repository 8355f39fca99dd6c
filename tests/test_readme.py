"""The README's CLI examples run as written and exit 0."""

import shlex
from pathlib import Path

import pytest

from riordan import harness
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
