"""End-to-end CLI behavior: output formats, exit codes, the precision flag."""

import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import riordan
from riordan import Triangle, harness
from riordan.catalog import CatalogError, named_riordan, series_spec, weight_spec
from riordan.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "bench/reference/verify_builtin.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangle:
    def test_pascal_csv(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--name", "pascal", "--order", "8")
        assert code == 0
        tri = Triangle.from_csv(out)
        assert tri == named_riordan("pascal", 8).triangle(8)

    def test_pascal_json_round_trip(self, capsys):
        code, out, _ = run_cli(
            capsys, "triangle", "--name", "pascal", "--order", "8", "--format", "json"
        )
        assert code == 0
        tri = Triangle.from_json(out)
        assert tri == named_riordan("pascal", 8).triangle(8)

    def test_csv_json_parity(self, capsys):
        _, out_csv, _ = run_cli(
            capsys, "triangle", "--name", "catalan_bell", "--order", "6"
        )
        _, out_json, _ = run_cli(
            capsys,
            "triangle",
            "--name",
            "catalan_bell",
            "--order",
            "6",
            "--format",
            "json",
        )
        assert Triangle.from_csv(out_csv) == Triangle.from_json(out_json)

    def test_csv_reader_strips_whitespace(self):
        tri = Triangle.from_csv(" 1\n -1/2 , 3 \n")
        assert tri == Triangle([[1], [Fraction(-1, 2), 3]])

    @pytest.mark.parametrize(
        "text",
        ["1\n2,x\n", "1\n2\n", "1/0\n"],
        ids=["token", "ragged", "zero_denominator"],
    )
    def test_csv_reader_rejects_malformed_input(self, text):
        with pytest.raises(ValueError):
            Triangle.from_csv(text)

    @pytest.mark.parametrize(
        "text",
        [
            '[["1"], ["2", "x"]]',
            '[["1"], ["2"]]',
            "[[0.1]]",
            "[[true]]",
            '[["1"], "23"]',
            '"1"',
            "[[null]]",
            "7",
            '[["1/0"]]',
        ],
        ids=[
            "token",
            "ragged",
            "float",
            "bool",
            "string_row",
            "string",
            "null",
            "int",
            "zero_denominator",
        ],
    )
    def test_json_reader_rejects_malformed_input(self, text):
        with pytest.raises(ValueError):
            Triangle.from_json(text)

    def test_explicit_g_f(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--name", "1,1;0,1,1", "--order", "4")
        assert code == 0
        assert out.splitlines()[1] == "1,1"

    @pytest.mark.parametrize(
        "name, g, f",
        [
            ("appell:fuss:3", "fuss:3", "0,1"),
            ("lagrange:geometric:2", "1", "0,1,2,4,8"),
        ],
    )
    def test_nested_series_spec(self, capsys, name, g, f):
        code, out, _ = run_cli(capsys, "triangle", "--name", name, "--order", "4")
        assert code == 0
        _, explicit, _ = run_cli(capsys, "triangle", "--name", f"{g};{f}", "--order", "4")
        assert out == explicit

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "tri.csv"
        code, out, _ = run_cli(
            capsys, "triangle", "--name", "pascal", "--order", "4", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert Triangle.from_csv(path.read_text()) == named_riordan("pascal", 4).triangle(4)


class TestQuasi:
    def test_pascal_quasi_columns(self, capsys):
        code, out, _ = run_cli(capsys, "quasi", "--name", "pascal", "--order", "4")
        assert code == 0
        assert out.splitlines() == ["1", "1,1", "1,1,1", "1,1,1,1"]


class TestMulInv:
    def test_mul_pair_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "--prec", "6", "mul", "--a", "pascal", "--b", "pascal"
        )
        assert code == 0
        lines = out.splitlines()
        # (1/(1-t), t/(1-t))^2 = (1/(1-2t), t/(1-2t))
        assert lines[0] == "g: 1, 2, 4, 8, 16, 32, 64"
        assert lines[1] == "f: 0, 1, 2, 4, 8, 16, 32"

    def test_mul_explicit_specs(self, capsys):
        code, out, _ = run_cli(
            capsys, "--prec", "4", "mul", "--a", "1;0,1,1", "--b", "identity"
        )
        assert code == 0
        assert out.splitlines()[1] == "f: 0, 1, 1"

    def test_inv_pascal(self, capsys):
        code, out, _ = run_cli(capsys, "--prec", "5", "inv", "--name", "pascal")
        assert code == 0
        # (1/(1+t), t/(1+t))
        assert out.splitlines()[0] == "g: 1, -1, 1, -1, 1, -1"

    def test_inv_triangle_is_matrix_inverse(self, capsys):
        _, out, _ = run_cli(capsys, "inv", "--name", "pascal", "--order", "6")
        tri = Triangle.from_csv(out)
        assert tri @ named_riordan("pascal", 8).triangle(6) == Triangle.identity(6)

    def test_order_raises_precision(self, capsys):
        # an order past the working precision raises it, as for triangle
        code, out, _ = run_cli(
            capsys, "mul", "--a", "pascal", "--b", "pascal", "--order", "70"
        )
        assert code == 0
        pascal = named_riordan("pascal", 69)
        assert Triangle.from_csv(out) == (pascal * pascal).triangle(70)
        code, out, _ = run_cli(capsys, "inv", "--name", "catalan_bell", "--order", "70")
        assert code == 0
        inverse = named_riordan("catalan_bell", 69).inverse()
        assert Triangle.from_csv(out) == inverse.triangle(70)

    @pytest.mark.parametrize(
        "argv",
        [
            ("mul", "--a", "pascal", "--b", "pascal"),
            ("inv", "--name", "pascal"),
            # checked before any spec is parsed: 64, not the 65 of an unknown name
            ("inv", "--name", "nosuch"),
        ],
        ids=["mul", "inv", "inv-unknown-name"],
    )
    def test_format_without_order_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "--prec", "4", *argv, "--format", "json")
        assert code == 64
        assert out == ""
        assert "--format needs --order" in err


class TestAz:
    def test_pascal(self, capsys):
        code, out, _ = run_cli(capsys, "--prec", "8", "az", "--name", "pascal")
        assert code == 0
        assert out == "A: 1, 1\nZ: 1\n"

    def test_catalan(self, capsys):
        code, out, _ = run_cli(capsys, "--prec", "6", "az", "--name", "catalan_bell")
        assert code == 0
        assert out == "A: 1, 1, 1, 1, 1, 1\nZ: 1, 1, 1, 1, 1, 1\n"


class TestCtransform:
    def test_factorial_rook(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ctransform",
            "--name",
            "pascal",
            "--weight",
            "factorial",
            "--order",
            "6",
        )
        assert code == 0
        assert out.splitlines()[5] == "120,600,600,200,25,1"

    def test_laguerre_weight(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ctransform",
            "--name",
            "pascal",
            "--weight",
            "laguerre",
            "--order",
            "4",
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[2] == ["1/2", "-2", "1"]

    def test_explicit_weight_list(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ctransform",
            "--name",
            "pascal",
            "--weight",
            "1,2,4,8",
            "--order",
            "4",
        )
        assert code == 0
        assert out.splitlines()[2] == "4,4,1"


class TestCatalogCmd:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "list")
        assert code == 0
        assert "pairs: pascal" in out
        assert "series: catalan" in out
        assert "weights: laguerre" in out


class TestVerifyCmd:
    def test_builtin_suite(self, capsys, tmp_path):
        path = tmp_path / "reports.json"
        code, out, _ = run_cli(capsys, "verify", "--suite", "builtin", "--out", str(path))
        assert code == 0
        assert "pascal-vertical-recursion" in out
        assert "counterexample" not in out
        reports = json.loads(path.read_text())
        assert all(r["status"] == "verified" for r in reports)

    def test_each_line_is_flushed_before_the_next_check(self, monkeypatch, tmp_path):
        events = []

        class Stdout(io.StringIO):
            def write(self, text):
                events.append(("write", text))
                return super().write(text)

            def flush(self):
                events.append(("flush",))

        def check(name):
            events.append(("check", name))
            return harness.VerificationReport(name, 0, "k = 0", "verified")

        monkeypatch.setattr(harness, "_rows", lambda: [("one",), ("two",)])
        monkeypatch.setattr(harness, "_check", check)
        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(["verify", "--out", str(tmp_path / "r.json")]) == 0
        before = events[: events.index(("check", "two"))]
        written = [i for i, e in enumerate(before) if e[0] == "write" and "one" in e[1]]
        assert written, events
        assert ("flush",) in before[written[0] :]

    def test_report_lines_follow_the_reference(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "verify", "--out", str(tmp_path / "r.json"))
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        assert code == 0
        assert out.splitlines() == [
            f"{r['status']:>14}  {r['name']} (n_max={r['n_max']}, {r['k_policy']})"
            for r in reference
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ("triangle", "--name", "pascal", "--order", "200"),
            ("quasi", "--name", "catalan_bell", "--order", "100"),
            ("mul", "--a", "pascal", "--b", "catalan_bell", "--order", "100"),
            ("inv", "--name", "catalan_bell", "--order", "150"),
            ("--prec", "200", "az", "--name", "1,5;0,3,7"),
            ("ctransform", "--name", "pascal", "--weight", "factorial", "--order", "100"),
            ("catalog", "list"),
            ("verify",),
        ],
        ids=["triangle", "quasi", "mul", "inv", "az", "ctransform", "catalog", "verify"],
    )
    def test_closed_stdout_keeps_exit_code_and_out(self, tmp_path, argv):
        # `riordan ... | head`: the reader has gone before the first write.
        # Every output but catalog's overflows a pipe buffer, so both a
        # failing write and a failing flush are met.
        out = tmp_path / "r.json"
        src = str(Path(riordan.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        env.pop("PYTHONUNBUFFERED", None)  # stdout block-buffered, as in a shell pipeline
        if "verify" in argv:
            argv += ("--out", str(out))
        cmd = [sys.executable, "-m", "riordan.cli", *argv]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                cmd, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0  # each command's code with the reader open
        assert proc.stderr == b""
        if "verify" in argv:
            reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
            reports = json.loads(out.read_text())
            for r in reports:
                del r["seconds"]
            assert reports == reference


class TestErrors:
    def test_unknown_name_is_math_error(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--name", "nope", "--order", "4")
        assert code == 65
        assert "nope" in err

    def test_malformed_series_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--name", "1,x;0,1", "--order", "4")
        assert code == 64
        assert "malformed" in err

    def test_missing_pair_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "triangle", "--order", "4")
        assert code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ("triangle", "--name", "bogus;0,1", "--order", "4"),
            ("mul", "--a", "pascal", "--b", "bogus"),
            ("ctransform", "--name", "pascal", "--weight", "bogus", "--order", "4"),
        ],
        ids=["series", "pair", "weight"],
    )
    def test_unknown_name_of_any_kind_is_math_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 65
        assert "bogus" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("triangle", "--name", "1/0;0,1", "--order", "4"),
            ("mul", "--a", "1,1", "--b", "pascal"),
        ],
        ids=["zero-denominator", "pair-literal"],
    )
    def test_malformed_literal_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 64
        assert "malformed" in err

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (
                ("ctransform", "--name", "pascal", "--weight", "1," + "9" * 5000,
                 "--order", "2"),
                64,
                "malformed number",
            ),
            (("triangle", "--name", "x" * 5000, "--order", "4"), 65, "unknown"),
            (("triangle", "--name", "1" * 5000, "--order", "4"), 64, "malformed pair"),
        ],
        ids=["number", "name", "pair-spec"],
    )
    def test_long_input_is_cut_in_the_message(self, capsys, argv, code, message):
        got, stdout, err = run_cli(capsys, *argv)
        assert got == code
        assert stdout == ""
        assert message in err
        assert "... (5000 characters)" in err
        assert len(err) < 200

    def test_bad_order_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "triangle", "--name", "pascal", "--order", "0")
        assert code == 64

    @pytest.mark.parametrize("order", ["0", "-1"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("triangle", "--name", "pascal"),
            ("quasi", "--name", "pascal"),
            ("mul", "--a", "pascal", "--b", "pascal"),
            ("inv", "--name", "pascal"),
            ("ctransform", "--name", "pascal", "--weight", "factorial"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_nonpositive_order_is_usage_error(self, capsys, argv, order):
        code, _, err = run_cli(capsys, *argv, "--order", order)
        assert code == 64
        assert "order" in err

    def test_invalid_pair_is_math_error(self, capsys):
        # g(0) != 1 is rejected by the constructor
        code, _, _ = run_cli(capsys, "triangle", "--name", "2,1;0,1", "--order", "4")
        assert code == 65

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ("triangle", "--name", "fuss_bell:x", "--order", "4"),
            ("triangle", "--name", "appell:fuss:x", "--order", "4"),
            ("triangle", "--name", "fuss:x;0,1", "--order", "4"),
            ("triangle", "--name", "geometric:1/0;0,1", "--order", "4"),
            ("ctransform", "--name", "pascal", "--weight", "power:x", "--order", "4"),
            ("triangle", "--name", "pascal:7", "--order", "4"),
            ("triangle", "--name", "catalan_bell:zzz", "--order", "4"),
            ("triangle", "--name", "catalan:9;0,1", "--order", "4"),
            (
                "ctransform", "--name", "pascal", "--weight", "factorial:9", "--order", "4"
            ),
            (
                "ctransform", "--name", "pascal", "--weight", "laguerre:q", "--order", "4"
            ),
            ("triangle", "--name", "lagrange:catalan:4", "--order", "4"),
            ("triangle", "--name", "fuss_bell:", "--order", "4"),
            ("triangle", "--name", "fuss;0,1", "--order", "4"),
            ("ctransform", "--name", "pascal", "--weight", "power", "--order", "4"),
        ],
    )
    def test_malformed_parameter_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 64
        assert "malformed" in err

    def test_parameter_out_of_domain_is_math_error(self, capsys):
        code, _, _ = run_cli(capsys, "triangle", "--name", "fuss_bell:0", "--order", "4")
        assert code == 65

    def test_unwritable_out_on_triangle_is_cantcreat(self, capsys, tmp_path):
        # an empty path is a file that cannot be written, not stdout
        for out in (str(tmp_path / "missing" / "t.csv"), ""):
            argv = ("triangle", "--name", "pascal", "--order", "4", "--out", out)
            code, stdout, err = run_cli(capsys, *argv)
            assert code == 73
            assert stdout == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert repr(out) in err

    def test_unwritable_out_on_verify_is_cantcreat(self, capsys, tmp_path, monkeypatch):
        one = harness.VerificationReport("one", 0, "k = 0", "verified")

        def suite(on_report):
            on_report(one)
            return [one]

        monkeypatch.setattr(harness, "builtin_suite", suite)
        for out in (str(tmp_path / "missing" / "r.json"), ""):
            code, stdout, err = run_cli(capsys, "verify", "--out", out)
            assert code == 73
            assert "verified  one" in stdout and stdout.count("\n") == 1
            assert err.startswith("error: ") and err.count("\n") == 1
            assert repr(out) in err


class TestPrec:
    @pytest.mark.parametrize("prec", ["0", "-1", "abc"])
    def test_bad_prec_is_usage_error(self, capsys, prec):
        code, _, err = run_cli(capsys, "--prec", prec, "az", "--name", "pascal")
        assert code == 64
        assert "prec" in err


class TestParsers:
    def test_parse_series_literal(self):
        s = series_spec("1, 1/2, -3", 8)
        assert str(s[1]) == "1/2"
        assert s.prec == 8

    def test_parse_series_named(self):
        s = series_spec("geometric:2", 4)
        assert list(s.coeffs) == [1, 2, 4, 8, 16]

    def test_parse_weight_power(self):
        w = weight_spec("power:3", 4)
        assert w.rows[-1] == (1, 3, 9, 27, 81)

    def test_parse_weight_unknown(self):
        with pytest.raises(CatalogError):
            weight_spec("bogus", 4)
