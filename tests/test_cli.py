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
from riordan import Triangle, cli, harness
from riordan.catalog import CatalogError, named_riordan, series_spec, weight_spec
from riordan.cli import main
from riordan.weighted import c_transform

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


RATIONAL = "1,1/2;0,2/3,1"  # g = 1 + t/2, f = 2t/3 + t^2


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (("--prec", "6", "az", "--name", "catalan_bell"),
         "A: 1, 1, 1, 1, 1, 1\nZ: 1, 1, 1, 1, 1, 1\n"),
        (("--prec", "6", "inv", "--name", "catalan_bell"), "g: 1, -1\nf: 0, 1, -1\n"),
        (("--prec", "6", "inv", "--name", RATIONAL),
         "g: 1, -3/4, 9/4, -675/64, 7695/128, -195129/512, 5287437/2048\n"
         "f: 0, 3/2, -27/8, 243/16, -10935/128, 137781/256, -3720087/1024\n"),
        (("--prec", "6", "az", "--name", RATIONAL),
         "A: 2/3, 3/2, -27/8, 243/16, -10935/128, 137781/256\n"
         "Z: 1/2, -3/8, 9/8, -675/128, 7695/256, -195129/1024\n"),
        # A's edges: precision 0 and 1, where A takes no dot product
        (("--prec", "1", "az", "--name", "catalan_bell"), "A: 1\nZ: 1\n"),
        (("--prec", "2", "az", "--name", RATIONAL), "A: 2/3, 3/2\nZ: 1/2, -3/8\n"),
        # a rational section and its (c)-transform, whose vertical columns
        # each sit over their own least denominator
        (("--prec", "6", "triangle", "--name", RATIONAL, "--order", "5"),
         "1\n1/2,2/3\n0,4/3,4/9\n0,1/2,14/9,8/27\n0,0,5/3,40/27,16/81\n"),
        (("ctransform", "--name", RATIONAL, "--weight", "factorial", "--order", "5"),
         "1\n1/2,2/3\n0,8/3,4/9\n0,3,14/3,8/27\n0,0,20,160/27,16/81\n"),
        # the exponential Riordan array (1, e^t - 1): Stirling numbers of the
        # second kind
        (("ctransform", "--name", "1;0,1,1/2,1/6,1/24,1/120", "--weight", "factorial",
          "--order", "6"),
         "1\n0,1\n0,1,1\n0,1,3,1\n0,1,7,6,1\n0,1,15,25,10,1\n"),
        # both orders; at p = 6, compose's table f^0..f^3 holds f^2 as a square
        (("--prec", "6", "mul", "--a", "catalan_bell", "--b", RATIONAL),
         "g: 1, 3/2, 3, 15/2, 21, 63, 198\nf: 0, 2/3, 5/3, 10/3, 25/3, 70/3, 70\n"),
        (("--prec", "6", "mul", "--a", RATIONAL, "--b", "catalan_bell"),
         "g: 1, 7/6, 20/9, 275/54, 1094/81, 3065/81, 27086/243\n"
         "f: 0, 2/3, 13/9, 52/27, 377/81, 2860/243, 7982/243\n"),
    ],
    ids=[
        "az-catalan_bell", "inv-catalan_bell", "inv-rational", "az-rational",
        "az-prec1-catalan_bell", "az-prec2-rational", "triangle-rational",
        "ctransform-rational", "ctransform-stirling2", "mul-catalan_bell-rational",
        "mul-rational-catalan_bell",
    ],
)
def test_printed_answer(capsys, argv, stdout):
    assert run_cli(capsys, *argv) == (0, stdout, "")


@pytest.mark.parametrize(
    "argv, last",
    [
        # a decimal literal is exact: 0.5 reads as 1/2
        (("triangle", "--name", "1,0.5;0,1", "--order", "3"), "0,1/2,1"),
        # literals that are not canonical str(Fraction) output take the
        # general parser: 2/4 is 1/2 and 1e1 is 10
        (("ctransform", "--name", "pascal", "--weight", "1,2/4,1e1", "--order", "3"),
         "10,40,1"),
    ],
    ids=["decimal", "noncanonical"],
)
def test_literal_reads_exactly(capsys, argv, last):
    code, out, _ = run_cli(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (0, last)


@pytest.mark.parametrize(
    "argv",
    [
        ("az", "--name", "catalan_bell"),
        ("inv", "--name", "catalan_bell"),
        ("mul", "--a", "catalan_bell", "--b", "pascal"),
        ("--prec", "1", "inv", "--name", "catalan_bell"),
        ("--prec", "1", "mul", "--a", "catalan_bell", "--b", "pascal"),
        ("quasi", "--name", "catalan_bell", "--order", "6"),
        ("ctransform", "--name", "catalan_bell", "--weight", "factorial", "--order", "8"),
        ("ctransform", "--name", "pascal", "--weight", "power:2", "--order", "5"),
        ("ctransform", "--name", "pascal", "--weight", "1,2,4", "--order", "3"),
    ],
    ids=["az", "inv", "mul", "inv-prec1", "mul-prec1", "quasi", "ctransform-factorial",
         "ctransform-power", "ctransform-list"],
)
def test_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out


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

    def test_unknown_action_is_usage_error(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "show")
        assert (code, out) == (64, "")


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
            ("ctransform", "--name", "pascal", "--weight", "1,1/0", "--order", "4"),
            ("ctransform", "--name", "pascal", "--weight", "1,2/-4", "--order", "2"),
        ],
        ids=["zero-denominator", "pair-literal", "weight-zero-denominator",
             "weight-negative-denominator"],
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
                "number past the int-string limit of",
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

    def test_exponent_literal_past_the_limit_is_refused_before_any_work(
        self, capsys, monkeypatch
    ):
        def no_work(*args):
            raise AssertionError("c_transform ran")

        monkeypatch.setattr(cli, "c_transform", no_work)
        argv = ("ctransform", "--name", "pascal", "--weight", "1,1e99999", "--order", "2")
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (64, "")
        limit = sys.get_int_max_str_digits()
        assert err == (
            f"usage error: number past the int-string limit of {limit} digits: '1e99999'\n"
        )

    def test_a_literal_past_the_limit_reads_the_same_in_either_form(self, capsys):
        """Written out or as an exponent, the number is refused in the same
        words, and malformed text still reads as malformed."""
        said = {}
        for form in ("1e99999", "9" * 5000, "1/" + "9" * 5000, "1.5e-99999", "1/-4", "1e"):
            argv = ("ctransform", "--name", "pascal", "--weight", f"1,{form}", "--order", "2")
            code, stdout, err = run_cli(capsys, *argv)
            assert (code, stdout) == (64, "")
            said[form] = err.partition(": '")[0]
        limit = sys.get_int_max_str_digits()
        past = f"usage error: number past the int-string limit of {limit} digits"
        assert set(said.values()) == {past, "usage error: malformed number"}
        assert said["1/-4"] == said["1e"] == "usage error: malformed number"

    @pytest.mark.parametrize(
        "argv",
        [
            ("triangle", "--name", "fuss_bell:" + "9" * 5000, "--order", "3"),
            ("ctransform", "--name", "pascal", "--weight", "1,+1/" + "9" * 5000,
             "--order", "2"),
        ],
        ids=["integer-parameter", "signed-ratio"],
    )
    def test_every_form_past_the_limit_names_it(self, capsys, argv):
        """An integer parameter, and a ratio that only Fraction's parser
        reads, are sized before they are read: the message names the limit."""
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (64, "")
        limit = sys.get_int_max_str_digits()
        assert err.startswith(
            f"usage error: number past the int-string limit of {limit} digits: '"
        )

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
            ("mul", "--a", "pascal:7", "--b", "pascal"),
        ],
    )
    def test_malformed_parameter_is_usage_error(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 64
        assert "malformed" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("az", "--name", "1;0,0,1"), "order exactly 1"),
            (("inv", "--name", "1;0,0,1"), "order exactly 1"),
            (("mul", "--a", "catalan_bell", "--b", "fuss_bell:0"), "m >= 1"),
            (("ctransform", "--name", "pascal", "--weight", "2,1", "--order", "2"),
             "must start with 1"),
            (("ctransform", "--name", "pascal", "--weight", "1,2", "--order", "4"),
             "too short"),
            (("ctransform", "--name", "pascal", "--weight", "1,0", "--order", "2"),
             "zero entry"),
        ],
        ids=["az-order-2", "inv-order-2", "mul-domain", "weight-row-0", "weight-short",
             "weight-zero"],
    )
    def test_invalid_input_is_math_error(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (65, "")
        assert message in err

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


def test_help_names_every_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # as argparse wraps it
    for code in ("0 success", "64 usage error", "65 an unknown", "73 an --out",
                 "verify exits 0 all verified, 1 counterexample, 2 inconclusive"):
        assert code in text


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


# The lowest nonzero limit sys.set_int_max_str_digits takes; W = 10^640 - 1
# has 640 digits, so it is read, and 2 W, with 641, is not written.
W = "9" * 640


def past_limit(out):
    """ctransform whose entry (2, 1) is 2 W, written to --out."""
    return ("ctransform", "--name", "pascal", "--weight", f"1,1,{W}", "--order", "3",
            "--out", str(out))


class TestEntryPastTheIntStringLimit:
    @pytest.mark.parametrize("fmt", [(), ("--format", "json")], ids=["csv", "json"])
    def test_names_the_first_entry_and_writes_no_file(
        self, capsys, tmp_path, int_digits, fmt
    ):
        int_digits(640)
        out = tmp_path / "t.csv"
        code, stdout, err = run_cli(capsys, *past_limit(out), *fmt)
        assert (code, stdout) == (65, "")
        assert err == (
            "error: entry (2, 1) has 641 digits, past the int-string limit of 640 "
            "digits; set PYTHONINTMAXSTRDIGITS=0 to write it\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, where",
        [
            # g = 1 + W t, f = t: Z = W - W^2 t + ...
            (("--prec", "3", "az", "--name", f"1,{W};0,1"), "Z_1 has 1280"),
            # f = W t, so 1/g(fbar) = 1 - t/W + t^2/W^2 - ...
            (("--prec", "3", "inv", "--name", f"1,1;0,{W}"), "g_2 has 1280"),
            # g = (1 + W t)^2 = 1 + 2W t + W^2 t^2
            (("--prec", "3", "mul", "--a", f"1,{W};0,1", "--b", f"1,{W};0,1"), "g_1 has 641"),
        ],
        ids=["az", "inv", "mul"],
    )
    def test_names_the_first_series_coefficient(self, capsys, int_digits, argv, where):
        int_digits(640)
        code, stdout, err = run_cli(capsys, *argv)
        assert (code, stdout) == (65, "")
        assert err == (
            f"error: {where} digits, past the int-string limit of 640 digits; "
            "set PYTHONINTMAXSTRDIGITS=0 to write it\n"
        )

    def test_the_same_run_with_no_limit_writes_the_triangle(self, tmp_path, int_digits):
        out = tmp_path / "t.csv"
        src = str(Path(riordan.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONINTMAXSTRDIGITS="0")
        cmd = [sys.executable, "-m", "riordan.cli", *past_limit(out)]
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=300)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        int_digits(0)
        ra = named_riordan("pascal", 2)
        want = c_transform(ra, weight_spec(f"1,1,{W}", 2), 3).entries
        assert Triangle.from_csv(out.read_text()) == want
        assert want.rows[2][1] == 2 * int(W)
