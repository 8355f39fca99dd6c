"""The paired-measurement verdict of tools/pairs.py, on synthetic runs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import pairs  # noqa: E402

# ten parent runs with median 100 and quartiles 99 and 101: an IQR of 2
PARENT = [100.0, 98.0, 101.0, 99.0, 104.0, 100.0, 96.0, 102.0, 99.0, 101.0]


def test_nine_of_ten_wins_is_a_gain():
    change = [p + 5 for p in PARENT[:9]] + [PARENT[9] - 1]
    c = pairs.compare(PARENT, change, "higher")
    assert (c.wins, c.ties, c.losses) == (9, 0, 1)
    assert (c.parent_median, c.parent_iqr) == (100, 2)
    assert c.verdict == "gain"


def test_eight_of_ten_wins_is_no_gain():
    change = [p + 5 for p in PARENT[:8]] + [p - 1 for p in PARENT[8:]]
    c = pairs.compare(PARENT, change, "higher")
    assert (c.wins, c.losses) == (8, 2)
    assert c.change_median > c.parent_median + c.parent_iqr
    assert c.verdict == "no gain"


def test_a_win_smaller_than_the_iqr_is_no_gain():
    change = [p + 1 for p in PARENT]
    c = pairs.compare(PARENT, change, "higher")
    assert c.wins == 10
    assert c.change_median - c.parent_median < c.parent_iqr
    assert c.verdict == "no gain"


def test_ties_count_for_neither_side():
    # nine wins and one tie is nine tenths; eight wins and two ties is not
    nine = [p + 5 for p in PARENT[:9]] + [PARENT[9]]
    c = pairs.compare(PARENT, nine, "higher")
    assert (c.wins, c.ties, c.losses, c.verdict) == (9, 1, 0, "gain")
    eight = [p + 5 for p in PARENT[:8]] + PARENT[8:]
    c = pairs.compare(PARENT, eight, "higher")
    assert (c.wins, c.ties, c.losses, c.verdict) == (8, 2, 0, "no gain")
    same = pairs.compare(PARENT, PARENT, "higher")
    assert (same.wins, same.ties, same.verdict) == (0, 10, "no gain")


def test_lower_is_better():
    faster = [p - 5 for p in PARENT]
    c = pairs.compare(PARENT, faster, "lower")
    assert (c.wins, c.verdict) == (10, "gain")
    assert c.change == pytest.approx(-0.05)
    assert pairs.compare(PARENT, faster, "higher").verdict == "no gain"
    slower = [p + 5 for p in PARENT]
    assert pairs.compare(PARENT, slower, "lower").wins == 0


def test_under_ten_pairs_gives_no_verdict():
    c = pairs.compare(PARENT[:9], [p + 50 for p in PARENT[:9]], "higher")
    assert (c.wins, c.verdict) == (9, "too few pairs")
    one = pairs.compare([1.0], [2.0], "lower")
    assert (one.parent_iqr, one.losses, one.verdict) == (0.0, 1, "too few pairs")


def test_bad_input_raises():
    with pytest.raises(ValueError):
        pairs.compare(PARENT, PARENT[:9], "higher")
    with pytest.raises(ValueError):
        pairs.compare([], [], "higher")
    with pytest.raises(ValueError):
        pairs.compare(PARENT, PARENT, "faster")


def test_bound_check():
    # the parent's IQR is 2% of its median
    assert pairs.bound_check(PARENT, [p - 9 for p in PARENT], "higher", 0.1) == "within"
    assert pairs.bound_check(PARENT, [p - 11 for p in PARENT], "higher", 0.1) == "past bound"
    assert pairs.bound_check(PARENT, [p + 11 for p in PARENT], "lower", 0.1) == "past bound"
    assert pairs.bound_check(PARENT, [p + 11 for p in PARENT], "higher", 0.1) == "within"
    # a spread wider than the bound cannot tell, unless every change run is better
    assert pairs.bound_check(PARENT, PARENT, "higher", 0.01) == "unresolved"
    assert pairs.bound_check(PARENT, [p + 10 for p in PARENT], "higher", 0.01) == "within"


def section_runs(parent_ms, change_ms, digests=None):
    """Synthetic sections_point() runs: row "inverse" at the given times,
    row "matmul" level, and the change's "inverse" digests as given."""
    def rows(ms, digest):
        return [{"pair": "p", "n": 32, "op": "inverse", "reference_ms": ms, "digest": digest},
                {"pair": "p", "n": 32, "op": "matmul", "reference_ms": 5.0, "digest": "m"}]
    digests = digests or ["d"] * len(change_ms)
    return {"parent": [rows(ms, "d") for ms in parent_ms],
            "change": [rows(ms, d) for ms, d in zip(change_ms, digests)]}


def test_section_rows_are_judged_one_by_one():
    runs = section_runs(PARENT, [p - 5 for p in PARENT])
    verdicts, differ, missing = pairs.section_verdicts(runs)
    assert [key for key, _ in verdicts] == ["p n=32 inverse", "p n=32 matmul"]
    inverse, matmul = (c for _, c in verdicts)
    assert (inverse.wins, inverse.verdict) == (10, "gain")
    assert (matmul.ties, matmul.verdict) == (10, "no gain")
    assert (differ, missing) == ([], [])
    assert pairs.sections_report(runs) == 0


def test_a_section_digest_mismatch_fails_the_run(capsys):
    runs = section_runs(PARENT, PARENT, ["d"] * 9 + ["other"])
    _, differ, _ = pairs.section_verdicts(runs)
    assert differ == ["p n=32 inverse"]
    assert pairs.sections_report(runs) == 1
    assert "digests differ between parent and change: p n=32 inverse" in capsys.readouterr().out


def test_a_section_row_missing_from_a_run_is_not_judged():
    runs = section_runs(PARENT, PARENT)
    runs["change"][3] = runs["change"][3][:1]  # one run lacks "matmul"
    verdicts, differ, missing = pairs.section_verdicts(runs)
    assert [key for key, _ in verdicts] == ["p n=32 inverse"]
    assert (differ, missing) == ([], ["p n=32 matmul"])


def test_alternate_swaps_the_first_side_every_pair(capsys):
    trees = {"parent": Path("p"), "change": Path("c")}
    calls = []

    def run(tree, i):
        calls.append((tree.name, i))
        return f"{tree.name}{i}"

    runs = pairs.alternate(trees, 3, run, lambda result, i: f"result {result}, pair {i}")
    assert calls == [("p", 0), ("c", 0), ("c", 1), ("p", 1), ("p", 2), ("c", 2)]
    assert runs == {"parent": ["p0", "p1", "p2"], "change": ["c0", "c1", "c2"]}
    assert capsys.readouterr().out.splitlines() == [
        "pair 0 parent: result p0, pair 0", "pair 0 change: result c0, pair 0",
        "pair 1 change: result c1, pair 1", "pair 1 parent: result p1, pair 1",
        "pair 2 parent: result p2, pair 2", "pair 2 change: result c2, pair 2",
    ]


def tier1_result(wall_s, **tests):
    """A synthetic tier1_run() result: each test a setup and a call phase."""
    phases = [(s / 2, phase, t) for t, s in tests.items() for phase in ("setup", "call")]
    return {"wall_s": wall_s, "summary": "2 passed", "phases": phases, "failed_tests": []}


def test_tier1_report_sums_only_the_tests_every_run_has(capsys):
    runs = {"parent": [tier1_result(9.0, a=1.0, b=3.0), tier1_result(11.0, a=1.0, b=3.0, c=50.0)],
            "change": [tier1_result(8.0, a=1.0, b=2.0, d=70.0), tier1_result(10.0, a=1.0, b=2.0)]}
    pairs.tier1_report(runs)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "2 tests ran on both sides in every run"
    rows = [line.split() for line in out if line.startswith("shared test time")]
    assert len(rows) == 1
    assert rows[0][3:7] == ["s", "lower", "4", "3"]  # unit, better, parent and change medians
    assert out[out.index("biggest movers (change median - parent median):") + 1] == "  -1.000 s  b"
    assert out[-1] == "wall time, median (not judged): parent 10.0 s, change 9.0 s"


def test_tier1_run_reads_phases_and_failures(tmp_path):
    (tmp_path / "test_two.py").write_text("def test_ok():\n    pass\n\n\n"
                                          "def test_bad():\n    assert False\n")
    run = pairs.tier1_run(tmp_path)
    assert run["summary"].startswith("1 failed, 1 passed")
    assert run["failed_tests"] == ["test_two.py::test_bad"]
    assert {(phase, test) for _, phase, test in run["phases"]} == {
        (phase, f"test_two.py::test_{name}")
        for phase in ("setup", "call", "teardown") for name in ("ok", "bad")}
    assert [s for s, *_ in run["phases"]] == sorted((s for s, *_ in run["phases"]), reverse=True)
