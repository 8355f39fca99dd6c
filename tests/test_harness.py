"""Verification harness: statuses, counterexample reporting, exit codes, JSON."""

import inspect
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from riordan import RiordanPair, catalog, group, harness, series
from riordan.harness import (
    K_POLICIES,
    Counterexample,
    EntryGenerator,
    exit_code,
    reports_to_json,
    verify,
    VerificationReport,
)


def const_gen(value=1):
    return EntryGenerator("constant", lambda n, k: Fraction(value))


def binom_gen():
    import math

    return EntryGenerator("binomial", lambda n, k: Fraction(math.comb(n, k)))


class TestVerify:
    def test_equal_generators_verified(self):
        r = verify("same", binom_gen(), binom_gen(), 12)
        assert r.status == "verified"
        assert r.counterexample is None

    def test_fault_reported_at_first_site(self):
        def bad(n, k):
            v = Fraction(n + k)
            if (n, k) == (3, 1):
                v += 1
            return v

        lhs = EntryGenerator("n+k", lambda n, k: Fraction(n + k))
        r = verify("fault", lhs, EntryGenerator("bad", bad), 10)
        assert r.status == "counterexample"
        assert (r.counterexample.n, r.counterexample.k) == (3, 1)
        assert r.counterexample.lhs == "4"
        assert r.counterexample.rhs == "5"

    def test_fault_order_is_lexicographic(self):
        # faults at (2,2) and (3,0): (2,2) comes first
        def bad(n, k):
            return Fraction(1 if (n, k) in {(2, 2), (3, 0)} else 0)

        r = verify("order", const_gen(0), EntryGenerator("bad", bad), 5)
        assert (r.counterexample.n, r.counterexample.k) == (2, 2)

    def test_exception_is_inconclusive(self):
        def boom(n, k):
            if n == 4:
                raise ZeroDivisionError("synthetic")
            return Fraction(0)

        r = verify("boom", const_gen(0), EntryGenerator("boom", boom), 10)
        assert r.status == "inconclusive"
        assert "(4,0)" in r.detail
        assert "ZeroDivisionError" in r.detail

    def test_k_policies(self):
        def walked(n):
            return {label: list(k_range(n)) for label, k_range in K_POLICIES.items()}

        assert walked(3) == {
            "0 <= k <= n": [0, 1, 2, 3],
            "0 <= k <= n, n >= 1": [0, 1, 2, 3],
            "0 <= k <= n+1": [0, 1, 2, 3, 4],
            "1 <= k <= n": [1, 2, 3],
            "1 <= k <= n, n >= 1": [1, 2, 3],
            "1 <= k <= n-1": [1, 2],
            "k = 0": [0],
        }
        assert walked(0) == {
            "0 <= k <= n": [0],
            "0 <= k <= n, n >= 1": [],
            "0 <= k <= n+1": [0, 1],
            "1 <= k <= n": [],
            "1 <= k <= n, n >= 1": [],
            "1 <= k <= n-1": [],
            "k = 0": [0],
        }

    def test_policy_label_sets_the_range(self):
        def boom(n, k):
            if k > 0:
                raise RuntimeError("k > 0 was walked")
            return Fraction(0)

        r = verify("col0", const_gen(0), EntryGenerator("boom", boom), 5, "k = 0")
        assert (r.status, r.k_policy) == ("verified", "k = 0")

    def test_unknown_policy_label_is_refused_before_any_route_runs(self):
        def boom(n, k):
            raise AssertionError("a route ran")

        gen = EntryGenerator("boom", boom)
        with pytest.raises(ValueError, match="unknown k_policy '0 <= k < n'"):
            verify("unknown", gen, gen, 3, "0 <= k < n")

    def test_n_max_zero(self):
        r = verify("tiny", const_gen(), const_gen(), 0)
        assert r.status == "verified"

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError):
            verify("neg", const_gen(), const_gen(), -1)

    def test_determinism(self):
        a = verify("same", binom_gen(), binom_gen(), 8)
        b = verify("same", binom_gen(), binom_gen(), 8)
        assert a == b  # seconds excluded from comparison


class TestExactRatios:
    """verify compares exact ratios, so a route may return an int or a Fraction."""

    def test_int_route_against_equal_fraction_route(self):
        ints = EntryGenerator("binomial", math.comb)
        assert verify("mixed", ints, binom_gen(), 12).status == "verified"
        assert verify("mixed", binom_gen(), ints, 12).status == "verified"

    def test_mismatch_keeps_the_strings(self):
        lhs = EntryGenerator("four", lambda n, k: 4)
        rhs = EntryGenerator("third", lambda n, k: Fraction(1, 3))
        r = verify("mismatch", lhs, rhs, 3)
        assert r.status == "counterexample"
        assert r.counterexample == Counterexample(0, 0, "4", "1/3")
        half = EntryGenerator("half", lambda n, k: Fraction(1, 2))
        assert verify("same numerator", rhs, half, 0).status == "counterexample"

    @pytest.mark.parametrize(
        "value, kind", [(None, "NoneType"), ("1/3", "str"), (float("nan"), "float")]
    )
    @pytest.mark.parametrize("side", ["lhs", "rhs"])
    def test_value_with_no_exact_ratio_is_inconclusive(self, value, kind, side):
        odd = EntryGenerator("odd", lambda n, k: value if (n, k) == (2, 1) else n)
        plain = EntryGenerator("plain", lambda n, k: n)
        lhs, rhs = (odd, plain) if side == "lhs" else (plain, odd)
        r = verify("odd", lhs, rhs, 4)
        assert r.status == "inconclusive"
        assert r.detail == f"at (2,1): 'odd' gave a {kind}, not an exact ratio"


class TestExitCode:
    def test_all_verified(self):
        r = verify("ok", const_gen(), const_gen(), 3)
        assert exit_code([r, r]) == 0

    def test_counterexample_wins(self):
        ok = verify("ok", const_gen(), const_gen(), 3)
        bad = verify("bad", const_gen(0), const_gen(1), 3)
        assert bad.status == "counterexample"
        assert exit_code([ok, bad]) == 1

    def test_inconclusive(self):
        def boom(n, k):
            raise RuntimeError("x")

        r = verify("boom", EntryGenerator("boom", boom), const_gen(), 3)
        assert exit_code([r]) == 2

    def test_counterexample_beats_inconclusive(self):
        def boom(n, k):
            raise RuntimeError("x")

        inc = verify("boom", EntryGenerator("boom", boom), const_gen(), 3)
        bad = verify("bad", const_gen(0), const_gen(1), 3)
        assert exit_code([inc, bad]) == 1


class TestJson:
    def test_round_trip_fields(self):
        bad = verify("bad", const_gen(0), const_gen(1), 3)
        data = json.loads(reports_to_json([bad]))
        assert data[0]["name"] == "bad"
        assert data[0]["status"] == "counterexample"
        assert data[0]["counterexample"] == {"n": 0, "k": 0, "lhs": "0", "rhs": "1"}

    def test_report_to_dict_omits_empty(self):
        r = VerificationReport("x", 2, "0 <= k <= n", "verified")
        d = r.to_dict()
        assert "counterexample" not in d
        assert "detail" not in d

    def test_counterexample_strings_are_exact_rationals(self):
        lhs = EntryGenerator("third", lambda n, k: Fraction(1, 3))
        r = verify("frac", lhs, const_gen(0), 0)
        assert r.counterexample.lhs == "1/3"


class TestBuiltinSuite:
    def test_all_verified(self, builtin_reports):
        failed = [r.name for r in builtin_reports if r.status != "verified"]
        assert failed == []
        assert exit_code(builtin_reports) == 0

    def test_closed_forms_stay_plain_functions(self, builtin_reports):
        # the suite memoizes the closed forms for one run, never in catalog
        for name in (
            "rook_entry",
            "laguerre_entry",
            "fuss_power_coeff",
            "catalan_power_coeff",
            "binomial",
        ):
            assert inspect.isfunction(getattr(catalog, name)), name

    def test_hook_sees_each_report_as_returned(self, builtin_reports):
        seen = []
        reports = harness.builtin_suite(seen.append)
        assert len(seen) == len(reports) == len(builtin_reports)
        assert all(a is b for a, b in zip(seen, reports))
        assert [(r.name, r.status) for r in reports] == [
            (r.name, r.status) for r in builtin_reports
        ]

    def test_report_names_unique(self, builtin_reports):
        names = [r.name for r in builtin_reports]
        assert len(names) == len(set(names))

    def test_reports_match_reference(self, builtin_reports):
        # names, order, ranges, labels and statuses are the report format
        root = Path(__file__).resolve().parents[1]
        with open(root / "bench/reference/verify_builtin.json", encoding="utf-8") as fh:
            reference = json.load(fh)
        reports = [r.to_dict() for r in builtin_reports]
        for d in reports:
            del d["seconds"]
        assert reports == reference

    def test_raising_check_is_inconclusive(self, monkeypatch):
        def broken(ra, n):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(harness, "factorization_check", broken)
        rows = list(harness._rows())  # building the rows runs no check
        quasi = [i for i, row in enumerate(rows) if row[0].startswith("quasi-")]
        assert len(quasi) == 10
        # the ten factorization rows with one neighbour on each side
        reports = [harness._check(*row) for row in rows[quasi[0] - 1 : quasi[-1] + 2]]
        assert [r.status for r in reports[1:-1]] == ["inconclusive"] * 10
        assert all("RuntimeError('synthetic')" in r.detail for r in reports[1:-1])
        assert reports[0].status == reports[-1].status == "verified"
        assert exit_code(reports) == 2

    def test_rook_expansion_reads_every_remainder_entry(self, monkeypatch):
        remainder_entry = harness.remainder_entry
        monkeypatch.setattr(
            harness,
            "remainder_entry",
            lambda n, k: remainder_entry(n, k) + ((n, k) == (5, 3)),
        )
        row = next(row for row in harness._rows() if row[0] == "rook-expansion")
        report = harness._check(*row)
        assert report.status == "counterexample"
        assert (report.counterexample.n, report.counterexample.k) == (5, 0)

    @pytest.mark.parametrize(
        "owner, builder, broken, n_broken, intact, n_intact",
        [
            (harness, "c_transform", ("c-", "C-"), 18, (), 0),
            (
                catalog,
                "fuss_series",
                ("fuss-series-", "fuss-functional-"),
                10,
                ("fuss-convolution-",),
                5,
            ),
            (
                RiordanPair,
                "extract_az",
                ("c-horizontal-", "C-horizontal-"),
                9,
                ("c-vertical-", "C-vertical-"),
                9,
            ),
        ],
        ids=["c_transform", "fuss_series", "extract_az"],
    )
    def test_raising_input_is_inconclusive(
        self, monkeypatch, owner, builder, broken, n_broken, intact, n_intact
    ):
        def raising(*args):
            raise RuntimeError("synthetic")

        monkeypatch.setattr(owner, builder, raising)
        rows = list(harness._rows())  # building the rows builds no input
        hit = [row for row in rows if row[0].startswith(broken)]
        kept = [row for row in rows if row[0].startswith(intact)]
        assert (len(hit), len(kept)) == (n_broken, n_intact)
        reports = [harness._check(*row) for row in hit]
        assert [r.status for r in reports] == ["inconclusive"] * n_broken
        assert all("RuntimeError('synthetic')" in r.detail for r in reports)
        assert exit_code(reports) == 2
        assert all(harness._check(*row).status == "verified" for row in kept)


def _counting(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends its arguments to a list."""
    calls, inner = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestOneBuildPerInput:
    """The suite builds each closed-form column and each base's A/Z once."""

    def test_suite_extracts_az_once_per_base(self, monkeypatch):
        calls = _counting(monkeypatch, RiordanPair, "extract_az")
        reports = harness.builtin_suite()
        assert exit_code(reports) == 0
        assert len(calls) == 3
        assert len({pair for (pair,) in calls}) == 3

    def test_public_extract_az_stays_uncached(self, monkeypatch):
        calls = _counting(monkeypatch, group, "_lagrange_powers")
        ra = catalog.named_riordan("catalan_bell", 16)
        first, second = ra.extract_az(), ra.extract_az()
        assert len(calls) == 2
        assert first == second and first is not second
        ra._az
        ra._az
        assert len(calls) == 3
        ra.extract_az()
        assert len(calls) == 4

    def test_builder_reads_each_entry_once(self):
        def entry(n, k):
            return Fraction(catalog.binomial(n, k), k + 1)

        reads = []
        n_max = 12
        route = harness._vertical_relation(
            lambda n, k: reads.append((n, k)) or entry(n, k),
            lambda n, k: ([1] * (n - k + 1), 1),
            n_max,
        )
        for n in range(1, n_max + 1):
            for k in range(1, n + 1):
                want = sum(entry(n - j, k - 1) for j in range(1, n - k + 2))
                assert route(n, k) == want, (n, k)
        assert len(reads) == len(set(reads))
        assert set(reads) == {(i, k) for k in range(n_max) for i in range(k, n_max)}

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("pascal-vertical-recursion", 0),
            ("rook-vertical", 0),
            ("laguerre-vertical", 0),
            ("catalan-convolution", 1),
            *((f"fuss-convolution-m{m}", 1) for m in range(1, 6)),
        ],
    )
    def test_each_column_is_cleared_once_per_row(self, monkeypatch, name, extra):
        # one _cleared per column k - 1 the row reads, and one for the
        # weights of a convolution (the Bell pair's f)
        calls = _counting(monkeypatch, harness, "_cleared")
        row = next(row for row in harness._rows() if row[0] == name)
        assert harness._check(*row).status == "verified"
        n_max, k_policy = row[3:]
        columns = {k - 1 for n in range(n_max + 1) for k in K_POLICIES[k_policy](n)}
        assert len(calls) == len(columns) + extra


# -- the closed-form routes against the paper's formulas ------------------------

# Each closed form is read through a scale, so that the routes also meet
# denominators where the paper's entries have none.  A scale by column
# with c_0 = 1 keeps the expansion and remainder identities true.
SCALES = {
    "paper": lambda n, k: 1,
    "by-column": lambda n, k: Fraction(k + 1, 2 * k + 1),
    "by-entry": lambda n, k: Fraction(-1, n + k + 2),
}


def formulas(r, lag, e):
    """The rows' recursions in plain Fraction arithmetic, one term at a time."""

    def r0(n, k):  # r_{n,k}, 0 past the diagonal
        return r(n, k) if k <= n else Fraction(0)

    def expansion(n, k):
        return Fraction(int(all(
            r(n + 1, j) - (j == 0)
            == sum((e(i, j) for i in range(max(j - 1, 0), n + 1)), Fraction(0))
            for j in range(n + 2)
        )))

    return {
        "rook-horizontal": lambda n, k: n * r0(n - 1, k)
        + Fraction(n, k) * r(n - 1, k - 1),
        "rook-column0": lambda n, k: n * r(n - 1, 0) if n else Fraction(1),
        "laguerre-horizontal": lambda n, k: lag(n - 1, k - 1)
        - Fraction(1, n - k) * lag(n - 1, k),
        "laguerre-column0": lambda n, k: -Fraction(1, n) * lag(n - 1, 0)
        if n
        else Fraction(1),
        "rook-expansion": expansion,
        "rook-remainder-consistency": lambda n, k: r0(n, k) + e(n, k),
        "rook-laguerre-duality-classical": lambda n, k: (-1) ** (n - k)
        * math.factorial(n)
        * lag(n, k),
    }


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("name", formulas(None, None, None))
def test_closed_form_route_matches_the_papers_formula(monkeypatch, name, scale):
    forms = {}
    for owner, attr in ((catalog, "rook_entry"), (catalog, "laguerre_entry"),
                        (harness, "remainder_entry")):
        form = getattr(owner, attr)
        forms[attr] = lambda n, k, form=form: form(n, k) * SCALES[scale](n, k)
        monkeypatch.setattr(owner, attr, forms[attr])
    formula = formulas(*forms.values())[name]
    row = next(row for row in harness._closed_form_rows() if row[0] == name)
    lhs, rhs, n_max, k_policy = row[1:]
    route = (lhs if rhs is harness._EXPECTED else rhs)[1]
    walked = [(n, k) for n in range(n_max + 1) for k in K_POLICIES[k_policy](n)]
    assert len(walked) >= n_max + 1
    for n, k in walked:
        assert route(n, k) == formula(n, k), (n, k)
    if name == "rook-expansion" and scale != "by-entry":
        assert all(formula(n, k) == 1 for n, k in walked)


def test_compared_entries_do_no_fraction_arithmetic(monkeypatch):
    # Once every input of a row is built, each compared entry is at most
    # one Fraction normalisation per route, and the comparison none.
    rows = list(harness._rows())
    assert all(harness._check(*row).status == "verified" for row in rows)

    def raising(*args):
        raise RuntimeError("Fraction arithmetic on a compared entry")

    for op in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, f"__{op}__", raising)
        monkeypatch.setattr(Fraction, f"__r{op}__", raising)
    for op in ("__neg__", "__pow__", "__eq__"):
        monkeypatch.setattr(Fraction, op, raising)
    reports = [harness._check(*row) for row in rows]
    assert [(r.name, r.detail) for r in reports if r.status != "verified"] == []


def test_closed_form_rows_use_no_triangle_or_series_kernel(monkeypatch):
    def raising(*args):
        raise RuntimeError("a closed-form route must not use the pair or the kernel")

    for owner, name in ((series, "_kmul"), (series, "_to_ints"), (harness, "_to_ints"),
                        (RiordanPair, "triangle"), (RiordanPair, "triangle_closed")):
        monkeypatch.setattr(owner, name, raising)
    closed = ("pascal-", "rook-", "laguerre-")
    rows = [row for row in harness._rows() if row[0].startswith(closed)]
    assert len(rows) == 10
    assert [harness._check(*row).status for row in rows] == ["verified"] * 10


def test_integer_valued_routes_return_ints():
    # A route over a denominator of 1 returns its integer sum; one over a
    # larger denominator (rook: k, Laguerre: (n-k)! in the weights) stays
    # an exact Fraction, however the sum divides.
    rows = {row[0]: row for row in harness._rows()}

    def types(name, wanted=lambda n, k: True):
        _, _, (_, route), n_max, k_policy = rows[name]
        return {
            type(route(n, k)) for n in range(n_max + 1)
            for k in K_POLICIES[k_policy](n) if wanted(n, k)
        }

    ints = ["pascal-vertical-recursion", "catalan-convolution"]
    for m in range(1, 6):
        ints += [f"fuss-convolution-m{m}", f"fuss-series-coefficients-m{m}"]
    assert {name: types(name) for name in ints} == {name: {int} for name in ints}
    assert types("rook-vertical", lambda n, k: k >= 2) == {Fraction}
    assert types("laguerre-vertical", lambda n, k: n - k >= 2) == {Fraction}
    assert all(harness._check(*rows[name]).status == "verified" for name in ints)


@pytest.mark.parametrize("name", [row[0] for row in harness._rows()])
def test_every_row_fails_where_it_claims_to_check(name):
    """Each side of a builtin row, changed by 1 at the first or the last
    (n, k) of the row's range and nowhere else, gives a counterexample at
    exactly that (n, k) with the changed value; unchanged, the row
    evaluates both routes at every (n, k) of its range, in order."""
    _, *sides, n_max, k_policy = next(row for row in harness._rows() if row[0] == name)
    entries = [(n, k) for n in range(n_max + 1) for k in K_POLICIES[k_policy](n)]
    seen = ([], [])

    def recording(side, route):
        def evaluate(n, k):
            seen[side].append((n, k))
            return route(n, k)

        return evaluate

    recorded = [(desc, recording(side, route)) for side, (desc, route) in enumerate(sides)]
    assert harness._check(name, *recorded, n_max, k_policy).status == "verified"
    assert seen == (entries, entries)

    for side, (desc, route) in enumerate(sides):
        for at in (entries[0], entries[-1]):

            def changed(n, k, route=route, at=at):
                value = route(n, k)
                return value + 1 if (n, k) == at else value

            row = list(sides)
            row[side] = (desc, changed)
            report = harness._check(name, *row, n_max, k_policy)
            assert report.status == "counterexample", (side, at)
            ce = report.counterexample
            assert (ce.n, ce.k) == at, side
            assert (ce.lhs, ce.rhs)[side] == str(route(*at) + 1), (side, at)
