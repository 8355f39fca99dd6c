"""Top-level acceptance checks, one printed pass/fail line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines.
"""

import math
import random
from fractions import Fraction

from riordan import (
    AZSequences,
    QuasiRiordan,
    RiordanPair,
    Series,
    Triangle,
    WeightSeq,
    WeightTri,
    C_transform,
    c_transform,
    factorization_check,
    generalized_laguerre,
    reconstruct_from_az,
    rook_laguerre_duality,
)
from riordan.catalog import (
    corpus,
    fuss_series,
    named_riordan,
    random_pair,
    remainder_entry,
    rook_entry,
)
from riordan.cli import main
from riordan.harness import EntryGenerator, exit_code, verify

F = Fraction


def check(label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_01_pascal_reproduction(capsys):
    code = main(["triangle", "--name", "pascal", "--order", "8"])
    out = capsys.readouterr().out
    tri = Triangle.from_csv(out)
    binom = Triangle([[F(math.comb(n, k)) for k in range(n + 1)] for n in range(8)])
    az = AZSequences(Series.from_coeffs([1, 1], 8), Series.from_coeffs([1], 8))
    ok = code == 0 and tri == binom and reconstruct_from_az(az, 8) == binom
    with capsys.disabled():
        check("pascal triangle from CLI and from A/Z reconstruction", ok)


def test_02_factorization_theorem():
    rng = random.Random(2024)
    pairs = [
        named_riordan("pascal", 32),
        named_riordan("identity", 32),
        named_riordan("catalan_bell", 32),
        named_riordan("fuss_bell", 32, "3"),
    ] + [random_pair(rng, 32) for _ in range(5)]
    ok = all(factorization_check(ra, 24) for ra in pairs)
    check("block factorization through the quasi array at order 24", ok)


def test_03_quasi_group():
    rng = random.Random(31)
    e = QuasiRiordan.identity(24)
    ok = True
    for _ in range(3):
        ra = random_pair(rng, 24)
        q = QuasiRiordan(ra.g, ra.f)
        ok = ok and (q * e).agrees_with(q) and (e * q).agrees_with(q)
        ok = ok and (q * q.inverse()).agrees_with(e)
        r2, r3 = (random_pair(rng, 24) for _ in range(2))
        q2, q3 = QuasiRiordan(r2.g, r2.f), QuasiRiordan(r3.g, r3.f)
        ok = ok and ((q * q2) * q3).agrees_with(q * (q2 * q3))
        ok = ok and (q * q2).matrix(16) == q.matrix(16) @ q2.matrix(16)
    geo = Series.geometric(16)
    inv = QuasiRiordan(geo, geo.shift_up().truncate(16)).inverse()
    ok = ok and list(inv.g.coeffs[:3]) == [1, -1, 0]
    ok = ok and list(inv.f.coeffs[:4]) == [0, 1, -1, 0]
    check("quasi group identity/inverse/associativity and the worked inverse", ok)


ROOK_ROWS = [
    [1],
    [1, 1],
    [2, 4, 1],
    [6, 18, 9, 1],
    [24, 96, 72, 16, 1],
    [120, 600, 600, 200, 25, 1],
]

LAGUERRE_ROWS = [
    [1],
    [-1, 1],
    [F(1, 2), -2, 1],
    [F(-1, 6), F(3, 2), -3, 1],
    [F(1, 24), F(-2, 3), 3, -4, 1],
    [F(-1, 120), F(5, 24), F(-5, 3), 5, -5, 1],
]


def test_04_rook_triangle():
    x = c_transform(named_riordan("pascal", 16), WeightSeq.factorial(6), 6)
    ok = [list(r) for r in x.entries.rows] == ROOK_ROWS
    ok = ok and remainder_entry(4, 4) == 24
    for n in range(12):
        for k in range(n + 1):
            ok = ok and rook_entry(n + 1, k) == rook_entry(n, k) + remainder_entry(n, k)
        ok = ok and rook_entry(n + 1, n + 1) == remainder_entry(n, n + 1)
    check("rook and remainder triangles with the consistency identity", ok)


def test_05a_laguerre_triangle_and_classical_duality():
    x = C_transform(named_riordan("pascal", 16), WeightTri.laguerre(6), 6)
    lag = generalized_laguerre(named_riordan("pascal", 16), 6)
    ok = [list(r) for r in x.entries.rows] == LAGUERRE_ROWS
    ok = ok and x.entries == lag.entries
    ok = ok and rook_laguerre_duality(named_riordan("pascal", 16), 12)
    check("Laguerre triangle rows and rook/Laguerre duality on the classical base", ok)


def test_05b_generalized_duality_on_catalan_base():
    # The duality pairs entry (m, m-k) of one weighted triangle with entry
    # (m, k) of the other, so after the weights cancel it needs the base
    # triangle to satisfy d_{m,m-k} = d_{m,k}.  The Catalan Bell triangle
    # does not (row 2 is 2, 2, 1), and the first mismatch is at (2, 0).
    # This check therefore fails by design of the quantities themselves;
    # it is kept to document the asserted-but-unattainable expectation.
    ok = rook_laguerre_duality(named_riordan("catalan_bell", 16), 6)
    check("rook/Laguerre duality on the Catalan Bell base", ok)


def test_06_identity_suite_and_fault_injection(builtin_reports):
    reports = builtin_reports
    ok = exit_code(reports) == 0 and all(r.status == "verified" for r in reports)

    def bad(n, k):
        return F(n + k + (1 if (n, k) == (2, 1) else 0))

    fault = verify(
        "fault",
        EntryGenerator("n+k", lambda n, k: F(n + k)),
        EntryGenerator("bad", bad),
        5,
    )
    ok = ok and fault.status == "counterexample"
    ok = ok and (fault.counterexample.n, fault.counterexample.k) == (2, 1)
    check("builtin identity suite all verified; fault injection caught", ok)


def test_07_triple_oracle_agreement():
    ok = True
    for name, ra in corpus(prec=48).items():
        ok = ok and ra.triangle(41) == ra.triangle_closed(41)
        tri = ra.triangle(11)
        for n in range(11):
            for k in range(n + 1):
                ok = ok and tri.entry(n, k) == ra.entry_nested(n, k)
        if not ok:
            break
    from riordan import horiz_recursion_C, vert_recursion_C

    base = named_riordan("catalan_bell", 32)
    xc = c_transform(base, WeightSeq.factorial(20), 20)
    xC = C_transform(base, WeightTri.laguerre(20), 20)
    for n in range(1, 20):
        for k in range(n + 1):
            ok = ok and horiz_recursion_C(xc, n, k) == xc.entries.rows[n][k]
            ok = ok and horiz_recursion_C(xC, n, k) == xC.entries.rows[n][k]
        for k in range(1, n + 1):
            ok = ok and vert_recursion_C(xc, n, k) == xc.entries.rows[n][k]
            ok = ok and vert_recursion_C(xC, n, k) == xC.entries.rows[n][k]
    check("closed/vertical/nested entries agree; weighted recursions agree", ok)


def test_08_sequence_ground_truth():
    f3 = fuss_series(3, 8)
    f2 = fuss_series(2, 8)
    ok = list(f3.coeffs[:7]) == [1, 1, 3, 12, 55, 273, 1428]
    ok = ok and list(f2.coeffs[:6]) == [1, 1, 2, 5, 14, 42]
    check("Fuss series coefficients match the published values", ok)


def test_09_group_axioms_randomized():
    rng = random.Random(90)
    e = RiordanPair.identity(40)
    eq = QuasiRiordan.identity(40)
    ok = True
    for _ in range(10):
        a = random_pair(rng, 40)
        b = random_pair(rng, 40)
        c = random_pair(rng, 40)
        ok = ok and (a * a.inverse()).agrees_with(e)
        ok = ok and ((a * b) * c).agrees_with(a * (b * c))
        qa, qb, qc = (QuasiRiordan(x.g, x.f) for x in (a, b, c))
        ok = ok and (qa * qa.inverse()).agrees_with(eq)
        ok = ok and ((qa * qb) * qc).agrees_with(qa * (qb * qc))
    check("randomized group axioms for both groups at precision 40", ok)
