"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
``pytest -v`` run shows the per-criterion verdicts alongside the test
results.  Tolerances are pinned to the values stated in the criteria.
"""

import random
import time
from fractions import Fraction

from lfunpoly import (
    LValueRequest,
    PeriodicFunction,
    Polynomial,
    chi3,
    chi4,
    congruence_scan,
    const_one,
    continuation_eval,
    direct_sum,
    family_sequence,
    l_chi_numeric,
    l_negative,
    make_plan,
    period_detect,
    psi_table,
)
from checks import check_shift_identity


def P(*coeffs):
    return Polynomial.from_rationals(coeffs)


def _report(capsys, number, ok, label):
    with capsys.disabled():
        print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {number} failed: {label}"


# 1 ------------------------------------------------------------------

PSI3_ODD = [
    Fraction(-1, 3),
    Fraction(2, 3),
    Fraction(-10, 3),
    Fraction(98, 3),
    Fraction(-1618, 3),
    Fraction(40634, 3),
    Fraction(-1445626, 3),
]


def test_criterion_1_psi3_moments(capsys):
    table = psi_table(chi3(), 13)
    ok = list(table.moments[1::2]) == PSI3_ODD and all(
        m == 0 for m in table.moments[0::2]
    )
    _report(capsys, 1, ok, "psi moments of chi3 up to degree 13, exact")


# 2 ------------------------------------------------------------------


def test_criterion_2_worked_example(capsys):
    table = psi_table(chi3(), 4)
    value = l_negative(LValueRequest(chi3(), P(0, 1, 1), m=2, offset_A=1), table)
    _report(capsys, 2, value == Fraction(-2, 3), "l_negative(chi3, X(X+1), m=2) = -2/3")


# 3 ------------------------------------------------------------------

# Bernoulli values B_m(1) for m = 0..20, computed independently from the
# standard recurrence sum_{j<m} C(m+1, j) B_j = 0 shifted to argument 1
BERNOULLI_AT_ONE = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
    Fraction(0),
    Fraction(7, 6),
    Fraction(0),
    Fraction(-3617, 510),
    Fraction(0),
    Fraction(43867, 798),
    Fraction(0),
    Fraction(-174611, 330),
]


def test_criterion_3_bernoulli_regression(capsys):
    table = psi_table(const_one(), 20)
    ok = list(table.moments) == BERNOULLI_AT_ONE
    _report(capsys, 3, ok, "constant chi gives B_m(1) for m <= 20, exact")


# 4 ------------------------------------------------------------------


def _random_zero_sum_chi(rng):
    period = rng.randrange(2, 7)
    vals = [Fraction(rng.randrange(-5, 6)) for _ in range(period - 1)]
    vals.append(-sum(vals))
    return PeriodicFunction(period, vals)


def test_criterion_4_shift_identity_suite(capsys):
    rng = random.Random(2024)
    tables = {}
    ok = True
    for _ in range(200):
        pick = rng.randrange(3)
        chi = chi3() if pick == 0 else chi4() if pick == 1 else _random_zero_sum_chi(rng)
        key = (chi.period, chi.values)
        if key not in tables:
            tables[key] = psi_table(chi, 8)
        degree = rng.randrange(0, 9)
        poly = Polynomial(
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4)) for _ in range(degree + 1)]
        )
        if not check_shift_identity(tables[key], poly):
            ok = False
            break
    _report(capsys, 4, ok, "200 random shift-identity cases, exact")


# 5 ------------------------------------------------------------------


def test_criterion_5_continuation_concordance(capsys):
    polys = [P(0, 1, 1), P(1, 0, 1), P(5, 2, 0, 1)]
    table = psi_table(chi3(), 15)
    worst = 0.0
    for poly in polys:
        plan = make_plan(chi3(), poly=poly)
        for m in range(1, 6):
            exact = float(l_negative(LValueRequest(chi3(), poly, m), table))
            worst = max(worst, abs(continuation_eval(plan, 1 - m) - exact))
        for s in (2.0, 2.5, 3 + 1j):
            ref = direct_sum(chi3(), poly, 1, s, epsilon=1e-10)
            worst = max(worst, abs(continuation_eval(plan, s) - ref))
    _report(
        capsys,
        5,
        worst < 1e-8,
        f"continuation vs exact/direct values, worst |diff| = {worst:.2e} < 1e-8",
    )


# 6 ------------------------------------------------------------------


def test_criterion_6_monomial_identity(capsys):
    plan = make_plan(chi3(), roots=[0, 0], leading_coeff=2)
    worst = 0.0
    for s in (-0.5, 0.0, 2.0, 1 + 2j):
        expected = 2 * 2 ** (1 - s) * l_chi_numeric(chi3(), 2 * s - 1)
        worst = max(worst, abs(continuation_eval(plan, s) - expected))
    _report(
        capsys,
        6,
        worst < 1e-9,
        f"P = 2X^2 reduces to 2*2^(1-s)*L(2s-1), worst |diff| = {worst:.2e} < 1e-9",
    )


# 7 ------------------------------------------------------------------

REFERENCE_TABLES = {
    5: ["3u", "4u", "3u^3", "u", "2u^3", "4u"],
    7: [
        "2u",
        "3u",
        "u^3 + 6u",
        "6u^3",
        "4u^5 + 2u",
        "2u^3 + 2u",
        "6u^5 + 3u^3",
        "3u",
    ],
    11: [
        "7u",
        "8u",
        "10u^3 + 4u",
        "4u^3 + 7u",
        "3u^5 + 3u^3 + 7u",
        "7u^5 + 5u^3",
        "u^7 + 10u^5 + 9u",
        "7u^7 + 8u^3 + u",
        "2u^9 + 5u^5 + 2u^3 + 6u",
        "9u^7 + u^5 + 6u^3 + 5u",
        "u^9 + 8u^7 + 10u^5 + 9u^3",
        "8u",
    ],
}


def test_criterion_7_congruence_tables(capsys):
    ok = True
    for p, expected in REFERENCE_TABLES.items():
        m_max = 1 + 3 * (p - 1)
        table = psi_table(chi3(), 2 * m_max)
        report = congruence_scan(chi3(), p, 2, table)
        if report.term_strings()[: len(expected)] != expected:
            ok = False
        if period_detect(report.terms, preperiod=1) != p - 1:
            ok = False
    _report(capsys, 7, ok, "mod 5/7/11 term lists verbatim, period p-1 after m=1")


# 8 ------------------------------------------------------------------


def _primes(lo, hi):
    out = []
    for n in range(lo + 1, hi):
        if n > 1 and all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
    return out


def test_criterion_8_period_scan_desk_scale(capsys):
    start = time.monotonic()
    ok = True
    for chi, hi in ((chi3(), 50), (chi4(), 30)):
        ps = _primes(3, hi)
        m_max = 1 + 3 * (max(ps) - 1)
        table = psi_table(chi, 2 * m_max)
        for p in ps:
            report = congruence_scan(chi, p, 2, table)
            if report.period_detected != p - 1 or not report.pm1_confirmed:
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    _report(
        capsys,
        8,
        ok,
        f"period p-1 for chi3 p<50 and chi4 p<30, two periods, {elapsed:.1f}s < 300s",
    )


# 9 ------------------------------------------------------------------


def test_criterion_9_independence_invariants(capsys):
    rng = random.Random(99)
    poly = P(0, 1, 1)
    d = poly.degree
    worst = 0.0
    for _ in range(20):
        s = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
        base_plan = make_plan(chi3(), poly=poly)
        base = continuation_eval(base_plan, s)

        # N-independence: bump the Taylor order by d
        from lfunpoly.continuation import _auto_taylor_order

        bumped = make_plan(chi3(), poly=poly, taylor_order_N=_auto_taylor_order(d, s.real) + d)
        worst = max(worst, abs(continuation_eval(bumped, s) - base))

        # A-independence: offsets 1 and 4 differ by the explicit prefix
        shifted = continuation_eval(make_plan(chi3(), poly=poly, offset_A=4), s)
        prefix = sum(
            float(chi3()(n)) * (2 * n + 1) * complex(n * (n + 1)) ** (-s)
            for n in range(1, 4)
        )
        worst = max(worst, abs(base - (shifted + prefix)))
    _report(
        capsys,
        9,
        worst < 1e-9,
        f"N- and A-independence on 20 random s, worst |diff| = {worst:.2e} < 1e-9",
    )
