import cmath
import itertools
import json
import math
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from lfunpoly import (
    BudgetExceeded,
    ConvergenceError,
    ContinuationPlan,
    DomainError,
    LValueRequest,
    PeriodicFunction,
    PoleError,
    Polynomial,
    chi3,
    chi4,
    const_one,
    continuation_eval,
    direct_sum,
    hurwitz_zeta,
    l_chi_numeric,
    l_negative,
    make_plan,
)
from lfunpoly import cli, continuation
from lfunpoly.continuation import _chi_mp, _interior_l_values, _summand_taylor
from checks import (
    interior_l_value_by_hurwitz,
    monic_from_roots,
    run_fresh,
    taylor_coefficient,
    taylor_remainder,
)


def P(*coeffs):
    return Polynomial.from_rationals(coeffs)


# -- Hurwitz zeta -----------------------------------------------------


def test_hurwitz_basel():
    with mp.workdps(30):
        assert abs(hurwitz_zeta(2, 1) - mp.pi**2 / 6) < 1e-22
        assert abs(hurwitz_zeta(2, mp.mpf(1) / 2) - mp.pi**2 / 2) < 1e-22


def test_hurwitz_at_zero_and_minus_one():
    # zeta(0, a) = 1/2 - a and zeta(-1, a) = -B_2(a)/2
    with mp.workdps(30):
        for a in (mp.mpf(1) / 3, mp.mpf(2) / 3, mp.mpf(1)):
            assert abs(hurwitz_zeta(0, a) - (mp.mpf(1) / 2 - a)) < 1e-22
            b2 = a**2 - a + mp.mpf(1) / 6
            assert abs(hurwitz_zeta(-1, a) + b2 / 2) < 1e-22


def test_hurwitz_against_mpmath():
    # mpmath.zeta(s, a) is the external oracle for scattered points
    points = [
        (mp.mpf(3), mp.mpf(1) / 4),
        (mp.mpf(-7) / 2, mp.mpf(2) / 3),
        (mp.mpc(2, 5), mp.mpf(1) / 3),
        (mp.mpc(-3, 1), mp.mpf(3) / 4),
        (mp.mpf(1) / 2, mp.mpf(1)),
    ]
    with mp.workdps(30):
        for s, a in points:
            ours = hurwitz_zeta(s, a)
            ref = mpmath.zeta(s, a)
            assert abs(ours - ref) < 1e-22, (s, a)


def test_hurwitz_pole_and_domain():
    with pytest.raises(PoleError):
        hurwitz_zeta(1, 0.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, 1.5)
    with pytest.raises(DomainError):
        hurwitz_zeta(2, 0)


# -- classical L-values -----------------------------------------------


def test_l_chi3_at_one():
    got = l_chi_numeric(chi3(), 1)
    assert abs(got - math.pi / (3 * math.sqrt(3))) < 1e-14


def test_l_chi4_at_one():
    assert abs(l_chi_numeric(chi4(), 1) - math.pi / 4) < 1e-14


def test_l_one_is_zeta():
    with mp.workdps(30):
        for s in (2, 3, mp.mpc(2, 1)):
            assert abs(l_chi_numeric(const_one(), s) - complex(mpmath.zeta(s))) < 1e-13


def test_l_chi_pole():
    with pytest.raises(PoleError):
        l_chi_numeric(const_one(), 1)


def test_l_chi_matches_exact_negative_values(chi3_table):
    # P = X turns the series into the classical L-function itself
    for m in (1, 2, 3, 4):
        exact = l_negative(LValueRequest(chi3(), P(0, 1), m), chi3_table)
        got = l_chi_numeric(chi3(), 1 - m)
        assert abs(got - float(exact)) < 1e-13


# -- Taylor machinery -------------------------------------------------


def _coeff_oracle(ell, roots, svec):
    """Order-ell coefficient by explicit composition sum (independent path)."""
    with mp.workdps(40):
        total = mp.mpc(0)
        d = len(roots)
        for ks in itertools.product(range(ell + 1), repeat=d):
            if sum(ks) != ell:
                continue
            term = mp.mpc(1)
            for a, s, k in zip(roots, svec, ks):
                term *= mp.binomial(-mp.mpc(s), k) * (-mp.mpc(a)) ** k
            total += term
        return complex(total)


def test_taylor_coefficient_against_composition_sum():
    roots = [-1 + 0j, 0.5j, -0.5j]
    svec = [2.5 + 0j, 1.5 + 0j, 1.5 + 1j]
    with mp.workdps(30):
        for ell in range(13):
            got = taylor_coefficient(ell, roots, svec)
            assert abs(got - _coeff_oracle(ell, roots, svec)) < 1e-12


def test_taylor_coefficient_zero_order():
    assert taylor_coefficient(0, [-1], [2]) == 1


def test_taylor_remainder_defining_relation():
    roots = [-1 + 0j, 2j]
    svec = [1.5, 2.5]
    order = 4
    with mp.workdps(30):
        x = 0.125
        rho = taylor_remainder(x, roots, svec, order)
        partial = sum(
            taylor_coefficient(ell, roots, svec) * x**ell for ell in range(order + 1)
        )
        product = complex(
            mp.power(1 + x, -1.5) * mp.power(1 - 2j * x, -2.5)
        )
        assert abs(partial + x ** (order + 1) * rho - product) < 1e-12


def test_taylor_remainder_vanishes_for_polynomial_product():
    # negative integer exponents make the product a polynomial of degree 5;
    # any order >= 5 leaves an exactly zero remainder
    roots = [-1 + 0j, -2 + 0j]
    svec = [-2, -3]
    with mp.workdps(30):
        for x in (0.05, 0.1, 0.2):
            assert abs(taylor_remainder(x, roots, svec, 5)) < 1e-15
            assert abs(taylor_remainder(x, roots, svec, 8)) < 1e-15


def test_taylor_remainder_domain():
    with mp.workdps(30):
        with pytest.raises(DomainError):
            taylor_remainder(0.9, [-1 + 0j], [2], 3)  # outside |x| <= 1/2
        with pytest.raises(DomainError):
            taylor_remainder(0.0, [-1 + 0j], [2], 3)


@pytest.mark.parametrize(
    "roots",
    [
        [-1.5 + 0j],
        [-1 + 0j, 0.5 + 0.75j],
        [-0.5 + 1j, -0.5 - 1j, 2 + 0j],
        [1j, -1j, -2 + 0.25j, 0.75 + 0j],
    ],
)
@pytest.mark.parametrize("s", [1, -2, 0.5 + 3j, -1.25 - 0.5j, 2.5])
def test_summand_series_is_sum_over_slots(roots, s):
    # B(x) sum_j 1/(1 - x a_j) is the sum over j of the products with
    # exponent s on root j and s - 1 on the others
    with mp.workdps(30):
        got = _summand_taylor(monic_from_roots([mp.mpc(a) for a in roots]), mp.mpc(s), 20)
        for ell in range(21):
            want = sum(
                taylor_coefficient(
                    ell, roots, [s if k == j else s - 1 for k in range(len(roots))]
                )
                for j in range(len(roots))
            )
            assert complex(got[ell]) == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- interior L-values ------------------------------------------------


@pytest.mark.parametrize(
    "chi, w0, offset, count",
    [
        (chi3(), mp.mpc(-5.75, 41.5), 7, 30),
        (chi3(), mp.mpf(-3), 1, 12),  # w0 a non-positive integer
        (chi3(), mp.mpf(-2), 4, 6),  # w_3 = 1: zero-sum chi
        (chi4(), mp.mpc(11.5, -60), 20, 8),
        (chi4(), mp.mpf(-6), 13, 9),  # w_7 = 1: zero-sum chi
        (const_one(), mp.mpc(0.25, 7), 1, 20),
        (const_one(), mp.mpc(2.5, -23), 16, 25),
        (PeriodicFunction(5, (1, 2, -1, 0, 3)), mp.mpc(-1.5, 17.25), 3, 15),
        (PeriodicFunction(5, (1, 2, -1, 0, 3)), mp.mpf(-4), 9, 5),
        (PeriodicFunction(3, (Fraction(1, 2), Fraction(-1, 3), 0)), mp.mpc(4, 55), 11, 10),
        (PeriodicFunction(3, (Fraction(1, 2), Fraction(-1, 3), 0)), mp.mpc(-0.5, -2), 2, 18),
    ],
)
def test_interior_l_values_against_hurwitz(chi, w0, offset, count):
    # the tails past the cut, each asked for 10^-33 offset^-Re(w) a class, plus
    # the head from offset summed here, against mpmath's Hurwitz zeta at 50
    # digits plus the digits the prefix subtraction cancels; error relative to
    # the larger of the value and its first term
    with mp.workdps(30):
        tolerances = [1e-33 * offset ** -float(mp.re(w0 + ell)) for ell in range(count)]
        cut, tails = _interior_l_values(chi, w0, tolerances, offset)
    assert cut >= offset
    for ell, tail in enumerate(tails):
        with mp.workdps(50 + int(max(0, mp.re(w0) + ell) * math.log10(offset))):
            w = w0 + ell
            value = tail + mp.fsum(_chi_mp(chi, n) * mp.power(n, -w) for n in range(offset, cut))
            ref = interior_l_value_by_hurwitz(chi, w, offset)
            scale = max(abs(ref), mp.power(offset, -mp.re(w)))
            assert abs(value - ref) <= 1e-25 * scale, (ell, value, ref)


def test_interior_l_values_cut_is_capped():
    # |Im w| = 1e6 needs a cut near N |w| / (2 pi); the search gives up instead
    with mp.workdps(30):
        with pytest.raises(ConvergenceError, match="no Euler-Maclaurin cut"):
            _interior_l_values(chi3(), mp.mpc(0.5, 1e6), [1e-33] * 3, 1)


# -- continuation evaluator -------------------------------------------


def test_matches_exact_at_negative_integers(chi3_table):
    plan = make_plan(chi3(), poly=P(0, 1, 1))
    for m in (1, 2, 3):
        exact = float(l_negative(LValueRequest(chi3(), P(0, 1, 1), m), chi3_table))
        got = continuation_eval(plan, 1 - m)
        assert abs(got - exact) < 1e-10, m


def test_matches_direct_sum_on_half_plane():
    poly = P(0, 1, 1)
    plan = make_plan(chi3(), poly=poly)
    for s in (2.0, 3.0, 2.5 + 1j):
        ref = direct_sum(chi3(), poly, 1, s, epsilon=1e-11)
        got = continuation_eval(plan, s)
        assert abs(got - ref) < 1e-9, s


def test_monomial_reduces_to_classical_l():
    # P = 2X^2: value is 2 * 2^(1-s) * L(2s - 1)
    plan = make_plan(chi3(), roots=[0, 0], leading_coeff=2)
    for s in (0.0, 2.0, 1 + 2j):
        expected = 2 * 2 ** (1 - s) * l_chi_numeric(chi3(), 2 * s - 1)
        assert abs(continuation_eval(plan, s) - expected) < 1e-12


def test_taylor_order_independence():
    poly = P(5, 2, 0, 1)
    auto = continuation_eval(make_plan(chi3(), poly=poly), 0.5)
    forced = continuation_eval(
        make_plan(chi3(), poly=poly, taylor_order_N=17), 0.5
    )
    assert abs(auto - forced) < 1e-10


def _degree_one_closed_form(chi, b, a, s):
    """Closed-form value of the series for P = aX + b, at 40 digits."""
    with mp.workdps(40):
        s = mp.mpmathify(s)
        shift = mp.mpf(b) / a
        n_period = chi.period
        total = mp.fsum(
            mp.mpf(chi(r).numerator) / chi(r).denominator * mpmath.zeta(s, (r + shift) / n_period)
            for r in range(1, n_period + 1)
        )
        return complex(mp.power(a, 1 - s) * mp.power(n_period, -s) * total)


@pytest.mark.parametrize(
    "chi, b, a, s",
    [
        ("one", 4, 1, 0.375 - 8.4453j),
        ("one", 1, 2, 0.5 + 20j),
        ("one", 3, 2, -0.75 + 55j),
        ("one", 5, 1, 2.5 - 1j),
        ("one", 1, 3, 0.3),
        ("chi3", 4, 1, -1.5),
        ("chi3", 1, 2, 0.375 - 8.4453j),
        ("chi3", 3, 1, 1.25 - 35j),
        ("chi3", 2, 3, -0.5 + 55j),
        ("chi4", 1, 1, 0.0),
        ("chi4", 5, 2, 0.5 + 14.1j),
        ("chi4", 2, 1, 1.5 - 55j),
        ("chi4", 1, 3, -2.25 + 4j),
    ],
)
def test_degree_one_closed_form(chi, b, a, s):
    # P = aX + b: the series is a^(1-s) N^(-s) sum_r chi(r) zeta(s, (r + b/a)/N),
    # summed here from mpmath's Hurwitz zeta without the Taylor expansion
    chi = {"one": const_one, "chi3": chi3, "chi4": chi4}[chi]()
    got = continuation_eval(make_plan(chi, poly=P(b, a)), s)
    ref = _degree_one_closed_form(chi, b, a, s)
    assert abs(got - ref) <= 1e-10 * abs(ref), (got, ref)


def test_offset_consistency_numeric():
    poly = P(0, 1, 1)
    v1 = continuation_eval(make_plan(chi3(), poly=poly, offset_A=1), 0.5)
    v3 = continuation_eval(make_plan(chi3(), poly=poly, offset_A=3), 0.5)
    # terms n = 1, 2 with P(n) = n(n+1)
    prefix = sum(
        float(chi3()(n)) * (2 * n + 1) * (n * (n + 1)) ** -0.5 for n in (1, 2)
    )
    assert abs(v1 - (v3 + prefix)) < 1e-10


def test_pole_detection_non_zero_sum():
    plan = make_plan(const_one(), roots=[0], leading_coeff=1)
    with pytest.raises(PoleError):
        continuation_eval(plan, 1)


def test_taylor_order_too_small():
    plan = make_plan(chi3(), poly=P(0, 1, 1), taylor_order_N=2)
    with pytest.raises(DomainError):
        continuation_eval(plan, -3)


def test_budget_exhaustion():
    plan = make_plan(chi3(), poly=P(0, 1, 1), tail_epsilon=1e-30, tail_max_terms=30)
    with pytest.raises(BudgetExceeded, match=r"last n=\d+, tail bound=\S+, rho_bound=\S+"):
        continuation_eval(plan, 0.5)


def test_make_plan_argument_validation():
    with pytest.raises(DomainError):
        make_plan(chi3())
    with pytest.raises(DomainError):
        make_plan(chi3(), poly=P(0, 1, 1), roots=[0, -1])
    for offset_A in (0, -3):
        with pytest.raises(DomainError, match="offset_A must be >= 1"):
            make_plan(chi3(), poly=P(0, 1, 1), offset_A=offset_A)
        with pytest.raises(DomainError, match="offset_A must be >= 1"):
            make_plan(chi3(), roots=[0, -1], offset_A=offset_A)


def test_plan_checks_its_own_contract():
    # a plan built directly rejects what make_plan rejects, with the same
    # message; in a child process with a time bound, because an unchecked
    # tail_epsilon=0 makes the remainder sum endless, and so did a scan of
    # X + 10^30 up to its Cauchy bound
    script = """
import json, math, time
from fractions import Fraction
from lfunpoly import ContinuationPlan, LfunpolyError, Polynomial, chi3, make_plan

def outcome(build):
    try:
        build()
    except LfunpolyError as exc:
        return [type(exc).__name__, str(exc)]

xx1 = Polynomial([0, 1, 1])
cases = [
    (xx1, {"offset_A": 0}),
    (xx1, {"tail_epsilon": 0.0}),
    (xx1, {"tail_epsilon": math.nan}),
    (xx1, {"tail_max_terms": -1}),
    (xx1, {"taylor_order_N": -1}),
    (Polynomial([Fraction(-11, 2), 1]), {}),
]
rejected = [
    [
        outcome(lambda: ContinuationPlan(chi3(), poly, **kw)),
        outcome(lambda: make_plan(chi3(), poly=poly, **kw)),
    ]
    for poly, kw in cases
]
start = time.perf_counter()
make_plan(chi3(), poly=Polynomial([10**30, 1]))
elapsed = time.perf_counter() - start
print(json.dumps([rejected, ContinuationPlan(chi3(), xx1) == make_plan(chi3(), poly=xx1), elapsed]))
"""
    rejected, same_plan, elapsed = json.loads(run_fresh(script, timeout=30))
    expected = [
        "offset_A must be >= 1",
        "tail_epsilon must be a finite number > 0",
        "tail_epsilon must be a finite number > 0",
        "tail_max_terms must be >= 0",
        "taylor_order_N must be >= 0",
        "polynomial not positive at n=1",
    ]
    assert rejected == [[["DomainError", detail]] * 2 for detail in expected]
    assert same_plan
    assert elapsed < 2.0


def test_continuation_eval_rejects_non_finite_s():
    plan = make_plan(chi3(), poly=P(0, 1, 1))
    for s in (math.nan, complex(0.5, math.inf), mp.mpc(mp.inf, 1)):
        with pytest.raises(DomainError, match="is not finite"):
            continuation_eval(plan, s)


def test_plan_from_roots_holds_the_exact_polynomial():
    assert make_plan(chi3(), roots=[0, -1]) == make_plan(chi3(), poly=P(0, 1, 1))
    # a conjugate pair expands in Fractions: (X - 1/2 - 3i/4)(X - 1/2 + 3i/4)
    plan = make_plan(chi3(), roots=[0.5 + 0.75j, 0.5 - 0.75j, -2], leading_coeff=Fraction(3, 2))
    assert plan.poly == P(2, 1) * P(Fraction(13, 16), -1, 1) * Fraction(3, 2)
    # a repeated non-real root is not its own conjugate; positivity counts from offset_A
    with pytest.raises(DomainError, match="no conjugate"):
        make_plan(chi3(), roots=[0.5 + 1j, 0.5 + 1j])
    assert make_plan(chi3(), roots=[5.5], offset_A=6).poly == P(Fraction(-11, 2), 1)


def test_eval_path_never_polishes_roots(monkeypatch, capsys):
    # the engine works from P's exact coefficients; refine_roots stays only
    # for the tests and perfbench/tracer.py
    def refuse(*args, **kwargs):
        raise AssertionError("refine_roots called")

    monkeypatch.setattr("lfunpoly.roots.refine_roots", refuse)
    plan = make_plan(chi3(), poly=P(5, 2, 0, 1))
    assert abs(continuation_eval(plan, 3) - direct_sum(chi3(), P(5, 2, 0, 1), 1, 3, epsilon=1e-12)) < 1e-10
    assert cli.main(["eval", "--chi", "chi3", "--poly", "5,2,0,1", "--s=0.5+2i"]) == 0
    assert capsys.readouterr().out


def test_far_point_at_working_precision():
    # 30 digits must match 50: the value took 4e-8 of error from 30-digit
    # Hurwitz values of the interior shifts
    poly, s = P(0, 1, 1, 5, 1), mp.mpc(0.5523, -56.5894)
    got = continuation_eval(make_plan(const_one(), poly=poly), s)
    ref = continuation_eval(make_plan(const_one(), poly=poly, dps=50), s)
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_large_imaginary_part():
    # reference: perfbench/oracle.l_value (Euler-Maclaurin per residue class on
    # the exact polynomial), which gives these digits at 26, 40 and 60 digits
    ref = 2.11927038100 - 39.8165206930j
    got = continuation_eval(make_plan(chi3(), poly=P(0, 1, 1)), 0.5 + 2000j)
    assert abs(got - ref) <= 1e-10 * abs(ref)


def test_degree_eight_at_negative_integer(chi3_table):
    # s = -2 = 1 - m with m = 3: the exact engine's value, real, in under 1 s
    poly = P(3, 1, 0, 2, 0, 0, 1, 0, 1)
    exact = float(l_negative(LValueRequest(chi3(), poly, 3), chi3_table))
    start = time.perf_counter()
    got = continuation_eval(make_plan(chi3(), poly=poly, tail_epsilon=1e-14), -2)
    assert time.perf_counter() - start < 1.0
    assert got.imag == 0
    assert abs(got.real - exact) <= 1e-12 * abs(exact)


def test_period_four_at_default_eps(capsys):
    # |value| ~ 1.9e13, so the CLI's default --eps 1e-12 asks for 25 digits;
    # reference: perfbench/oracle.l_value at 40 digits (the same at 60)
    ref = -18936170486467.21 - 2578409496565.9805j
    code = cli.main(["--format", "json", "eval", "--chi", "period=4;values=1/2,-1/3,0,-1/6",
                     "--poly", "4,3,0,8,5/3", "--s=-1.731+6.212i", "--max-terms", "20000"])
    assert code == 0
    value = json.loads(capsys.readouterr().out)[0]["value"]
    assert abs(complex(value["re"], value["im"]) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("coeffs, s", [((0, 1), 3), ((0, 0, 2), 3 + 1j), ((0, 0, 0, 1), 2 - 20j), ((0, 1), 100)])
def test_monomial_small_value_keeps_relative_digits(coeffs, s):
    # P = c X^d from A = 1000 has a value far below tail_epsilon (about 1e-9
    # for X at s = 3); its tail is taken relative to the first term, which
    # at s = 100 (1e-300 times 1e-33) is below the range of a double.
    # Reference: c^(1-s) d sum_{n >= A} chi3(n) n^-w from mpmath's Hurwitz
    # zeta minus the prefix, at 50 digits plus the Re w log10(A) it cancels
    poly, offset = P(*coeffs), 1000
    d, lead = poly.degree, coeffs[-1]
    got = continuation_eval(make_plan(chi3(), poly=poly, offset_A=offset), s)
    w = d * s - (d - 1)
    with mp.workdps(50 + int(w.real * math.log10(offset))):
        ref = complex(mp.power(lead, 1 - mp.mpmathify(s)) * d * interior_l_value_by_hurwitz(chi3(), w, offset))
    assert abs(ref) < 1e-8
    assert abs(got - ref) <= 1e-13 * abs(ref)


def test_far_left_within_budget():
    # reference: perfbench/oracle.l_value at 40 digits (the same at 60)
    ref = 339393271567.6227 - 151348922142.17383j
    plan = make_plan(chi3(), poly=P(0, 2, 1, 5, 1), tail_max_terms=1000)
    assert abs(continuation_eval(plan, -3.9654 - 0.1865j) - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("poly, offset_A", [("1,3,1", 1), ("1,-10,1", 10), ("0,1,1", 1)])
def test_real_s_gives_real_value(capsys, poly, offset_A):
    # real chi, real P and real s: the value is real, with no rounding noise
    # left in its imaginary part
    code = cli.main(["eval", "--chi", "chi3", "--poly", poly, "--A", str(offset_A), "--s=2"])
    assert code == 0
    assert capsys.readouterr().out.rstrip().endswith("+0i")


def test_positivity_from_offset(chi3_table):
    # X^2 - 10X + 1 is negative at n = 1..9: the numeric engine takes real
    # powers of P(n) and rejects it, the exact engine's integer powers do not
    poly = P(1, -10, 1)
    with pytest.raises(DomainError, match=r"polynomial not positive at n=1$"):
        make_plan(chi3(), poly=poly)
    with pytest.raises(DomainError, match=r"polynomial not positive at n=9$"):
        make_plan(chi3(), poly=poly, offset_A=9)
    plan = make_plan(chi3(), poly=poly, offset_A=10)
    ref = direct_sum(chi3(), poly, 10, 2.5, epsilon=1e-11)
    assert abs(continuation_eval(plan, 2.5) - ref) < 1e-9
    exact = l_negative(LValueRequest(chi3(), poly, 2, offset_A=10), chi3_table)
    assert abs(continuation_eval(plan, -1) - float(exact)) < 1e-9 * abs(float(exact))
    l_negative(LValueRequest(chi3(), poly, 2), chi3_table)


def test_interior_values_need_no_hurwitz(monkeypatch):
    # the interior L-values are summed directly: mpmath's Hurwitz zeta and
    # digamma stay for l_chi_numeric alone
    monomial = {
        (chi, s): 2 * 2 ** (1 - s) * l_chi_numeric(chi, 2 * s - 1)
        for chi in (chi3(), chi4(), const_one())
        for s in (-0.75, 0.25 + 3j, 2.5)
    }

    def unused(*args):
        raise AssertionError("Hurwitz zeta called")

    monkeypatch.setattr(continuation, "hurwitz_zeta", unused)
    monkeypatch.setattr(continuation, "_hurwitz_reg1", unused)
    for (chi, s), expected in monomial.items():
        plan = make_plan(chi, roots=[0, 0], leading_coeff=2)
        assert abs(continuation_eval(plan, s) - expected) < 1e-12 * max(1, abs(expected))
        assert cmath.isfinite(continuation_eval(make_plan(chi, poly=P(0, 1, 1)), s))


# -- direct summation oracle ------------------------------------------


def test_direct_sum_zero_function():
    zero = PeriodicFunction(2, (0, 0))
    assert direct_sum(zero, P(0, 1, 1), 1, 3.0) == 0


def test_direct_sum_needs_margin():
    with pytest.raises(ConvergenceError):
        direct_sum(chi3(), P(0, 1, 1), 1, 1.05)


def test_direct_sum_budget_exhaustion():
    with pytest.raises(BudgetExceeded, match=r"after \d+ terms: last n=\d+, tail bound=\S+"):
        direct_sum(chi3(), P(0, 1, 1), 1, 3.0, epsilon=1e-30, max_terms=30)


def test_direct_sum_zeta_check():
    # chi = 1, P = X gives zeta(s); compare at s = 3
    got = direct_sum(const_one(), P(0, 1), 1, 3.0, epsilon=1e-10)
    assert abs(got - 1.2020569031595943) < 1e-9
