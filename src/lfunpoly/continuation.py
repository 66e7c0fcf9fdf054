"""Numeric evaluation of the series attached to (chi, P) anywhere in C.

Strategy: through the roots a_j of P, and since P'/P = sum_j 1/(n - a_j),
P'(n) P(n)^(-s) is lead^(1-s) n^(-(d s - (d-1))) times one power series
in x = 1/n, B(x) sum_j 1/(1 - x a_j) with B(x) = prod_j (1 - x a_j)^(-(s-1)).
B's coefficients come from the recurrence of its logarithmic derivative and
the second factor's from the power sums of the roots.  Cut at order N, the
series turns the value into a finite combination of shifted classical
L-values of chi plus a rapidly convergent remainder sum.  The classical
L-values are computed from mpmath's Hurwitz zeta function (Johansson,
arXiv:1309.2877) and digamma function.

All internal arithmetic runs in mpmath working precision (default 30
digits): several acceptance checks are absolute comparisons at 1e-8 on
values of magnitude up to ~1e7, which plain doubles cannot honor through
the cancellation-heavy regrouped sum.  Results are returned as complex
doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from mpmath import mp

from .errors import (
    BudgetExceeded,
    ConvergenceError,
    DomainError,
    InvalidPolynomial,
    PoleError,
)
from .periodic import PeriodicFunction
from .polynomials import Polynomial
from .roots import find_roots

DEFAULT_DPS = 30

# the automatic Taylor order makes the remainder tail decay at least like
# n^(-TAIL_DECAY_EXPONENT)
TAIL_DECAY_EXPONENT = 12


# -- Hurwitz zeta from mpmath -----------------------------------------


def hurwitz_zeta(s, a):
    """zeta(s, a) for a in (0, 1], continued to all s != 1 (mpmath's zeta)."""
    s = mp.mpmathify(s)
    a = mp.mpmathify(a)
    if s == 1:
        raise PoleError("Hurwitz zeta has a pole at s = 1")
    if not (0 < a <= 1):
        raise DomainError("offset a must lie in (0, 1]")
    return mp.zeta(s, a)


def _hurwitz_reg1(a):
    """lim_{s->1} (zeta(s, a) - 1/(s-1)) = -digamma(a); the pole term is dropped."""
    return -mp.digamma(mp.mpmathify(a))


def _chi_mp(chi: PeriodicFunction, n: int):
    v = chi(n)
    return mp.mpf(v.numerator) / v.denominator


def _l_chi_mp(chi: PeriodicFunction, s):
    """L-value of chi at s via period splitting into Hurwitz zetas."""
    N = chi.period
    s = mp.mpmathify(s)
    if s == 1:
        if not chi.zero_sum:
            raise PoleError("pole at s = 1 for a non-zero-sum periodic function")
        # the 1/(s-1) pole terms cancel across the period; sum the limits
        total = mp.mpc(0)
        for a in range(1, N + 1):
            c = chi(a)
            if c != 0:
                total += _chi_mp(chi, a) * _hurwitz_reg1(mp.mpf(a) / N)
        return total / N
    total = mp.mpc(0)
    for a in range(1, N + 1):
        c = chi(a)
        if c != 0:
            total += _chi_mp(chi, a) * hurwitz_zeta(s, mp.mpf(a) / N)
    return mp.power(N, -s) * total


def l_chi_numeric(chi: PeriodicFunction, s, dps: int = DEFAULT_DPS) -> complex:
    """Value of the continued classical L-function of chi at s."""
    with mp.workdps(dps):
        return complex(_l_chi_mp(chi, s))


# -- Taylor series of the summand in x = 1/n --------------------------


def _product_taylor(roots, svec, upto):
    """Coefficients c_0 ... c_upto of prod_j (1 - x a_j)^(-s_j).

    The logarithmic derivative of the product is sum_k q_k x^(k-1) with
    q_k = sum_j s_j a_j^k, so c_0 = 1 and n c_n = sum_{k=1..n} q_k c_{n-k}.
    """
    q = [mp.fsum(s * a**k for a, s in zip(roots, svec)) for k in range(upto + 1)]
    c = [mp.mpc(1)]
    for n in range(1, upto + 1):
        c.append(mp.fdot(q[1 : n + 1], reversed(c)) / n)
    return c


def _summand_taylor(roots, s, upto):
    """Coefficients of prod_j (1 - x a_j)^(-(s-1)) * sum_j 1/(1 - x a_j) to x^upto.

    Times lead^(1-s) n^(-(d s - (d-1))), at x = 1/n, this is P'(n) P(n)^(-s).
    """
    b = _product_taylor(roots, [s - 1] * len(roots), upto)
    p = [mp.fsum(a**k for a in roots) for k in range(upto + 1)]
    return [mp.fdot(p[: ell + 1], reversed(b[: ell + 1])) for ell in range(upto + 1)]


# -- continuation evaluator -------------------------------------------


@dataclass(frozen=True)
class ContinuationPlan:
    """Everything needed to evaluate the (chi, P) series at arbitrary s.

    ``roots`` and ``leading_coeff`` describe P; ``offset_A`` is the first
    summation index of the object being computed (the full series has
    offset 1).  ``taylor_order_N`` of None means: choose automatically
    from the degree d and sigma = Re(s) as
    ``max(d * (ceil(max(0, 2 - sigma)) + 2),
    ceil(TAIL_DECAY_EXPONENT - 1 + d * (1 - sigma)))``,
    so the remainder terms decay like n^(-(d(sigma - 1) + N + 2)) and
    their tail like n^(-TAIL_DECAY_EXPONENT) or faster.
    """

    chi: PeriodicFunction
    roots: Tuple  # complex doubles or higher-precision mpmath numbers
    leading_coeff: Fraction = Fraction(1)
    offset_A: int = 1
    taylor_order_N: Optional[int] = None
    tail_epsilon: float = 1e-14
    tail_max_terms: int = 200_000
    dps: int = DEFAULT_DPS


def make_plan(
    chi: PeriodicFunction,
    poly: Optional[Polynomial] = None,
    roots: Optional[Sequence[complex]] = None,
    leading_coeff=None,
    **kwargs,
) -> ContinuationPlan:
    """Build a plan from either a rational polynomial or explicit roots."""
    from .special_values import validate_poly

    if (poly is None) == (roots is None):
        raise DomainError("give exactly one of poly or roots")
    if kwargs.get("offset_A", 1) < 1:
        raise DomainError("offset_A must be >= 1")
    if poly is not None:
        from .roots import refine_roots

        validate_poly(poly)
        leading_coeff = Fraction(poly.leading())
        dps = kwargs.get("dps", DEFAULT_DPS)
        roots = refine_roots(poly, find_roots(poly), dps)
    else:
        leading_coeff = Fraction(leading_coeff) if leading_coeff is not None else Fraction(1)
        if leading_coeff <= 0:
            raise InvalidPolynomial("leading coefficient must be positive")
    return ContinuationPlan(
        chi=chi,
        roots=tuple(roots),
        leading_coeff=leading_coeff,
        **kwargs,
    )


def _auto_taylor_order(d: int, sigma) -> int:
    sigma = float(sigma)
    return max(
        d * (math.ceil(max(0.0, 2.0 - sigma)) + 2),
        math.ceil(TAIL_DECAY_EXPONENT - 1 + d * (1.0 - sigma)),
    )


def _monic_from_roots(roots):
    coeffs = [mp.mpc(1)]
    for a in roots:
        coeffs = [mp.mpc(0)] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= a * coeffs[i + 1]
    return coeffs  # lowest first, leading 1


def _working_offset(plan: ContinuationPlan, roots_mp) -> int:
    maxabs = max(abs(a) for a in roots_mp)
    coeffs = _monic_from_roots(roots_mp)
    cauchy = 1 + max(abs(c) for c in coeffs[:-1])
    a_w = max(plan.offset_A, int(mp.ceil(2 * maxabs)), int(mp.floor(cauchy)) + 1)
    return a_w


def _interior_l_value(chi, w, offset):
    """L-value of chi at w with the first offset-1 terms removed."""
    value = _l_chi_mp(chi, w)
    for n in range(1, offset):
        c = chi(n)
        if c != 0:
            value -= _chi_mp(chi, n) * mp.power(n, -w)
    return value


def continuation_eval(plan: ContinuationPlan, s) -> complex:
    """Evaluate the (chi, P) series with offset plan.offset_A at s."""
    with mp.workdps(plan.dps):
        return complex(_continuation_mp(plan, mp.mpmathify(s)))


def _continuation_mp(plan: ContinuationPlan, s):
    chi = plan.chi
    roots_mp = [mp.mpc(a) for a in plan.roots]
    d = len(roots_mp)
    if d < 1:
        raise InvalidPolynomial("need at least one root (degree >= 1)")
    lead = mp.mpf(plan.leading_coeff.numerator) / plan.leading_coeff.denominator
    scale = mp.power(lead, 1 - s)

    if all(a == 0 for a in roots_mp):
        # P = c X^d reduces to the classical L-function directly
        w = d * s - (d - 1)
        return scale * d * _interior_l_value(chi, w, plan.offset_A)

    a_w = _working_offset(plan, roots_mp)
    sigma = mp.re(s)
    order_n = (
        plan.taylor_order_N
        if plan.taylor_order_N is not None
        else _auto_taylor_order(d, sigma)
    )
    if sigma <= 1 - (order_n + 1) / d:
        raise DomainError(
            f"taylor_order_N={order_n} too small for Re(s)={float(sigma)}"
        )

    coeffs = _summand_taylor(roots_mp, s, order_n)
    total = mp.mpc(0)
    for ell, coeff in enumerate(coeffs):
        w = d * s - (d - 1) + ell
        if w == 1 and not chi.zero_sum:
            raise PoleError(
                f"interior argument hits the pole at 1 (ell={ell}); "
                "shift s or use a zero-sum chi"
            )
        total += coeff * _interior_l_value(chi, w, a_w)

    # remainder sum over n >= a_w, with an integral-comparison stopping rule
    w0 = d * s - (d - 1) + order_n + 1
    sigma0 = mp.re(w0)
    chi_max = float(chi.max_abs())
    rho_bound = mp.mpf(0)
    remainder = mp.mpc(0)
    n = a_w
    while True:
        block_end = n + chi.period
        while n < block_end:
            c = chi(n)
            if c != 0:
                # product and partial agree to O(x^{N+1}); add digits so the
                # division by x^{N+1} does not amplify rounding noise
                extra = int((order_n + 1) * math.log10(n)) + 10
                with mp.extradps(extra):
                    x = mp.mpf(1) / n
                    base = mp.mpc(1)
                    for a in roots_mp:
                        base *= mp.power(1 - x * a, -(s - 1))
                    product = base * mp.fsum(1 / (1 - x * a) for a in roots_mp)
                    partial = mp.fsum(ck * x**k for k, ck in enumerate(coeffs))
                    rho_sum = (product - partial) / x ** (order_n + 1)
                rho_sum = +rho_sum
                rho_bound = max(rho_bound, abs(rho_sum))
                remainder += _chi_mp(chi, n) * mp.power(n, -w0) * rho_sum
            n += 1
        bound = chi_max * rho_bound * mp.power(n, 1 - sigma0) / (sigma0 - 1)
        if bound < plan.tail_epsilon:
            break
        if n - a_w > plan.tail_max_terms:
            raise BudgetExceeded(
                f"remainder tail not below {plan.tail_epsilon} after "
                f"{n - a_w} terms: last n={n - 1}, tail bound="
                f"{mp.nstr(bound, 3)}, rho_bound={mp.nstr(rho_bound, 3)}"
            )
    total += remainder

    # fold the excluded prefix back so the result has offset plan.offset_A
    for k in range(plan.offset_A, a_w):
        c = chi(k)
        if c == 0:
            continue
        factors = [k - a for a in roots_mp]
        qk = mp.mpc(1)
        for f in factors:
            if f == 0:
                raise InvalidPolynomial(f"polynomial vanishes at n={k}")
            qk *= f
        dqk = qk * mp.fsum(1 / f for f in factors)
        total += _chi_mp(chi, k) * dqk * mp.power(qk, -s)
    return scale * total


# -- direct summation oracle ------------------------------------------


def direct_sum(
    chi: PeriodicFunction,
    poly: Polynomial,
    offset_A: int,
    s: complex,
    epsilon: float = 1e-10,
    max_terms: int = 10_000_000,
    margin: float = 0.1,
) -> complex:
    """Partial sum of the defining series on its convergence half-plane.

    Plain double arithmetic: this is the independent oracle for the
    continuation evaluator, kept deliberately naive.
    """
    s = complex(s)
    if s.real <= 1 + margin:
        raise ConvergenceError(f"need Re(s) > {1 + margin}")
    d = poly.degree
    if d < 1:
        raise InvalidPolynomial("need degree >= 1")
    coeffs = [float(Fraction(c)) for c in poly.coeffs]
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]

    def horner(cs, x):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    w = d * s.real - (d - 1)
    total = 0.0 + 0.0j
    n = offset_A
    block_max = 0.0
    while True:
        block_end = n + chi.period
        block_max = 0.0
        while n < block_end:
            c = chi(n)
            if c != 0:
                pn = horner(coeffs, float(n))
                if pn <= 0:
                    raise DomainError(f"polynomial not positive at n={n}")
                term = float(c) * horner(dcoeffs, float(n)) * math.exp(
                    -s.real * math.log(pn)
                ) * complex(
                    math.cos(-s.imag * math.log(pn)),
                    math.sin(-s.imag * math.log(pn)),
                )
                total += term
                block_max = max(block_max, abs(term))
            n += 1
        tail_bound = 2.0 * block_max * n / (w - 1)
        if tail_bound < epsilon:
            return total
        if n - offset_A > max_terms:
            raise BudgetExceeded(
                f"direct sum tail not below {epsilon} after {n - offset_A} "
                f"terms: last n={n - 1}, tail bound={tail_bound:.3g}"
            )
