"""Numeric evaluation of the series attached to (chi, P) anywhere in C.

Strategy: the head A <= n < M is summed directly, chi(n) P'(n) P(n)^-s,
with Horner on the monic Q = P/lead from P's exact coefficients.  Past the
cut M, P'(n) P(n)^-s is lead^(1-s) n^-w, w = d s - (d-1), times
a power series in x = 1/n, S(x) = (d R - x R') R^-s with R(x) = x^d Q(1/x)
= prod_j (1 - x a_j).  Cut at order N, it turns the tail into N+1 shifted
tails sum_{n >= M} chi(n) n^-(w+ell), each summed per residue class by
Euler-Maclaurin, plus a remainder sum that decays like n^-(w+N+1).  Each
shift's Euler-Maclaurin order follows Johansson's bound (arXiv:1309.2877)
against its share of tail_epsilon, weighted by its Taylor coefficient, and
M is the least cut at which every shift's bound gets there.  For P = c X^d
there is no remainder, and the one tail is taken to 10^-(dps+3) of its
first term, whatever tail_epsilon.  mpmath's Hurwitz zeta and digamma
remain for the classical L-values of l_chi_numeric, an independent check.

Arithmetic runs in mpmath at the working precision (default 30 digits)
plus what each part cancels: (1 - Re w) log10(M) digits for the head and
the tails, (N+1) log10(M) for the Taylor coefficients and the remainder.
P has rational coefficients, so for real s it is real arithmetic, and the
value is real.  Results are returned as complex doubles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp

from .errors import (
    BudgetExceeded,
    ConvergenceError,
    DomainError,
    InvalidPolynomial,
    PoleError,
)
from .periodic import PeriodicFunction
from .polynomials import Polynomial, clear_denominators
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


def _summand_taylor(monic, s, upto):
    """Coefficients c_0 ... c_upto of S(x) = (d R(x) - x R'(x)) R(x)^-s.

    R(x) = x^d Q(1/x) for the monic Q with coefficients ``monic`` (lowest
    first), so at x = 1/n, n^-(d s - (d-1)) S(x) = Q'(n) Q(n)^-s.  The
    coefficients g of R^-s follow from R g' = -s R' g at O(d) each.  Plain
    arithmetic: complex doubles or mpmath numbers alike.
    """
    d = len(monic) - 1
    r = monic[::-1]
    g = [1]
    for n in range(1, upto + 1):
        g.append(sum((-s * i - (n - i)) * r[i] * g[n - i] for i in range(1, min(d, n) + 1)) / n)
    return [sum((d - i) * r[i] * g[ell - i] for i in range(min(d, ell) + 1)) for ell in range(upto + 1)]


# -- continuation evaluator -------------------------------------------


@dataclass(frozen=True)
class ContinuationPlan:
    """Everything needed to evaluate the (chi, P) series at arbitrary s.

    ``poly`` is P, with int or Fraction coefficients, positive from
    ``offset_A`` on; ``offset_A`` is the first summation index of the object
    being computed (the full series has offset 1).  ``taylor_order_N`` of
    None means: choose automatically from the degree d and sigma = Re(s) as
    ``max(d * (ceil(max(0, 2 - sigma)) + 2),
    ceil(TAIL_DECAY_EXPONENT - 1 + d * (1 - sigma)))``,
    so the remainder terms decay like n^(-(d(sigma - 1) + N + 2)) and
    their tail like n^(-TAIL_DECAY_EXPONENT) or faster.  ``tail_epsilon`` is
    an absolute target, a finite number > 0, for the part past the cut:
    the remainder sum stops once its bound is below it, and the
    Euler-Maclaurin tails share an eighth of it (for P = c X^d the tail is
    taken relative to its first term instead).  ``tail_max_terms`` caps the
    remainder's terms.
    """

    chi: PeriodicFunction
    poly: Polynomial
    offset_A: int = 1
    taylor_order_N: Optional[int] = None
    tail_epsilon: float = 1e-14
    tail_max_terms: int = 200_000
    dps: int = DEFAULT_DPS


def _poly_from_roots(roots: Sequence[complex], leading_coeff) -> Polynomial:
    """lead * prod_j (X - a_j) with exact rational coefficients.

    A real double a gives X - a; a non-real a needs its conjugate in the
    list, and the pair gives X^2 - 2 Re(a) X + |a|^2.
    """
    poly = Polynomial([Fraction(leading_coeff)])
    rest = [complex(a) for a in roots]
    while rest:
        a = rest.pop()
        re = Fraction(a.real)
        if a.imag == 0:
            poly = poly * Polynomial([-re, 1])
        elif a.conjugate() in rest:
            rest.remove(a.conjugate())
            poly = poly * Polynomial([re * re + Fraction(a.imag) ** 2, -2 * re, 1])
        else:
            raise DomainError(f"root {a} has no conjugate among the roots: P must be real")
    return poly


def make_plan(
    chi: PeriodicFunction,
    poly: Optional[Polynomial] = None,
    roots: Optional[Sequence[complex]] = None,
    leading_coeff=1,
    **kwargs,
) -> ContinuationPlan:
    """Build a plan from either a rational polynomial or explicit roots.

    Roots are expanded once into the exact P = leading_coeff prod_j (X - a_j),
    so they must be closed under conjugation; either way P must be positive
    at every n >= offset_A.
    """
    from .special_values import validate_poly

    if (poly is None) == (roots is None):
        raise DomainError("give exactly one of poly or roots")
    if kwargs.get("offset_A", 1) < 1:
        raise DomainError("offset_A must be >= 1")
    if not 0 < kwargs.get("tail_epsilon", 1) < math.inf:
        raise DomainError("tail_epsilon must be a finite number > 0")
    if kwargs.get("tail_max_terms", 0) < 0:
        raise DomainError("tail_max_terms must be >= 0")
    if roots is not None:
        poly = _poly_from_roots(roots, leading_coeff)
    validate_poly(poly)
    # P(n)^-s is a real power: P must be positive from offset_A on, and
    # past the Cauchy bound 1 + max|c_k| / lead it has no real root
    ints, _ = clear_denominators(poly.coeffs)
    for k in range(kwargs.get("offset_A", 1), 2 + max(map(abs, ints)) // ints[-1]):
        if reduce(lambda acc, c: acc * k + c, reversed(ints)) < 0:
            raise DomainError(f"polynomial not positive at n={k}")
    return ContinuationPlan(chi=chi, poly=poly, **kwargs)


def _auto_taylor_order(d: int, sigma) -> int:
    sigma = float(sigma)
    return max(
        d * (math.ceil(max(0.0, 2.0 - sigma)) + 2),
        math.ceil(TAIL_DECAY_EXPONENT - 1 + d * (1.0 - sigma)),
    )


def _growth_digits(w0, cut) -> int:
    """Digits that the cancellation of terms of size up to cut^-Re(w0) costs."""
    return int(max(0.0, 1 - float(mp.re(w0))) * math.log10(cut)) + 5


def _interior_l_values(chi, w0, tolerances, offset):
    """(M, [sum_{n >= M} chi(n) n^-(w0+ell) for each tolerance]), continued in w.

    Each residue class m in [M, M+N) is summed by Euler-Maclaurin on
    k -> (m + N k)^-w,

        m^-w [m/(N(w-1)) + 1/2 + sum_{j<=J} B_2j/(2j)! (w)_{2j-1} (N/m)^(2j-1)],

    with -m log(m)/N as the integral term at w = 1, which the callers allow
    only for zero-sum chi (the 1/(N(w-1)) parts cancel over the period).  For
    every shift, Johansson's bound (arXiv:1309.2877) on one class,

        |R_J| <= 4 |(w)_{2J}| N^(2J-1) M^(1-Re w-2J) / ((2 pi)^(2J) (Re w+2J-1)),

    must fall below that shift's absolute tolerance (math.inf: any order)
    before it grows; J is the first order that gets there.  M is the least
    such cut >= offset, in steps of N.  The sums carry the digits a head from
    1 to M would cancel against them.
    """
    N = chi.period
    ws = [w0 + ell for ell in range(len(tolerances))]
    log_tols = [float(mp.log(tol)) for tol in tolerances]  # tolerances may leave float range

    def orders(cut):
        # in logs: the J-dependent part of the bound against the tolerance
        # over the rest; None if some shift's bound grows first
        ratio = 2 * math.log(N / (2 * math.pi * cut))
        js = []
        for w, log_tol in zip(map(complex, ws), log_tols):
            target = log_tol - math.log(4 / N) - (1 - w.real) * math.log(cut)
            log_poch, last = 0.0, math.inf
            for j in itertools.count(1):
                f = abs(w + 2 * j - 2) * abs(w + 2 * j - 1)
                if f == 0:
                    break  # (w)_{2j} = 0: the series terminates
                log_poch += math.log(f) + ratio
                if w.real + 2 * j - 1 <= 0:
                    continue
                bound = log_poch - math.log(w.real + 2 * j - 1)
                if bound <= target:
                    break
                if not bound < last:  # growing, or overflowed to inf at huge |w|
                    return None
                last = bound
            js.append(j)
        return js

    cut = offset
    while (js := orders(cut)) is None:
        cut += N
        if cut > offset + (N << 14):
            raise ConvergenceError(f"no Euler-Maclaurin cut up to n={cut} for w0={w0}")

    with mp.extradps(_growth_digits(w0, cut)):
        values = [0] * len(ws)
        # after the factors of the integral and of f(m)/2, (w)_{2j-1} for
        # j <= J, shared by every class: (w)_{2j+1} = (w)_{2j-1} g_j with
        # g_j = (w+2j-1)(w+2j) = g_{j-1} + 4w + 8j - 6
        pochhammers = []
        for w, j_max in zip(ws, js):
            p, g, dg = [1 / (w - 1) if w != 1 else 0, mp.mpf(1) / 2, w], (w + 1) * (w + 2), 4 * w - 6
            for j in range(2, j_max + 1):
                p.append(p[-1] * g)
                g += dg + 8 * j
            pochhammers.append(p)
        bern = [mp.bernoulli(2 * j) / mp.factorial(2 * j) for j in range(1, max(js) + 1)]
        for m in range(cut, cut + N):
            if chi(m) != 0:
                q = mp.mpf(N) / m
                weights, power = [1 / q, 1], q  # then B_2j/(2j)! (N/m)^(2j-1)
                for b in bern:
                    weights.append(b * power)
                    power *= q * q
                scale, step = _chi_mp(chi, m) * mp.power(m, -w0), mp.mpf(1) / m
                for ell, w in enumerate(ws):
                    tail = mp.fdot(pochhammers[ell], weights)
                    if w == 1:
                        tail -= mp.log(m) / q
                    values[ell] += scale * tail
                    scale *= step
    return cut, values


def continuation_eval(plan: ContinuationPlan, s) -> complex:
    """Evaluate the (chi, P) series with offset plan.offset_A at s."""
    with mp.workdps(plan.dps):
        return complex(_continuation_mp(plan, mp.mpmathify(s)))


def _continuation_mp(plan: ContinuationPlan, s):
    chi = plan.chi
    d = plan.poly.degree
    if mp.im(s) == 0:
        s = mp.re(s)
    lead = Fraction(plan.poly.leading())
    monic = [Fraction(c) / lead for c in plan.poly.coeffs]  # Q = P / lead, exact
    scale = mp.power(mp.mpf(lead.numerator) / lead.denominator, 1 - s)
    w0 = d * s - (d - 1)
    sigma = mp.re(s)
    monomial = not any(monic[:-1])
    if monomial:
        order_n = 0  # P = c X^d: the summand is d n^-w0, with no remainder
    else:
        order_n = (
            plan.taylor_order_N
            if plan.taylor_order_N is not None
            else _auto_taylor_order(d, sigma)
        )
        if sigma <= 1 - (order_n + 1) / d:
            raise DomainError(
                f"taylor_order_N={order_n} too small for Re(s)={float(sigma)}"
            )
    for ell in range(order_n + 1):
        if w0 + ell == 1 and not chi.zero_sum:
            raise PoleError(
                f"interior argument hits the pole at 1 (ell={ell}); "
                "shift s or use a zero-sum chi"
            )

    # past twice the roots and the Cauchy bound, |a_j / n| <= 1/2 and P(n) > 0
    radius = max(map(abs, find_roots(plan.poly)))
    a_w = max(plan.offset_A, math.ceil(2 * radius), int(1 + max(map(abs, monic[:-1]))) + 1)
    chi_max = float(chi.max_abs())
    if monomial:
        # the value is scale d L(w0): its tail to 10^-(dps+3) of the first term
        tolerances = [mp.mpf(10) ** -(mp.dps + 3) * mp.power(plan.offset_A, -mp.re(w0))]
    else:
        # each shift's tail past the cut gets 1/(8 (N+1)) of tail_epsilon over
        # the period, weighted by its Taylor coefficient c_ell (in doubles)
        weight = 8 * (order_n + 1) * chi.period * chi_max * abs(scale)
        tolerances = [
            plan.tail_epsilon / (weight * abs(c)) if weight * abs(c) else math.inf
            for c in _summand_taylor(list(map(float, monic)), complex(s), order_n)
        ]
    cut, tails = _interior_l_values(chi, w0, tolerances, a_w)
    sigma_rem = mp.re(w0) + order_n + 1

    # Taylor coefficients with the digits that (summand - partial) / x^(N+1)
    # cancels at n = cut
    extra = int((order_n + 1) * math.log10(cut)) + 10
    with mp.extradps(extra):
        monic = [mp.mpf(c.numerator) / c.denominator for c in monic]
        coeffs = _summand_taylor(monic, s, order_n)

    def summand(n):  # Q'(n) Q(n)^-s for Q = P / lead
        q = dq = 0
        for c in reversed(monic):
            dq = dq * n + q
            q = q * n + c
        if q == 0:
            raise InvalidPolynomial(f"polynomial vanishes at n={n}")
        return dq * mp.power(q, -s)

    with mp.extradps(_growth_digits(w0, cut)):
        head = mp.fsum(_chi_mp(chi, n) * summand(n) for n in range(plan.offset_A, cut) if chi(n) != 0)
        total = head + mp.fdot(coeffs, tails)

    # remainder sum over n >= cut, with an integral-comparison stopping rule
    rho_bound = mp.mpf(0)
    remainder = 0
    n = cut
    while not monomial:
        block_end = n + chi.period
        with mp.extradps(extra):
            while n < block_end:
                if chi(n) != 0:
                    partial, x = 0, mp.mpf(1) / n
                    for c in reversed(coeffs):
                        partial = partial * x + c
                    power = mp.power(n, -w0)
                    term = summand(n) - power * partial  # n^-w0 x^(N+1) rho(x)
                    rho_bound = max(rho_bound, abs(term) * mp.power(n, sigma_rem))
                    remainder += _chi_mp(chi, n) * term
                n += 1
        bound = chi_max * rho_bound * mp.power(n, 1 - sigma_rem) / (sigma_rem - 1)
        if bound < plan.tail_epsilon:
            break
        if n - cut > plan.tail_max_terms:
            raise BudgetExceeded(
                f"remainder tail not below {plan.tail_epsilon} after "
                f"{n - cut} terms: last n={n - 1}, tail bound="
                f"{mp.nstr(bound, 3)}, rho_bound={mp.nstr(rho_bound, 3)}"
            )
    return scale * (total + remainder)


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
