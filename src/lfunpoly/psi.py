"""The moment form attached to a periodic function.

For chi of period N, the moments are defined by the power-series identity

    t * sum_{n=1..N} chi(n) e^{nt} / (1 - e^{Nt})  =  - sum_m mu_m t^m / m!

where mu_m is the value of the form on X^m.  All downstream signs derive
from this convention; nothing re-chooses a sign locally.

The moments are the generalized Bernoulli numbers
mu_m = B_{m,chi} = N^(m-1) sum_a chi(a) B_m(a/N), computed on Python
integers as

    mu_m = sum_k C(m,k) B_k N^(k-1) S_{m-k},   S_j = sum_{a=1..N} chi(a) a^j,

with the Bernoulli numbers B_k (B_1 = -1/2) from the integer tangent-number
recurrence of Brent and Harvey (arXiv:1108.0286).  The table keeps the
integer numerators of all mu_m over one common denominator D, so the form on
a polynomial q = (sum_k c_k X^k) / den with integer c_k is one integer dot
product: Psi(q) = (sum_k c_k numerators[k]) / (den * D), a single Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, mul
from typing import List, Tuple

from .errors import DegreeOverflow, DomainError
from .periodic import PeriodicFunction
from .polynomials import Polynomial, clear_denominators

# Unused here, but perfbench/tracer.py wraps ``psi.series_divide`` by name for
# its series.divide span, so the name must stay importable from this module.
from .series import series_divide  # noqa: F401


@dataclass(frozen=True)
class PsiTable:
    """Moments mu_m = numerators[m] / denominator for m = 0 ... max_degree."""

    chi: PeriodicFunction
    max_degree: int
    numerators: Tuple[int, ...]
    denominator: int

    @cached_property
    def moments(self) -> Tuple[Fraction, ...]:
        """The moments as reduced Fractions, built on first use."""
        return tuple(Fraction(n, self.denominator) for n in self.numerators)


def _tangent_numbers(n: int) -> List[int]:
    """T_1 ... T_n (index 0 unused), the coefficients of tan x = sum T_k x^(2k-1)/(2k-1)!."""
    t = [0] * (n + 1)
    if n:
        t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _bernoulli_numbers(max_degree: int) -> List[Fraction]:
    """B_0 ... B_max_degree, with B_1 = -1/2 and B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))."""
    b = [Fraction(0)] * (max_degree + 1)
    b[0] = Fraction(1)
    if max_degree >= 1:
        b[1] = Fraction(-1, 2)
    tangent = _tangent_numbers(max_degree // 2)
    for k in range(1, max_degree // 2 + 1):
        four_k = 1 << (2 * k)
        b[2 * k] = Fraction((-1) ** (k - 1) * 2 * k * tangent[k], four_k * (four_k - 1))
    return b


def psi_table(chi: PeriodicFunction, max_degree: int) -> PsiTable:
    """The moments mu_0 ... mu_max_degree as generalized Bernoulli numbers.

    Every mu_m is one integer sum over the common denominator
    N * lcm(den B_k) * lcm(den chi); the table keeps those sums unreduced.
    """
    if max_degree < 0:
        raise DomainError("max_degree must be >= 0")
    N = chi.period
    chi_den = lcm(*(v.denominator for v in chi.values))
    bernoulli = _bernoulli_numbers(max_degree)
    b_den = lcm(*(b.denominator for b in bernoulli))
    # B_k N^k over b_den; only k = 0, 1 and even k contribute
    scaled_b = [
        (k, b.numerator * (b_den // b.denominator) * N**k) for k, b in enumerate(bernoulli) if b
    ]
    # S_j over chi_den
    power_sums = [0] * (max_degree + 1)
    for a, v in enumerate(chi.values, 1):
        c = v.numerator * (chi_den // v.denominator)
        if c:
            for j in range(max_degree + 1):
                power_sums[j] += c
                c *= a
    numerators = []
    binomials = [1]  # row m of Pascal's triangle
    for m in range(max_degree + 1):
        if m:
            binomials = [1, *map(add, binomials, binomials[1:]), 1]
        total = 0
        for k, bk in scaled_b:
            if k > m:
                break
            total += binomials[k] * bk * power_sums[m - k]
        numerators.append(total)
    return PsiTable(chi, max_degree, tuple(numerators), N * b_den * chi_den)


def psi_apply(table: PsiTable, q: Polynomial) -> Fraction:
    """Apply the linear form to a polynomial with int/Fraction coefficients."""
    if q.degree > table.max_degree:
        raise DegreeOverflow(
            f"degree {q.degree} exceeds table degree {table.max_degree}"
        )
    ints, den = clear_denominators(q.coeffs)
    return Fraction(sum(map(mul, ints, table.numerators)), den * table.denominator)
