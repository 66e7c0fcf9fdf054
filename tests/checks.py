"""Exact identity checkers and Taylor-series references used by the tests.

They check the engines against identities the paper proves and are not
part of the package's API.
"""

from fractions import Fraction
from typing import Sequence

from mpmath import mp

from lfunpoly import (
    DegreeOverflow,
    DomainError,
    InvalidPolynomial,
    LValueRequest,
    PeriodicFunction,
    Polynomial,
    PsiTable,
    l_negative,
    psi_apply,
)
from lfunpoly.continuation import _product_taylor


def check_shift_identity(table: PsiTable, e: Polynomial) -> bool:
    """Exact check of the period-shift identity for the polynomial e.

    Applying the form to e(N+X) minus applying it to e must equal
    sum_{n=1..N} chi(n) e'(n).
    """
    chi = table.chi
    if e.degree > table.max_degree:
        raise DegreeOverflow(
            f"degree {e.degree} exceeds table degree {table.max_degree}"
        )
    lhs = psi_apply(table, e.shift(chi.period)) - psi_apply(table, e)
    de = e.derivative()
    rhs = sum((chi(n) * de(Fraction(n)) for n in range(1, chi.period + 1)), Fraction(0))
    return lhs == rhs


def a_offset_consistency(
    chi: PeriodicFunction,
    poly: Polynomial,
    table: PsiTable,
    m: int,
    a1: int,
    a2: int,
) -> bool:
    """Exact check that changing the offset only shifts by a finite sum."""
    if a1 > a2:
        raise InvalidPolynomial("need a1 <= a2")
    v1 = l_negative(LValueRequest(chi, poly, m, offset_A=a1), table)
    v2 = l_negative(LValueRequest(chi, poly, m, offset_A=a2), table)
    dp = poly.derivative()
    middle = Fraction(0)
    for n in range(a1, a2):
        c = chi(n)
        if c != 0:
            middle += c * dp(Fraction(n)) * poly(Fraction(n)) ** (m - 1)
    return v1 == v2 + middle


def scaling_identity_check(
    chi: PeriodicFunction,
    poly: Polynomial,
    c: Fraction,
    m: int,
    table: PsiTable,
) -> bool:
    """Check value(c*P, 1-m) = c^m * value(P, 1-m), exactly."""
    c = Fraction(c)
    if c <= 0:
        raise InvalidPolynomial("scale factor must be positive")
    scaled = poly * c
    lhs = l_negative(LValueRequest(chi, scaled, m), table)
    rhs = c**m * l_negative(LValueRequest(chi, poly, m), table)
    return lhs == rhs


def taylor_coefficient(ell: int, roots: Sequence[complex], svec: Sequence[complex]) -> complex:
    """Order-ell Taylor coefficient of the product of root factors."""
    if ell < 0:
        raise DomainError("ell must be non-negative")
    roots_mp = [mp.mpc(a) for a in roots]
    svec_mp = [mp.mpc(s) for s in svec]
    return complex(_product_taylor(roots_mp, svec_mp, ell)[ell])


def taylor_remainder(
    x: float,
    roots: Sequence[complex],
    svec: Sequence[complex],
    order: int,
) -> complex:
    """Remainder after the order-N Taylor polynomial, from its defining relation."""
    roots_mp = [mp.mpc(a) for a in roots]
    svec_mp = [mp.mpc(s) for s in svec]
    x = mp.mpf(x)
    delta = 1 / (2 * max(abs(a) for a in roots_mp))
    if x == 0 or abs(x) > delta:
        raise DomainError(f"x must be nonzero with |x| <= {float(delta)}")
    product = mp.mpc(1)
    for a, s in zip(roots_mp, svec_mp):
        product *= mp.power(1 - x * a, -s)
    coeffs = _product_taylor(roots_mp, svec_mp, order)
    partial = mp.fsum(c * x**ell for ell, c in enumerate(coeffs))
    return complex((product - partial) / x ** (order + 1))
