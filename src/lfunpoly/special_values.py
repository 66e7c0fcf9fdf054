"""Exact values at non-positive integers and the parametric u-family.

The value at 1-m of the series attached to (chi, P) with offset A is

    -(1/m) * Psi(P^m) - sum_{n=1..A-1} chi(n) P'(n) P(n)^{m-1}

computed entirely over the rationals.  The u-family generalizes this to
P = X(X+u), giving for each m a polynomial in u whose mod-p reductions
feed the congruence experiment.  It has the binomial closed form

    p_m(u) = (1/m) Psi((X(X+u))^m) = (1/m) sum_{j=0..m} C(m,j) mu_{2m-j} u^j

in the moments mu_k of the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List

from .errors import DegreeOverflow, DomainError, InvalidPolynomial
from .periodic import PeriodicFunction
from .polynomials import Polynomial, poly_power
from .psi import PsiTable, psi_apply


@dataclass(frozen=True)
class LValueRequest:
    chi: PeriodicFunction
    poly: Polynomial
    m: int
    offset_A: int = 1


@dataclass(frozen=True)
class FamilyPolynomial:
    """The degree-m member of the u-family: a polynomial in u."""

    m: int
    value: Polynomial


def _root_scan_bound(poly: Polynomial, offset_A: int) -> int:
    """Largest integer that could be a positive root (Cauchy bound)."""
    lead = Fraction(poly.leading())
    bound = 1 + max(abs(Fraction(c)) / lead for c in poly.coeffs)
    return max(offset_A, int(bound) + 1)


def validate_poly(poly: Polynomial, offset_A: int = 1) -> None:
    """Reject polynomials outside the contract.

    The leading coefficient must be positive and the polynomial must not
    vanish at any positive integer; the scan range covers every possible
    integer root (all real roots lie below the Cauchy bound).
    """
    if poly.is_zero() or poly.degree < 1:
        raise InvalidPolynomial("polynomial must be non-constant")
    if Fraction(poly.leading()) <= 0:
        raise InvalidPolynomial("leading coefficient must be positive")
    for n in range(1, _root_scan_bound(poly, offset_A) + 1):
        if poly(Fraction(n)) == 0:
            raise InvalidPolynomial(f"polynomial vanishes at n={n}")


def _prefix_sum(chi: PeriodicFunction, poly: Polynomial, m: int, upto: int) -> Fraction:
    """sum_{n=1..upto} chi(n) P'(n) P(n)^{m-1}, exact."""
    dp = poly.derivative()
    total = Fraction(0)
    for n in range(1, upto + 1):
        c = chi(n)
        if c != 0:
            pn = poly(Fraction(n))
            total += c * dp(Fraction(n)) * pn ** (m - 1)
    return total


def _check_table_chi(chi: PeriodicFunction, table: PsiTable) -> None:
    if table.chi != chi:
        raise DomainError(f"moment table was built for {table.chi!r}, not {chi!r}")


def l_negative(req: LValueRequest, table: PsiTable) -> Fraction:
    """Exact value at s = 1-m for the request's (chi, P, A)."""
    if req.m < 1:
        raise InvalidPolynomial("m must be a positive integer")
    _check_table_chi(req.chi, table)
    validate_poly(req.poly, req.offset_A)
    needed = req.m * req.poly.degree
    if needed > table.max_degree:
        raise DegreeOverflow(
            f"need table degree {needed}, have {table.max_degree}"
        )
    pm = poly_power(req.poly, req.m)
    value = -psi_apply(table, pm) / req.m
    if req.offset_A > 1:
        value -= _prefix_sum(req.chi, req.poly, req.m, req.offset_A - 1)
    return value


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


# -- parametric family ------------------------------------------------


def family_pm(chi: PeriodicFunction, m: int, table: PsiTable) -> FamilyPolynomial:
    """Member m of the family: the moment form on (X(X+u))^m, divided by m.

    (X(X+u))^m = sum_j C(m,j) u^j X^(2m-j), so u^j has coefficient
    C(m,j) mu_{2m-j} / m; the table needs degree 2m.
    """
    if m < 1:
        raise InvalidPolynomial("m must be a positive integer")
    _check_table_chi(chi, table)
    if 2 * m > table.max_degree:
        raise DegreeOverflow(
            f"degree {2 * m} exceeds table degree {table.max_degree}"
        )
    mu = table.moments
    value = Polynomial([Fraction(comb(m, j), m) * mu[2 * m - j] for j in range(m + 1)])
    return FamilyPolynomial(m=m, value=value)


def family_sequence(
    chi: PeriodicFunction, m_max: int, table: PsiTable
) -> List[FamilyPolynomial]:
    """Members 1 ... m_max."""
    return [family_pm(chi, m, table) for m in range(1, m_max + 1)]
