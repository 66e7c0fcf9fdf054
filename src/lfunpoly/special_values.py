"""Exact values at non-positive integers and the parametric u-family.

The value at 1-m of the series attached to (chi, P) with offset A is

    -(1/m) * Psi(P^m) - sum_{n=1..A-1} chi(n) P'(n) P(n)^{m-1}

computed on integers with one Fraction per value; since only integer
powers of P occur, P may be negative at some n >= A.  The u-family
generalizes this to P = X(X+u), giving for each m a polynomial in u whose
mod-p reductions feed the congruence experiment.  It has the binomial closed form

    p_m(u) = (1/m) Psi((X(X+u))^m) = (1/m) sum_{j=0..m} C(m,j) mu_{2m-j} u^j

in the moments mu_k of the form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional, Sequence

from .errors import DegreeOverflow, DomainError, InvalidPolynomial
from .periodic import PeriodicFunction
from .polynomials import Polynomial, clear_denominators, poly_power
from .psi import PsiTable, psi_apply


@dataclass(frozen=True)
class LValueRequest:
    chi: PeriodicFunction
    poly: Polynomial
    m: int
    offset_A: int = 1


def validate_poly(poly: Polynomial, positive_from: Optional[int] = None) -> None:
    """Reject a P outside the contract of the engines.

    P must be non-constant with a positive leading coefficient and vanish
    at no positive integer (InvalidPolynomial).  With ``positive_from`` = A,
    for the numeric engine's real powers, also P(n) > 0 for n >= A
    (DomainError, raised only if P has no root there).  One integer Horner
    scan of den * P covers n = 1 .. 1 + M // lead, M the largest |c_k| over
    the negative c_k: past 1 + M / lead, P(x) >= lead x^d - M (x^d - 1) / (x - 1) > 0.
    """
    if poly.is_zero() or poly.degree < 1:
        raise InvalidPolynomial("polynomial must be non-constant")
    ints, _ = clear_denominators(poly.coeffs)
    lead = ints[-1]
    if lead <= 0:
        raise InvalidPolynomial("leading coefficient must be positive")
    q = Polynomial(ints)
    first_negative = None
    for n in range(1, 2 + max((-c for c in ints if c < 0), default=0) // lead):
        acc = q(n)
        if acc == 0:
            raise InvalidPolynomial(f"polynomial vanishes at n={n}")
        if acc < 0 and positive_from is not None and n >= positive_from:
            first_negative = first_negative or n
    if first_negative is not None:
        raise DomainError(f"polynomial not positive at n={first_negative}")


def _check_table_chi(chi: PeriodicFunction, table: PsiTable) -> None:
    if table.chi != chi:
        raise DomainError(f"moment table was built for {table.chi!r}, not {chi!r}")


def l_negative_values(
    chi: PeriodicFunction, poly: Polynomial, ms: Sequence[int], offset_A: int, table: PsiTable
) -> List[Fraction]:
    """Exact values at s = 1-m for each m in ms, for one (chi, P, A).

    P is validated once and its denominators cleared once, Q = den * P; then
    value(1-m) = -(Psi(Q^m) + m sum_{n<A} chi(n) Q'(n) Q(n)^(m-1)) / (m den^m).
    Only integer powers of P occur, so P may be negative at some n >= A.
    """
    if min(ms, default=1) < 1:
        raise InvalidPolynomial("m must be a positive integer")
    if offset_A < 1:
        raise DomainError("offset_A must be >= 1")
    _check_table_chi(chi, table)
    validate_poly(poly)
    needed = max(ms, default=0) * poly.degree
    if needed > table.max_degree:
        raise DegreeOverflow(
            f"need table degree {needed}, have {table.max_degree}"
        )
    ints, den = clear_denominators(poly.coeffs)
    q = Polynomial(ints)
    dq = q.derivative()
    prefix = [(chi(n) * dq(n), q(n)) for n in range(1, offset_A) if chi(n)]
    values = []
    for m in ms:
        head = sum(c * qn ** (m - 1) for c, qn in prefix)
        values.append(-(psi_apply(table, poly_power(q, m)) + m * head) / (m * den**m))
    return values


def l_negative(req: LValueRequest, table: PsiTable) -> Fraction:
    """Exact value at s = 1-m for the request's (chi, P, A), as in l_negative_values.

    P must vanish at no positive integer but may be negative at some n >= A.
    """
    return l_negative_values(req.chi, req.poly, [req.m], req.offset_A, table)[0]


# -- parametric family ------------------------------------------------


def family_pm(chi: PeriodicFunction, m: int, table: PsiTable) -> Polynomial:
    """Member m of the family, a polynomial in u: the moment form on
    (X(X+u))^m, divided by m.

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
    num, den = table.numerators, m * table.denominator
    return Polynomial([Fraction(comb(m, j) * num[2 * m - j], den) for j in range(m + 1)])


def family_sequence(chi: PeriodicFunction, m_max: int, table: PsiTable) -> List[Polynomial]:
    """Members 1 ... m_max as polynomials in u, member m at index m - 1."""
    return [family_pm(chi, m, table) for m in range(1, m_max + 1)]
