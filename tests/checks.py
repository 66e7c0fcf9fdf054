"""Exact identity checkers and Taylor-series references used by the tests.

They check the engines against identities the paper proves and are not
part of the package's API.
"""

from fractions import Fraction
from typing import List, Sequence

from mpmath import mp

from lfunpoly import (
    BadPrimeError,
    DegreeOverflow,
    DomainError,
    FpuElement,
    InvalidPolynomial,
    LValueRequest,
    PeriodicFunction,
    Polynomial,
    PsiTable,
    l_negative,
    psi_apply,
)
from lfunpoly.continuation import _chi_mp, _l_chi_mp


def monic_from_roots(roots):
    """Coefficients of prod_j (X - a_j), lowest first; leading 1."""
    coeffs = [1]
    for a in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= a * coeffs[i + 1]
    return coeffs


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


def l_negative_by_fractions(
    chi: PeriodicFunction, poly: Polynomial, ms: Sequence[int], offset_A: int, table: PsiTable
) -> List[Fraction]:
    """-(1/m) sum_k c_k mu_k over the coefficients c_k of P^m, minus the prefix n < A.

    One Fraction product per coefficient; P^m by schoolbook multiplication.
    """
    dp = poly.derivative()
    pm = Polynomial([Fraction(1)])
    values = []
    for m in range(1, max(ms) + 1):
        pm = pm * poly
        if m in ms:
            terms = (Fraction(c) * table.moments[k] for k, c in enumerate(pm.coeffs))
            value = -sum(terms, Fraction(0)) / m
            for n in range(1, offset_A):
                value -= chi(n) * dp(Fraction(n)) * poly(Fraction(n)) ** (m - 1)
            values.append(value)
    return values


def validate_poly_by_fractions(poly: Polynomial, offset_A: int = 1) -> None:
    """validate_poly as defined on Fractions: Cauchy-bound scan by Fraction Horner."""
    if poly.is_zero() or poly.degree < 1:
        raise InvalidPolynomial("polynomial must be non-constant")
    lead = Fraction(poly.leading())
    if lead <= 0:
        raise InvalidPolynomial("leading coefficient must be positive")
    bound = 1 + max(abs(Fraction(c)) / lead for c in poly.coeffs)
    for n in range(1, max(offset_A, int(bound) + 1) + 1):
        if poly(Fraction(n)) == 0:
            raise InvalidPolynomial(f"polynomial vanishes at n={n}")


def fpu_reduce_by_monomials(q: Polynomial, p: int) -> FpuElement:
    """fpu_reduce as a sum of reduced monomials: residues added per folded exponent."""
    sums = [0] * p
    for e, c in enumerate(q.coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        den = c.denominator % p
        if den == 0:
            raise BadPrimeError(f"{p} divides the denominator of {c}")
        # u^p = u: u^e is u^(e - (p - 1)k) for any k keeping the exponent >= 1
        folded = e if e < p else (e - 1) % (p - 1) + 1
        sums[folded] += c.numerator * pow(den, -1, p)
    return FpuElement(p, [total % p for total in sums])


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


def interior_l_value_by_hurwitz(chi: PeriodicFunction, w, offset: int):
    """sum_{n >= offset} chi(n) n^-w from mpmath's Hurwitz zeta, minus the prefix n < offset."""
    value = _l_chi_mp(chi, w)
    for n in range(1, offset):
        if chi(n) != 0:
            value -= _chi_mp(chi, n) * mp.power(n, -w)
    return value
