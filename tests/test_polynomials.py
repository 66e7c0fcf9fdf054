from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunpoly import FpuElement, Polynomial, poly_power


def P(*coeffs):
    return Polynomial.from_rationals(coeffs)


def u_monomial(e: int, c=1) -> Polynomial:
    """The monomial c * u^e as a rational polynomial in u."""
    return Polynomial([Fraction(0)] * e + [Fraction(c)])


def test_basic_arithmetic():
    x = Polynomial.x()
    assert (x + 1) * (x - 1) == P(-1, 0, 1)
    assert P(1, 2) - P(1, 2) == Polynomial()
    assert Polynomial().degree == -1


def test_poly_power_monomial():
    assert poly_power(Polynomial.x(), 3) == P(0, 0, 0, 1)


def test_poly_power_worked_square():
    # (X^2 + X)^2 = X^4 + 2X^3 + X^2
    assert poly_power(P(0, 1, 1), 2) == P(0, 0, 1, 2, 1)


def test_poly_power_u_coefficients():
    # (X^2 + uX)^4 over rational polynomials in u, against the binomial theorem
    shape = Polynomial([Polynomial(), u_monomial(1), u_monomial(0)])
    q = poly_power(shape, 4)
    from math import comb

    assert q.degree == 8
    for k in range(5):
        assert q.coeff(8 - k) == u_monomial(k, comb(4, k))


def test_derivative_and_eval():
    p = P(5, 2, 0, 1)  # X^3 + 2X + 5
    assert p.derivative() == P(2, 0, 3)
    assert p(Fraction(2)) == 17
    assert p(Fraction(1, 2)) == Fraction(49, 8)


def test_shift():
    p = P(0, 0, 1)  # X^2
    assert p.shift(3) == P(9, 6, 1)


small_polys = st.lists(
    st.builds(
        Fraction,
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=1, max_value=4),
    ),
    min_size=0,
    max_size=5,
).map(Polynomial)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


def _repeated_product(p: Polynomial, m: int) -> Polynomial:
    expected = Polynomial([1])
    for _ in range(m):
        expected = expected * p
    return expected


@settings(max_examples=40, deadline=None)
@given(small_polys, st.integers(min_value=0, max_value=20))
def test_power_matches_repeated_multiplication(p, m):
    assert poly_power(p, m) == _repeated_product(p, m)


def test_power_of_integer_polynomial():
    p = Polynomial([3, -1, 2])
    for m in range(21):
        q = poly_power(p, m)
        assert q == _repeated_product(p, m)
        assert all(type(c) is int for c in q.coeffs)


def test_power_over_fpu_coefficients():
    p = Polynomial([FpuElement(5, [1, 2]), FpuElement(5, [0, 0, 3]), FpuElement.monomial(5, 4)])
    for m in range(8):
        assert poly_power(p, m) == _repeated_product(p, m)


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_degree_additivity(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).is_zero()
    else:
        assert (p * q).degree == p.degree + q.degree


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        poly_power(Polynomial.x(), -1)
