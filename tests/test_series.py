from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunpoly.errors import DivisionByZeroSeries, ValuationError
from lfunpoly.series import TruncatedSeries, series_divide


def test_exp_series_factorial_recurrence():
    e3 = TruncatedSeries.exp(3, 4)
    assert e3.coeffs == (1, 3, Fraction(9, 2), Fraction(9, 2), Fraction(27, 8))


def test_divide_identity():
    t = TruncatedSeries.t(6)
    assert series_divide(t, t) == TruncatedSeries.one(5)


def test_divide_t_by_one_minus_e3t():
    # long division against 1 - e^{3t} = -3t - (9/2)t^2 - (9/2)t^3 - ...
    num = TruncatedSeries.t(4)
    den = TruncatedSeries.one(4) - TruncatedSeries.exp(3, 4)
    q = series_divide(num, den)
    assert q.coeffs[:3] == (Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 4))
    # check the whole quotient by multiplying back
    assert (q * den).coeffs[1 : q.order + 1] == num.coeffs[1 : q.order + 1]


def test_divide_psi3_generating_series():
    # t*(e^t - e^{2t}) / (1 - e^{3t}); odd coefficients times -n! are the
    # moment values of the conductor-3 character
    order = 14
    num = TruncatedSeries.t(order) * (
        TruncatedSeries.exp(1, order) - TruncatedSeries.exp(2, order)
    )
    den = TruncatedSeries.one(order) - TruncatedSeries.exp(3, order)
    q = series_divide(num, den)
    fact = 1
    got = []
    for n in range(14):
        fact = fact * n if n else 1
        got.append(-fact * q[n])
    expected_odd = [
        Fraction(-1, 3),
        Fraction(2, 3),
        Fraction(-10, 3),
        Fraction(98, 3),
        Fraction(-1618, 3),
        Fraction(40634, 3),
        Fraction(-1445626, 3),
    ]
    assert got[1::2] == expected_odd
    assert all(c == 0 for c in got[0::2])


def test_divide_by_zero_series():
    with pytest.raises(DivisionByZeroSeries):
        series_divide(TruncatedSeries.one(3), TruncatedSeries.zero(3))


def test_valuation_mismatch():
    with pytest.raises(ValuationError):
        series_divide(TruncatedSeries.one(3), TruncatedSeries.t(3))


def test_order_tracking():
    a = TruncatedSeries.exp(1, 7)
    b = TruncatedSeries.exp(2, 4)
    assert (a * b).order == 4
    assert (a + b).order == 4


rationals = st.builds(
    Fraction,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=12),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(rationals, min_size=1, max_size=8),
    st.lists(rationals, min_size=1, max_size=8),
    st.integers(min_value=0, max_value=3),
)
def test_divide_multiply_roundtrip(a_coeffs, b_coeffs, shift):
    order = 10
    b = TruncatedSeries([0] * shift + b_coeffs, order)
    if b.valuation() is None:
        return
    a = TruncatedSeries([0] * shift + a_coeffs, order)
    va, vb = a.valuation(), b.valuation()
    if va is not None and va < vb:
        return
    q = series_divide(a, b)
    back = q * b
    n = back.order
    assert back.coeffs[: n + 1] == a.coeffs[: n + 1]
