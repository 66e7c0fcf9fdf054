import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunpoly import (
    DegreeOverflow,
    DomainError,
    PeriodicFunction,
    Polynomial,
    TruncatedSeries,
    chi3,
    chi4,
    const_one,
    psi_apply,
    psi_table,
    series_divide,
)
from checks import check_shift_identity

# values of the conductor-3 moment table, from the generating series
CHI3_ODD_MOMENTS = [
    Fraction(-1, 3),
    Fraction(2, 3),
    Fraction(-10, 3),
    Fraction(98, 3),
    Fraction(-1618, 3),
    Fraction(40634, 3),
    Fraction(-1445626, 3),
]


def test_chi3_moments():
    table = psi_table(chi3(), 13)
    assert list(table.moments[1::2]) == CHI3_ODD_MOMENTS
    assert all(m == 0 for m in table.moments[0::2])


def test_constant_function_gives_bernoulli():
    # oracle: Bernoulli numbers at argument 1 (second kind), B_1 = +1/2
    table = psi_table(const_one(), 6)
    assert list(table.moments) == [
        1,
        Fraction(1, 2),
        Fraction(1, 6),
        0,
        Fraction(-1, 30),
        0,
        Fraction(1, 42),
    ]


def test_zero_sum_kills_moment_zero():
    for chi in (chi3(), chi4(), PeriodicFunction(2, (1, -1))):
        assert psi_table(chi, 3).moments[0] == 0


def test_apply_worked_example(chi3_table):
    q = Polynomial.from_rationals([0, 0, 1, 2, 1])  # X^4 + 2X^3 + X^2
    assert psi_apply(chi3_table, q) == Fraction(4, 3)


def test_apply_cube(chi3_table):
    assert psi_apply(chi3_table, Polynomial.from_rationals([0, 0, 0, 1])) == Fraction(2, 3)


def test_apply_zero(chi3_table):
    assert psi_apply(chi3_table, Polynomial()) == 0


def test_degree_overflow(chi3_table):
    q = Polynomial.from_rationals([0] * 41 + [1])
    with pytest.raises(DegreeOverflow):
        psi_apply(chi3_table, q)


def test_negative_max_degree_rejected():
    with pytest.raises(DomainError):
        psi_table(chi3(), -1)


def test_shift_identity_square(chi3_table):
    assert check_shift_identity(chi3_table, Polynomial.from_rationals([0, 0, 1]))


def test_shift_identity_constant(chi3_table, chi4_table):
    c = Polynomial.from_rationals([5])
    assert check_shift_identity(chi3_table, c)
    assert check_shift_identity(chi4_table, c)


def test_shift_identity_chi4_cube(chi4_table):
    assert check_shift_identity(chi4_table, Polynomial.from_rationals([0, 0, 0, 1]))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.builds(
            Fraction,
            st.integers(min_value=-12, max_value=12),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=0,
        max_size=8,
    )
)
def test_shift_identity_random(chi3_table, coeffs):
    assert check_shift_identity(chi3_table, Polynomial(coeffs))


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(min_value=-10**30, max_value=10**30), max_size=41),
    st.integers(min_value=1, max_value=12),
)
def test_apply_same_on_int_fraction_and_mixed_forms(chi3_table, ints, den):
    # q = sum ints_k X^k / den as int, Fraction and mixed coefficients
    reference = sum(
        (Fraction(c, den) * mu for c, mu in zip(ints, chi3_table.moments)), Fraction(0)
    )
    as_fractions = Polynomial([Fraction(c, den) for c in ints])
    mixed = Polynomial([c.numerator if c.denominator == 1 else c for c in as_fractions.coeffs])
    assert psi_apply(chi3_table, as_fractions) == reference
    assert psi_apply(chi3_table, mixed) == reference
    # den * q with int, Fraction and alternating int/Fraction coefficients
    assert psi_apply(chi3_table, Polynomial(ints)) == reference * den
    assert psi_apply(chi3_table, Polynomial([Fraction(c) for c in ints])) == reference * den
    alternating = Polynomial([c if k % 2 else Fraction(c) for k, c in enumerate(ints)])
    assert psi_apply(chi3_table, alternating) == reference * den


def test_table_numerators_over_common_denominator():
    for chi in (chi3(), const_one(), PeriodicFunction(3, (Fraction(1, 2), Fraction(-1, 3), 0))):
        table = psi_table(chi, 30)
        assert len(table.numerators) == 31
        assert all(type(n) is int for n in table.numerators)
        assert table.moments == tuple(Fraction(n, table.denominator) for n in table.numerators)


def test_replication_invariance():
    chi = chi3()
    doubled = PeriodicFunction(6, chi.values * 2)
    assert psi_table(chi, 16).moments == psi_table(doubled, 16).moments
    tripled = PeriodicFunction(9, chi.values * 3)
    assert psi_table(chi, 12).moments == psi_table(tripled, 12).moments


def test_odd_symmetry_kills_even_moments():
    # chi(N - n) = -chi(n) forces vanishing even moments
    for chi in (chi3(), chi4()):
        table = psi_table(chi, 24)
        assert all(table.moments[m] == 0 for m in range(0, 25, 2))


def test_random_zero_sum_shift_identity():
    rng = random.Random(3)
    for _ in range(10):
        period = rng.randrange(2, 7)
        vals = [Fraction(rng.randrange(-5, 6)) for _ in range(period - 1)]
        vals.append(-sum(vals))
        chi = PeriodicFunction(period, vals)
        table = psi_table(chi, 10)
        poly = Polynomial.from_rationals(
            [rng.randrange(-8, 9) for _ in range(rng.randrange(1, 9))]
        )
        assert check_shift_identity(table, poly)


def _series_moments(chi, max_degree):
    """-m! [t^m] of t sum chi(n) e^{nt} / (1 - e^{Nt}), by power-series division."""
    order = max_degree + 1
    numerator = TruncatedSeries.zero(order)
    for n in range(1, chi.period + 1):
        numerator = numerator + TruncatedSeries.exp(n, order).scale(chi(n))
    numerator = TruncatedSeries.t(order) * numerator
    denominator = TruncatedSeries.one(order) - TruncatedSeries.exp(chi.period, order)
    quotient = series_divide(numerator, denominator)
    return [-math.factorial(m) * quotient[m] for m in range(max_degree + 1)]


@pytest.mark.parametrize("max_degree", [0, 1, 2, 3, 80])
@pytest.mark.parametrize(
    "chi",
    [
        const_one(),
        chi3(),
        chi4(),
        PeriodicFunction(5, (1, 2, -1, 0, 3)),
        PeriodicFunction(3, (Fraction(1, 2), Fraction(-1, 3), 0)),
        PeriodicFunction(2, (0, 0)),
        PeriodicFunction(7, (2, 0, -1, Fraction(5, 7), 0, 3, -4)),
    ],
    ids=repr,
)
def test_moments_match_series_division(chi, max_degree):
    table = psi_table(chi, max_degree)
    assert table.max_degree == max_degree
    assert list(table.moments) == _series_moments(chi, max_degree)
