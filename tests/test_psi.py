import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunpoly import (
    DegreeOverflow,
    PeriodicFunction,
    Polynomial,
    check_shift_identity,
    chi3,
    chi4,
    const_one,
    psi_apply,
    psi_table,
)

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
