from fractions import Fraction

import pytest

from lfunpoly import (
    DomainError,
    LengthMismatch,
    PeriodicFunction,
    chi3,
    chi4,
    const_one,
)


def test_chi3_values():
    chi = chi3()
    assert [chi(n) for n in range(1, 7)] == [1, -1, 0, 1, -1, 0]
    assert chi.zero_sum


def test_chi4_values():
    chi = chi4()
    assert [chi(n) for n in range(1, 9)] == [1, 0, -1, 0, 1, 0, -1, 0]
    assert chi.zero_sum


def test_constant_not_zero_sum():
    one = const_one()
    assert one(7) == 1
    assert not one.zero_sum


def test_from_table_and_eval():
    chi = PeriodicFunction(3, (1, -1, 0))
    assert chi(5) == -1
    assert chi(300) == 0


def test_rational_values():
    chi = PeriodicFunction(2, (Fraction(1, 2), Fraction(-1, 2)))
    assert chi.zero_sum
    assert chi(4) == Fraction(-1, 2)


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        PeriodicFunction(3, (1, -1))


def test_domain_errors():
    with pytest.raises(DomainError):
        chi3()(0)
    with pytest.raises(DomainError):
        PeriodicFunction(0, ())


def test_periodicity_property():
    for chi in (chi3(), chi4(), const_one()):
        for n in range(1, 40):
            assert chi(n) == chi(n + chi.period)


def test_zero_sum_flag_matches_recomputation():
    for chi in (chi3(), chi4(), const_one(), PeriodicFunction(4, (2, -1, 0, -1))):
        assert chi.zero_sum == (sum(chi(n) for n in range(1, chi.period + 1)) == 0)
