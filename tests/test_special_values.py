import random
from fractions import Fraction

import pytest

from lfunpoly import (
    DegreeOverflow,
    DomainError,
    InvalidPolynomial,
    LValueRequest,
    PeriodicFunction,
    Polynomial,
    chi3,
    chi4,
    congruence_scan,
    const_one,
    family_pm,
    family_sequence,
    l_negative,
    psi_table,
    validate_poly,
)
from checks import a_offset_consistency, scaling_identity_check


def P(*coeffs):
    return Polynomial.from_rationals(coeffs)


def test_worked_example(chi3_table):
    # (chi3, X(X+1)) at s = -1
    req = LValueRequest(chi3(), P(0, 1, 1), m=2)
    assert l_negative(req, chi3_table) == Fraction(-2, 3)


def test_m_one(chi3_table):
    assert l_negative(LValueRequest(chi3(), P(0, 1, 1), 1), chi3_table) == Fraction(1, 3)


def test_even_polynomial_vanishes(chi3_table):
    # chi3 has only odd moments, so even polynomials give zero at every m
    for m in range(1, 6):
        assert l_negative(LValueRequest(chi3(), P(1, 0, 1), m), chi3_table) == 0


def test_chi4_example(chi4_table):
    assert l_negative(LValueRequest(chi4(), P(0, 1, 1), 2), chi4_table) == Fraction(-3, 2)


def test_offset_shifts_by_prefix(chi3_table):
    req = LValueRequest(chi3(), P(0, 1, 1), 2, offset_A=4)
    # A=1 value minus sum_{n<4} chi(n) P'(n) P(n): -2/3 - (6 - 30)
    assert l_negative(req, chi3_table) == Fraction(70, 3)


def test_offset_consistency_random(chi3_table):
    rng = random.Random(5)
    for _ in range(8):
        poly = P(*([rng.randrange(1, 6)] + [rng.randrange(0, 4) for _ in range(2)] + [1]))
        m = rng.randrange(1, 4)
        assert a_offset_consistency(chi3(), poly, chi3_table, m, 1, rng.randrange(2, 7))


def test_scaling_identity(chi3_table):
    assert scaling_identity_check(chi3(), P(0, 1, 1), Fraction(3, 2), 3, chi3_table)
    assert scaling_identity_check(chi3(), P(5, 2, 0, 1), Fraction(2), 2, chi3_table)


def test_validate_rejects_integer_roots():
    with pytest.raises(InvalidPolynomial):
        validate_poly(P(-2, 1))  # vanishes at n=2
    with pytest.raises(InvalidPolynomial):
        validate_poly(P(0, -1, 0, 0, 1))  # X^4 - X vanishes at n=1
    with pytest.raises(InvalidPolynomial):
        validate_poly(P(1, -1))  # negative leading coefficient
    with pytest.raises(InvalidPolynomial):
        validate_poly(P(7))  # constant
    validate_poly(P(0, 1, 1))  # root at 0 and -1 is fine


def test_degree_overflow():
    small = psi_table(chi3(), 4)
    with pytest.raises(DegreeOverflow):
        l_negative(LValueRequest(chi3(), P(0, 1, 1), 3), small)


def test_bad_m(chi3_table):
    with pytest.raises(InvalidPolynomial):
        l_negative(LValueRequest(chi3(), P(0, 1, 1), 0), chi3_table)


def test_bad_offset(chi3_table):
    for offset_A in (0, -3):
        with pytest.raises(DomainError, match="offset_A must be >= 1"):
            l_negative(LValueRequest(chi3(), P(0, 1, 1), 2, offset_A=offset_A), chi3_table)


def test_table_for_another_chi_rejected(chi3_table):
    with pytest.raises(DomainError):
        l_negative(LValueRequest(chi4(), P(1, 1, 1), 3, offset_A=3), psi_table(chi3(), 20))
    with pytest.raises(DomainError):
        family_pm(chi4(), 2, chi3_table)
    with pytest.raises(DomainError):
        family_sequence(chi4(), 2, chi3_table)
    with pytest.raises(DomainError):
        congruence_scan(chi4(), 5, 1, chi3_table)


# -- the u-family -----------------------------------------------------


FAMILY_FIRST_SIX = {
    1: {1: Fraction(-1, 3)},
    2: {1: Fraction(2, 3)},
    3: {1: Fraction(-10, 3), 3: Fraction(2, 9)},
    4: {1: Fraction(98, 3), 3: Fraction(-10, 3)},
    5: {1: Fraction(-1618, 3), 3: Fraction(196, 3), 5: Fraction(-2, 3)},
    6: {1: Fraction(40634, 3), 3: Fraction(-16180, 9), 5: Fraction(98, 3)},
}


def _coeff_dict(poly):
    return {k: c for k, c in enumerate(poly.coeffs) if c != 0}


def test_family_first_members(chi3_table):
    for m, expected in FAMILY_FIRST_SIX.items():
        got = family_pm(chi3(), m, chi3_table)
        assert _coeff_dict(got.value) == expected


def test_family_sequence_matches_family_pm(chi3_table):
    seq = family_sequence(chi3(), 6, chi3_table)
    for member in seq:
        assert member.value == family_pm(chi3(), member.m, chi3_table).value


def test_family_specializes_to_l_negative():
    # substituting an integer u into p_m recovers -L(1-m) for P = X(X+u);
    # m+1 points u = 0..m pin the whole degree-m polynomial
    chis = (chi3(), chi4(), const_one(), PeriodicFunction(5, (1, 2, -1, 0, 3)))
    for chi in chis:
        table = psi_table(chi, 24)
        for m in range(1, 13):
            pm = family_pm(chi, m, table).value
            assert pm.degree <= m
            for u in range(m + 1):
                lval = l_negative(LValueRequest(chi, P(0, u, 1), m), table)
                assert pm(Fraction(u)) == -lval


def test_family_degree_overflow():
    short = psi_table(chi3(), 11)
    with pytest.raises(DegreeOverflow):
        family_pm(chi3(), 6, short)
    with pytest.raises(DegreeOverflow):
        family_sequence(chi3(), 6, short)


def test_family_odd_in_u(chi3_table):
    # X(X+u) -> X(X-u) under X -> -X-u; with chi3 odd the family is odd in u
    for m in range(1, 7):
        pm = family_pm(chi3(), m, chi3_table).value
        assert all(c == 0 for c in pm.coeffs[0::2])
