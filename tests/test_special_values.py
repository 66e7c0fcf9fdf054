import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    l_negative_values,
    psi_table,
    validate_poly,
)
from checks import (
    a_offset_consistency,
    l_negative_by_fractions,
    positive_from_by_fractions,
    scaling_identity_check,
    validate_poly_by_fractions,
)


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
    with pytest.raises(InvalidPolynomial, match="vanishes at n=4"):
        validate_poly(P(40, -14, 1))  # (X - 4)(X - 10): the first root is reported
    with pytest.raises(InvalidPolynomial, match="vanishes at n=2"):
        # (X-2)(X-5)/6: the root is reported before the negative values at n = 3, 4
        validate_poly(P(Fraction(5, 3), Fraction(-7, 6), Fraction(1, 6)), positive_from=3)
    # the scan ends at n = 1 + M // lead, M the largest negative |c_k|: here n = 2
    with pytest.raises(InvalidPolynomial, match="vanishes at n=2"):
        validate_poly(P(-2, -3, 2))  # (2X + 1)(X - 2)
    with pytest.raises(DomainError, match="not positive at n=2"):
        validate_poly(P(-3, -3, 2), positive_from=2)  # -1 at n = 2
    validate_poly(P(0, 1, 1))  # root at 0 and -1 is fine


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-12, max_value=12, max_denominator=6), min_size=1, max_size=6
    ),
    st.integers(min_value=-2, max_value=15),
)
def test_validate_matches_fraction_definition(coeffs, offset_A):
    # same accept/reject set and the same message as the Fraction scan
    poly = Polynomial(coeffs)
    try:
        validate_poly_by_fractions(poly, offset_A)
    except InvalidPolynomial as exc:
        with pytest.raises(InvalidPolynomial) as got:
            validate_poly(poly)
        assert str(got.value) == str(exc)
    else:
        validate_poly(poly)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-12, max_value=12, max_denominator=6), min_size=1, max_size=6
    ),
    st.integers(min_value=1, max_value=15),
)
def test_positive_from_matches_fraction_definitions(coeffs, offset_A):
    # the roots scan, then the positivity scan from offset_A: the same
    # outcome, class and message as validate_poly's one pass
    poly = Polynomial(coeffs)
    try:
        validate_poly_by_fractions(poly)
        positive_from_by_fractions(poly, offset_A)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            validate_poly(poly, positive_from=offset_A)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        validate_poly(poly, positive_from=offset_A)


LNEG_CHIS = [
    chi3(),
    chi4(),
    const_one(),
    PeriodicFunction(5, (1, 2, -1, 0, 3)),
    PeriodicFunction(3, (Fraction(1, 2), Fraction(-1, 3), 0)),
]
LNEG_POLYS = ["0,1,1", "1/2,-5/7,2", "1,-10,1", "3,-1,4,1,5,9,2"]
LNEG_M_MAX = 30


@lru_cache(maxsize=None)
def _lneg_table(chi):
    return psi_table(chi, LNEG_M_MAX * 6)


@pytest.mark.parametrize("spec", LNEG_POLYS)
@pytest.mark.parametrize("chi", LNEG_CHIS, ids=repr)
def test_l_negative_values_match_per_m_and_fraction_reference(chi, spec):
    # 1,-10,1 is negative at n = 1..9: the exact engine accepts it
    poly = P(*(Fraction(c) for c in spec.split(",")))
    table = _lneg_table(chi)
    ms = range(1, LNEG_M_MAX + 1)
    for offset_A in (1, 2, 3):
        values = l_negative_values(chi, poly, ms, offset_A, table)
        assert values == l_negative_by_fractions(chi, poly, ms, offset_A, table)
        for m, value in zip(ms, values):
            assert value == l_negative(LValueRequest(chi, poly, m, offset_A), table)


def test_l_negative_values_errors(chi3_table):
    poly = P(0, 1, 1)
    with pytest.raises(InvalidPolynomial, match="m must be"):
        l_negative_values(chi3(), poly, [2, 0, 3], 1, chi3_table)
    with pytest.raises(DomainError, match="offset_A"):
        l_negative_values(chi3(), poly, [1, 2], 0, chi3_table)
    with pytest.raises(DomainError):
        l_negative_values(chi4(), poly, [1, 2], 1, chi3_table)
    with pytest.raises(InvalidPolynomial, match="vanishes at n=2"):
        l_negative_values(chi3(), P(-2, 1), [1, 2], 1, chi3_table)
    with pytest.raises(DegreeOverflow):
        l_negative_values(chi3(), poly, [1, 21], 1, chi3_table)
    assert l_negative_values(chi3(), poly, [], 1, chi3_table) == []


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
        assert isinstance(got, Polynomial)
        assert _coeff_dict(got) == expected


def test_family_sequence_matches_family_pm(chi3_table):
    seq = family_sequence(chi3(), 6, chi3_table)
    for m, member in enumerate(seq, 1):
        assert member == family_pm(chi3(), m, chi3_table)


def test_family_specializes_to_l_negative():
    # substituting an integer u into p_m recovers -L(1-m) for P = X(X+u);
    # m+1 points u = 0..m pin the whole degree-m polynomial
    chis = (chi3(), chi4(), const_one(), PeriodicFunction(5, (1, 2, -1, 0, 3)))
    for chi in chis:
        table = psi_table(chi, 24)
        for m in range(1, 13):
            pm = family_pm(chi, m, table)
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
        pm = family_pm(chi3(), m, chi3_table)
        assert all(c == 0 for c in pm.coeffs[0::2])
