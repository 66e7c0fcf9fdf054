import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfunpoly import BadPrimeError, FpuElement, fpu_reduce
from lfunpoly.errors import DomainError
from lfunpoly.polynomials import Polynomial

from checks import fpu_reduce_by_monomials


def test_reduce_third_times_u_mod_5():
    q = Polynomial([Fraction(0), Fraction(1, 3)])
    assert fpu_reduce(q, 5) == FpuElement(5, [0, 2])  # 3^-1 = 2 mod 5


def test_reduce_zero():
    assert fpu_reduce(Polynomial(), 7) == FpuElement(7)


def test_u_to_the_p_folds_to_u():
    q = Polynomial([Fraction(0)] * 5 + [Fraction(1)])  # u^5
    assert fpu_reduce(q, 5) == FpuElement(5, [0, 1])


def test_bad_prime():
    q = Polynomial([Fraction(1, 5)])
    with pytest.raises(BadPrimeError):
        fpu_reduce(q, 5)


def test_nonprime_rejected():
    with pytest.raises(DomainError):
        fpu_reduce(Polynomial([Fraction(1)]), 6)


def test_display():
    e = FpuElement(7, [2, 2, 0, 2, 0, 4])
    assert str(e) == "4u^5 + 2u^3 + 2u + 2"
    assert str(FpuElement(5)) == "0"


def _random_upoly(rng, p):
    return Polynomial(
        [
            Fraction(rng.randrange(-20, 20), rng.choice([1, 2, 3, 7, 9]))
            for _ in range(rng.randrange(0, 8))
        ]
    )


def test_reduce_is_ring_homomorphism():
    rng = random.Random(7)
    p = 5
    for _ in range(50):
        a = _random_upoly(rng, p)
        b = _random_upoly(rng, p)
        # additive on the residue vectors
        sums = [(x + y) % p for x, y in zip(fpu_reduce(a, p).coeffs, fpu_reduce(b, p).coeffs)]
        assert fpu_reduce(a + b, p) == FpuElement(p, sums)


@st.composite
def _prime_and_upoly(draw):
    p = draw(st.sampled_from([5, 7, 11, 13]))
    coeffs = draw(
        st.lists(
            st.one_of(st.integers(-40, 40), st.fractions(max_denominator=3 * p)),
            max_size=3 * p + 1,
        )
    )
    return p, Polynomial(coeffs)


@settings(max_examples=300, deadline=None)
@given(_prime_and_upoly())
def test_reduce_matches_monomial_sum(case):
    # same element, or BadPrimeError on the same first coefficient
    p, q = case
    try:
        expected = fpu_reduce_by_monomials(q, p)
    except BadPrimeError as exc:
        with pytest.raises(BadPrimeError) as got:
            fpu_reduce(q, p)
        assert str(got.value) == str(exc)
    else:
        assert fpu_reduce(q, p) == expected
