import random
from fractions import Fraction

import pytest

from lfunpoly import InvalidPolynomial, Polynomial, find_roots
from lfunpoly.roots import refine_roots

numpy = pytest.importorskip("numpy")


def P(*coeffs):
    return Polynomial.from_rationals(coeffs)


def _match(got, expected, tol=1e-9):
    """Greedy matching of two root multisets."""
    expected = list(expected)
    for z in got:
        best = min(expected, key=lambda w: abs(w - z))
        assert abs(best - z) < tol, (z, best)
        expected.remove(best)
    assert not expected


def test_quadratic():
    _match(find_roots(P(0, 1, 1)), [0, -1])


def test_complex_pair():
    _match(find_roots(P(1, 0, 1)), [1j, -1j])


def test_cubic():
    roots = find_roots(P(5, 2, 0, 1))
    _match(roots, numpy.roots([1, 0, 2, 5]))


def test_zero_roots_stripped():
    _match(find_roots(P(0, 0, 0, 1)), [0, 0, 0])


def test_scaled_polynomial():
    # leading coefficient divides out; roots unchanged
    _match(find_roots(P(2, 0, 2)), [1j, -1j])


def test_against_numpy_random():
    rng = random.Random(17)
    for _ in range(25):
        d = rng.randrange(1, 7)
        coeffs = [rng.randrange(-9, 10) for _ in range(d)] + [rng.randrange(1, 5)]
        got = find_roots(Polynomial.from_rationals(coeffs))
        expected = numpy.roots(list(reversed(coeffs)))
        _match(got, expected, tol=1e-6)


def test_constant_rejected():
    with pytest.raises(InvalidPolynomial):
        find_roots(P(3))


def test_refine_improves_residual():
    from mpmath import mp

    poly = P(5, 2, 0, 1)
    rough = find_roots(poly)
    polished = refine_roots(poly, rough, dps=30)
    with mp.workdps(40):
        for z in polished:
            residual = abs(z**3 + 2 * z + 5)
            assert residual < mp.mpf(10) ** -28


def test_refine_keeps_exact_roots():
    poly = P(0, 1, 1)
    polished = refine_roots(poly, [0j, -1 + 0j], dps=25)
    assert abs(polished[0]) == 0
    assert abs(polished[1] + 1) < 1e-24
