"""Simultaneous root finding for the numeric engine.

Aberth-Ehrlich iteration on all roots at once, with a residual check.
The continuation works from P's exact coefficients and takes from the roots
only the radius max|a_j|, in doubles, which places the start of its Taylor
tail.  ``refine_roots`` polishes roots to higher precision; the numeric
engine does not call it, and it stays for the tests and for
perfbench/tracer.py, which wraps it by name.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import List, Sequence

from .errors import InvalidPolynomial
from .polynomials import Polynomial

_MAX_ITER = 200


def find_roots(poly: Polynomial, tol: float = 1e-12) -> List[complex]:
    """All d roots of a rational polynomial, as complex doubles."""
    if poly.degree < 1:
        raise InvalidPolynomial("need degree >= 1 to extract roots")
    lead = complex(Fraction(poly.leading()))
    coeffs = [complex(Fraction(c)) / lead for c in poly.coeffs]
    return aberth(coeffs, tol=tol)


def aberth(coeffs: Sequence[complex], tol: float = 1e-12) -> List[complex]:
    """Roots of a monic polynomial given lowest-first coefficients."""
    d = len(coeffs) - 1
    if d < 1:
        raise InvalidPolynomial("need degree >= 1")

    # strip zero roots first: they are exact and would stall the iteration
    v = 0
    while v <= d and abs(coeffs[v]) == 0:
        v += 1
    zeros = [0j] * v
    coeffs = list(coeffs[v:])
    d = len(coeffs) - 1
    if d == 0:
        return zeros

    def p_and_dp(z: complex):
        acc = 0j
        dacc = 0j
        for c in reversed(coeffs):
            dacc = dacc * z + acc
            acc = acc * z + c
        return acc, dacc

    radius = 1.0 + max(abs(c) for c in coeffs[:-1])
    zs = [
        radius * 0.7 * cmath.exp(2j * cmath.pi * (k + 0.35) / d)
        for k in range(d)
    ]
    scale = max(1.0, max(abs(c) for c in coeffs))
    for _ in range(_MAX_ITER):
        converged = True
        new = list(zs)
        for j, z in enumerate(zs):
            pz, dpz = p_and_dp(z)
            if abs(pz) < tol * scale:
                continue
            converged = False
            if dpz == 0:
                new[j] = z + 1e-6 * radius
                continue
            ratio = pz / dpz
            rep = sum(1 / (z - zk) for k, zk in enumerate(zs) if k != j)
            denom = 1 - ratio * rep
            step = ratio / denom if denom != 0 else ratio
            new[j] = z - step
        zs = new
        if converged:
            break
    for z in zs:
        pz, _ = p_and_dp(z)
        if abs(pz) > 1e3 * tol * scale:
            raise InvalidPolynomial(
                f"root iteration did not converge (residual {abs(pz):.2e})"
            )
    return zeros + zs


def refine_roots(poly: Polynomial, roots: Sequence[complex], dps: int):
    """Newton-polish double-precision roots against the exact coefficients.

    Returns mpmath complex numbers at the requested precision.  Simple
    roots only; a vanishing derivative leaves the root as is.
    """
    from mpmath import mp

    lead = Fraction(poly.leading())
    coeffs = [Fraction(c) / lead for c in poly.coeffs]
    with mp.workdps(dps + 10):
        coeffs_mp = [mp.mpf(c.numerator) / c.denominator for c in coeffs]
        polished = []
        for r in roots:
            z = mp.mpc(r)
            for _ in range(dps):
                acc = mp.mpc(0)
                dacc = mp.mpc(0)
                for c in reversed(coeffs_mp):
                    dacc = dacc * z + acc
                    acc = acc * z + c
                if dacc == 0 or abs(acc) == 0:
                    break
                step = acc / dacc
                z = z - step
                if abs(step) < mp.mpf(10) ** (-(dps + 5)) * max(1, abs(z)):
                    break
            polished.append(+z)
        return polished
