"""Dense univariate polynomials with int and ``fractions.Fraction`` coefficients.

The zero polynomial is the empty coefficient list; ``degree`` is then -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, List, Sequence, Tuple


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    # -- constructors -------------------------------------------------

    @classmethod
    def x(cls) -> "Polynomial":
        """The monomial X over the rationals."""
        return cls([Fraction(0), Fraction(1)])

    @classmethod
    def from_rationals(cls, coeffs: Iterable) -> "Polynomial":
        return cls([Fraction(c) for c in coeffs])

    # -- inspection ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        """Coefficient of X^k (0 beyond the degree)."""
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return Polynomial([other]) + (-self)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return Polynomial([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out: List = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if bj != 0:
                    out[i + j] = out[i + j] + ai * bj
        return Polynomial(out)

    def __rmul__(self, other) -> "Polynomial":
        return Polynomial([other * c for c in self.coeffs])

    def __pow__(self, m: int) -> "Polynomial":
        return poly_power(self, m)

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Horner evaluation; x may live in any compatible ring."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, c) -> "Polynomial":
        """The composed polynomial p(X + c)."""
        xc = Polynomial([c, 1])
        acc = Polynomial()
        for a in reversed(self.coeffs):
            acc = acc * xc + a
        return acc


def poly_power(p: Polynomial, m: int) -> Polynomial:
    """p**m by Kronecker substitution; degree multiplies by m.

    Clear the denominators, pack the integer coefficients into one integer as
    signed k-bit digits, take one integer power and unpack the digits.  Every
    coefficient of the cleared power is bounded by the l1 norm of the cleared
    p to the m-th power, which sets k.  Int coefficients give int results.
    """
    if m < 0:
        raise ValueError("exponent must be non-negative")
    if not p.coeffs:
        return Polynomial([1] if m == 0 else [])
    ints, den = clear_denominators(p.coeffs)
    k = (sum(map(abs, ints)) ** m).bit_length() + 1
    packed = 0
    for c in reversed(ints):
        packed = (packed << k) + c
    power = packed**m
    mask, half = (1 << k) - 1, 1 << (k - 1)
    digits = []
    for _ in range((len(ints) - 1) * m + 1):
        d = power & mask
        power >>= k
        if d >= half:
            d -= 1 << k
            power += 1
        digits.append(d)
    if all(type(c) is int for c in p.coeffs):
        return Polynomial(digits)
    den_m = den**m
    return Polynomial([Fraction(d, den_m) for d in digits])


def clear_denominators(coeffs: Sequence) -> Tuple[List[int], int]:
    """The integers den * c_i and the least common denominator den of int/Fraction c_i."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den
