"""The quotient ring F_p[u]/(u^p - u) and reduction of rational u-polynomials.

Elements keep a dense residue vector for u^0 ... u^{p-1}; the relation
u^p = u is applied eagerly, so any exponent e >= p folds down to
((e - 1) mod (p - 1)) + 1.
"""

from __future__ import annotations

from typing import Sequence

from .errors import BadPrimeError, DomainError
from .polynomials import Polynomial


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _fold_exponent(e: int, p: int) -> int:
    """Apply u^p = u: exponents >= p fold into the range 1 ... p-1."""
    if e < p:
        return e
    return (e - 1) % (p - 1) + 1


class FpuElement:
    """An element of F_p[u]/(u^p - u), as a value: compared, hashed, printed."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Sequence[int] = ()):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        vec = [0] * p
        for e, c in enumerate(coeffs):
            c = c % p
            if c:
                vec[_fold_exponent(e, p)] = (vec[_fold_exponent(e, p)] + c) % p
        self.p = p
        self.coeffs = tuple(vec)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpuElement):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def __str__(self) -> str:
        """Highest power first, matching displays like ``4u^5 + 2u``."""
        parts = []
        for e in range(self.p - 1, -1, -1):
            c = self.coeffs[e]
            if not c:
                continue
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append("u" if c == 1 else f"{c}u")
            else:
                parts.append(f"u^{e}" if c == 1 else f"{c}u^{e}")
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"FpuElement(p={self.p}, {self})"


def fpu_reduce(q: Polynomial, p: int) -> FpuElement:
    """Reduce a polynomial in u with rational coefficients into F_p[u]/(u^p-u).

    Raises BadPrimeError when p divides a denominator (the value then has
    no mod-p reduction).
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    residues = []
    for c in q.coeffs:
        den = c.denominator % p
        if den == 0:
            raise BadPrimeError(f"{p} divides the denominator of {c}")
        residues.append(c.numerator * pow(den, -1, p))
    return FpuElement(p, residues)
