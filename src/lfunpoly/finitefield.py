"""The quotient ring F_p[u]/(u^p - u) and reduction of rational u-polynomials.

Elements keep a dense residue vector for u^0 ... u^{p-1}; the relation
u^p = u is applied eagerly, so any exponent e >= p folds down to
((e - 1) mod (p - 1)) + 1.
"""

from __future__ import annotations

from typing import Sequence, Tuple

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
    """An element of F_p[u]/(u^p - u)."""

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

    @classmethod
    def monomial(cls, p: int, e: int, c: int = 1) -> "FpuElement":
        coeffs = [0] * (e + 1)
        coeffs[e] = c
        return cls(p, coeffs)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other) -> "FpuElement":
        if isinstance(other, FpuElement):
            if other.p != self.p:
                raise DomainError("mixed moduli")
            return other
        if isinstance(other, int):
            return FpuElement(self.p, [other])
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        return FpuElement(p, [(a + b) % p for a, b in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "FpuElement":
        return FpuElement(self.p, [-a % self.p for a in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        out = [0] * p
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[_fold_exponent(i + j, p)] += a * b
        return FpuElement(p, [c % p for c in out])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = FpuElement(self.p, [other])
        if not isinstance(other, FpuElement):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.p, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- display ------------------------------------------------------

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
