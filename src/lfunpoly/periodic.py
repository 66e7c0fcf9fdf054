"""Periodic functions chi: N* -> Q, with the named characters chi3 and chi4.

Zero sum over a period is recorded but not required: the moment engine is
well defined for any periodic function, and the constant function 1 is the
Bernoulli cross-check.  Operations that need zero sum (pole-free numeric
evaluation) consult the flag themselves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DomainError, LengthMismatch


class PeriodicFunction:
    __slots__ = ("period", "values", "zero_sum", "name")

    def __init__(self, period: int, values: Sequence, name: str | None = None):
        if period < 1:
            raise DomainError("period must be >= 1")
        values = tuple(Fraction(v) for v in values)
        if len(values) != period:
            raise LengthMismatch(
                f"{len(values)} values given for period {period}"
            )
        self.period = period
        self.values = values
        self.zero_sum = sum(values) == 0
        self.name = name

    def __call__(self, n: int) -> Fraction:
        """chi(n) by period reduction; n must be a positive integer."""
        if n < 1:
            raise DomainError("chi is only defined on positive integers")
        return self.values[(n - 1) % self.period]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeriodicFunction):
            return NotImplemented
        return self.period == other.period and self.values == other.values

    def __hash__(self):
        return hash((self.period, self.values))

    def __repr__(self) -> str:
        if self.name:
            return f"PeriodicFunction({self.name})"
        vals = ",".join(str(v) for v in self.values)
        return f"PeriodicFunction(period={self.period}, values=({vals}))"

    def max_abs(self) -> Fraction:
        return max(abs(v) for v in self.values)


def chi3() -> PeriodicFunction:
    """Primitive character of conductor 3: values 1, -1, 0."""
    return PeriodicFunction(3, (1, -1, 0), name="chi3")


def chi4() -> PeriodicFunction:
    """Primitive character of conductor 4: values 1, 0, -1, 0."""
    return PeriodicFunction(4, (1, 0, -1, 0), name="chi4")


def const_one() -> PeriodicFunction:
    """The constant function 1 (period 1, not zero-sum)."""
    return PeriodicFunction(1, (1,), name="one")


NAMED_CHI = {"chi3": chi3, "chi4": chi4, "one": const_one}
