"""Exception hierarchy shared by all engines.

Parse problems, domain violations and budget exhaustion are kept as
separate branches so the CLI can map them to distinct exit codes.
"""


class LfunpolyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(LfunpolyError):
    """Malformed textual input (chi spec, polynomial spec, complex number)."""


class DomainError(LfunpolyError):
    """An argument is outside the mathematical domain of the operation."""


class DivisionByZeroSeries(DomainError):
    """Attempt to divide a truncated series by the zero series."""


class ValuationError(DomainError):
    """Series division whose quotient would not be a power series."""


class LengthMismatch(DomainError):
    """Value table length does not match the declared period."""


class DegreeOverflow(DomainError):
    """A polynomial exceeds the degree a moment table was built for."""


class BadPrimeError(DomainError):
    """The prime divides a denominator, so no mod-p reduction exists."""


class InvalidPolynomial(DomainError):
    """Polynomial violates a contract (sign of leading coefficient, roots
    at positive integers, ...)."""


class PoleError(DomainError):
    """Evaluation requested at a genuine pole."""


class ConvergenceError(DomainError):
    """Direct summation requested outside its half-plane of convergence, or
    a continuation that would need a Taylor order above 2^14 (Re(s) far to
    the left) or an Euler-Maclaurin cut more than 2^14 periods past the tail
    start (huge |s|)."""


class BudgetExceeded(LfunpolyError):
    """A term budget ran out before the tail bound dropped below target."""
