"""Textual forms used by the CLI: chi specs, polynomial specs, complex s.

Exact values round-trip losslessly: rationals print as ``num/den`` (or a
bare integer) and parse back to the identical Fraction.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Dict, List

from .errors import ParseError
from .periodic import NAMED_CHI, PeriodicFunction
from .polynomials import Polynomial


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    return str(value) if type(value) is Fraction else str(Fraction(value))


def parse_chi(spec: str) -> PeriodicFunction:
    """Either a named shortcut (chi3, chi4, one) or ``period=N;values=...``."""
    spec = spec.strip()
    if spec in NAMED_CHI:
        return NAMED_CHI[spec]()
    try:
        fields = dict(part.split("=", 1) for part in spec.split(";") if part)
        period = int(fields["period"])
        values = [parse_rational(v) for v in fields["values"].split(",")]
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(f"bad chi spec {spec!r}: {exc}") from None
    try:
        return PeriodicFunction(period, values)
    except Exception as exc:
        raise ParseError(f"bad chi spec {spec!r}: {exc}") from None


def parse_poly(spec: str) -> Polynomial:
    """Comma-separated coefficients, lowest degree first."""
    try:
        coeffs = [parse_rational(c) for c in spec.split(",")]
    except ParseError:
        raise ParseError(f"bad polynomial spec {spec!r}")
    if not coeffs:
        raise ParseError("empty polynomial spec")
    return Polynomial(coeffs)


def parse_complex(text: str) -> complex:
    """Finite complex numbers in the form ``a+bi`` (or plain reals)."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    try:
        value = complex(cleaned)
    except ValueError:
        raise ParseError(f"bad complex number {text!r}") from None
    if not cmath.isfinite(value):
        raise ParseError(f"complex number {text!r} is not finite")
    return value


def parse_roots(spec: str) -> List[complex]:
    return [parse_complex(part) for part in spec.split(",")]


def parse_m_range(spec: str) -> range:
    """Inclusive range ``a..b``."""
    try:
        lo, hi = spec.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ParseError(f"bad range {spec!r}, expected a..b") from None
    if lo > hi or lo < 1:
        raise ParseError(f"bad range {spec!r}")
    return range(lo, hi + 1)


def poly_coeff_map(poly: Polynomial) -> Dict[str, str]:
    """Exponent -> rational string map, zero coefficients omitted."""
    return {
        str(k): format_rational(c)
        for k, c in enumerate(poly.coeffs)
        if c != 0
    }
