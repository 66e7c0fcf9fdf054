"""Dirichlet-like series of a periodic function and a polynomial.

Exact rational values at non-positive integers via a moment form on
polynomials, numeric evaluation anywhere in the complex plane via an
analytic-continuation identity, and a mod-p periodicity experiment on the
parametric family attached to X(X+u).

The exact values need Python integers alone, so importing the package does
not load mpmath: the numeric names (``make_plan``, ``continuation_eval``, ...)
load the numeric engine when first used.
"""

import importlib

from .congruence import CongruenceReport, congruence_scan, period_detect
from .errors import (
    BadPrimeError,
    BudgetExceeded,
    ConvergenceError,
    DegreeOverflow,
    DomainError,
    InvalidPolynomial,
    LengthMismatch,
    LfunpolyError,
    ParseError,
    PoleError,
)
from .finitefield import FpuElement, fpu_reduce
from .periodic import (
    PeriodicFunction,
    chi3,
    chi4,
    const_one,
)
from .polynomials import Polynomial, poly_power
from .psi import PsiTable, psi_apply, psi_table
from .special_values import (
    LValueRequest,
    family_pm,
    family_sequence,
    l_negative,
    l_negative_values,
    validate_poly,
)

__version__ = "0.1.0"

# name -> submodule that defines it, imported on first lookup (PEP 562)
_NUMERIC = dict.fromkeys(
    ["ContinuationPlan", "continuation_eval", "direct_sum", "hurwitz_zeta",
     "l_chi_numeric", "make_plan"], "continuation"
) | {"find_roots": "roots"}


def __getattr__(name):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_NUMERIC[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "BadPrimeError",
    "BudgetExceeded",
    "CongruenceReport",
    "ContinuationPlan",
    "ConvergenceError",
    "DegreeOverflow",
    "DomainError",
    "FpuElement",
    "InvalidPolynomial",
    "LValueRequest",
    "LengthMismatch",
    "LfunpolyError",
    "ParseError",
    "PeriodicFunction",
    "PoleError",
    "Polynomial",
    "PsiTable",
    "chi3",
    "chi4",
    "congruence_scan",
    "const_one",
    "continuation_eval",
    "direct_sum",
    "family_pm",
    "family_sequence",
    "find_roots",
    "fpu_reduce",
    "hurwitz_zeta",
    "l_chi_numeric",
    "l_negative",
    "l_negative_values",
    "make_plan",
    "period_detect",
    "poly_power",
    "psi_apply",
    "psi_table",
    "validate_poly",
]
