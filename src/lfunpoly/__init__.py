"""Dirichlet-like series of a periodic function and a polynomial.

Exact rational values at non-positive integers via a moment form on
polynomials, numeric evaluation anywhere in the complex plane via an
analytic-continuation identity, and a mod-p periodicity experiment on the
parametric family attached to X(X+u).
"""

from .congruence import CongruenceReport, congruence_scan, period_detect
from .continuation import (
    ContinuationPlan,
    continuation_eval,
    direct_sum,
    hurwitz_zeta,
    l_chi_numeric,
    make_plan,
)
from .errors import (
    BadPrimeError,
    BudgetExceeded,
    ConvergenceError,
    DegreeOverflow,
    DivisionByZeroSeries,
    DomainError,
    InvalidPolynomial,
    LengthMismatch,
    LfunpolyError,
    ParseError,
    PoleError,
    ValuationError,
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
from .roots import find_roots, refine_roots
from .series import TruncatedSeries, series_divide
from .special_values import (
    FamilyPolynomial,
    LValueRequest,
    family_pm,
    family_sequence,
    l_negative,
    validate_poly,
)

__version__ = "0.1.0"

__all__ = [
    "BadPrimeError",
    "BudgetExceeded",
    "CongruenceReport",
    "ContinuationPlan",
    "ConvergenceError",
    "DegreeOverflow",
    "DivisionByZeroSeries",
    "DomainError",
    "FamilyPolynomial",
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
    "TruncatedSeries",
    "ValuationError",
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
    "make_plan",
    "period_detect",
    "poly_power",
    "psi_apply",
    "psi_table",
    "refine_roots",
    "series_divide",
    "validate_poly",
]
