"""Mod-p reduction of the u-family and periodicity detection.

The experiment: reduce the family members in F_p[u]/(u^p - u) and look
for a period of p-1 starting at the second term.  The scan reports what
it sees; a missing period is a result, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import DegreeOverflow, DomainError
from .finitefield import FpuElement, fpu_reduce, is_prime
from .periodic import PeriodicFunction
from .psi import PsiTable
from .special_values import family_sequence


@dataclass(frozen=True)
class CongruenceReport:
    prime: int
    chi_name: str
    terms: Tuple[FpuElement, ...]  # reductions for m = 1, 2, ...
    period_detected: Optional[int]  # minimal period past the preperiod
    pm1_confirmed: bool  # terms[m] = terms[m + (p-1)] for all m >= 2 in range
    preperiod: int
    periods_checked: int

    def term_strings(self) -> List[str]:
        return [str(t) for t in self.terms]


def period_detect(terms: Sequence, preperiod: int = 0) -> Optional[int]:
    """Smallest period T validated over the whole window past the preperiod.

    Only periods with at least two full repetitions in the available window
    are accepted (T <= (len - preperiod) / 2).
    """
    if not terms:
        raise DomainError("terms must be nonempty")
    window = len(terms) - preperiod
    for period in range(1, window // 2 + 1):
        if all(
            terms[i] == terms[i + period]
            for i in range(preperiod, len(terms) - period)
        ):
            return period
    return None


def congruence_scan(
    chi: PeriodicFunction,
    p: int,
    periods: int,
    table: PsiTable,
) -> CongruenceReport:
    """Reduce family members mod p and test for period p-1 past the first term."""
    if not is_prime(p) or p <= 3:
        raise DomainError("p must be a prime greater than 3")
    if periods < 1:
        raise DomainError("periods must be >= 1")
    m_max = 1 + (periods + 1) * (p - 1)
    if table.max_degree < 2 * m_max:
        raise DegreeOverflow(
            f"need table degree {2 * m_max} for p={p}, periods={periods}; "
            f"have {table.max_degree}"
        )
    family = family_sequence(chi, m_max, table)
    terms = tuple(fpu_reduce(member.value, p) for member in family)

    pm1_confirmed = all(
        terms[i] == terms[i + (p - 1)] for i in range(1, len(terms) - (p - 1))
    )
    return CongruenceReport(
        prime=p,
        chi_name=chi.name or repr(chi),
        terms=terms,
        period_detected=period_detect(terms, preperiod=1),
        pm1_confirmed=pm1_confirmed,
        preperiod=1,
        periods_checked=periods,
    )
