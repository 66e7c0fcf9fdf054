"""Reference answers for the benchmark, sharing no code with the timed path.

Exact engine: the moments of the linear form are the generalized Bernoulli
numbers

    B_{m,chi} = N^(m-1) sum_{a=1..N} chi(a) B_m(a/N)
              = sum_k C(m,k) B_k N^(k-1) S_{m-k},   S_j = sum_a chi(a) a^j,

built from sympy's Bernoulli numbers (Washington, *Introduction to
Cyclotomic Fields*, ch. 4).  ``P^m`` is expanded with sympy, the u-family
uses the binomial form ``p_m(u) = (1/m) sum_k C(m,k) mu_{m+k} u^(m-k)``,
and mod-p reduction and period detection are written out from their
definitions.

Numeric engine: for each residue class a mod N the tail of
``sum_k f(k)``, ``f(x) = P'(a+Nx) P(a+Nx)^(-s)``, is summed by
Euler-Maclaurin with the exact antiderivative ``P^(1-s)/(N(1-s))``; the
derivatives at the cut come from the power series of ``Q^(-s)``, with
``Q(h) = P(a+N(K+h))``.  No roots, no Hurwitz zeta, no Taylor product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import sympy
from mpmath import mp

EVAL_RTOL = 1e-8
EM_TERMS = 60  # Euler-Maclaurin correction terms tried before the cut is moved out


# -- exact engine ------------------------------------------------------


def _bernoulli_at_zero(k: int) -> Fraction:
    """B_k = B_k(0); B_1(0) = -1/2 whatever sign convention sympy uses."""
    if k == 1:
        return Fraction(-1, 2)
    b = sympy.bernoulli(k)
    return Fraction(int(b.p), int(b.q))


class MomentOracle:
    """Generalized Bernoulli numbers per chi, extended on demand."""

    def __init__(self):
        self._bern: List[Fraction] = []
        self._tables: Dict[tuple, List[Fraction]] = {}

    def _bernoulli(self, upto: int) -> List[Fraction]:
        while len(self._bern) <= upto:
            self._bern.append(_bernoulli_at_zero(len(self._bern)))
        return self._bern

    def moments(self, values: Sequence[Fraction], upto: int) -> List[Fraction]:
        """B_{m,chi} for m = 0 ... upto; chi(n) = values[(n-1) % N]."""
        key = tuple(values)
        table = self._tables.setdefault(key, [])
        if len(table) > upto:
            return table
        n_period = len(values)
        bern = self._bernoulli(upto)
        powsums = [
            sum((v * a**j for a, v in enumerate(values, start=1) if v), Fraction(0))
            for j in range(upto + 1)
        ]
        for m in range(len(table), upto + 1):
            total = Fraction(0)
            for k in range(m + 1):
                bk = bern[k]
                if bk and powsums[m - k]:
                    total += math.comb(m, k) * bk * Fraction(n_period) ** (k - 1) * powsums[m - k]
            table.append(total)
        return table


def _sympy_poly(coeffs: Sequence[Fraction]):
    x = sympy.Symbol("x")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x, domain="QQ")


def _poly_coeffs_low_first(poly) -> List[Fraction]:
    return [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def _prefix_sum(values, coeffs, m: int, upto: int) -> Fraction:
    """sum_{n=1..upto} chi(n) P'(n) P(n)^(m-1)."""
    total = Fraction(0)
    for n in range(1, upto + 1):
        c = values[(n - 1) % len(values)]
        if c:
            pn = sum(a * n**k for k, a in enumerate(coeffs))
            dpn = sum(k * a * n ** (k - 1) for k, a in enumerate(coeffs) if k)
            total += c * dpn * pn ** (m - 1)
    return total


def l_negative_values(oracle: MomentOracle, values, coeffs, ms: Sequence[int], offset_A: int = 1) -> List[Fraction]:
    """L(1-m) = -(1/m) Psi(P^m) - prefix, for each m in ms."""
    d = len(coeffs) - 1
    mu = oracle.moments(values, max(ms) * d)
    base = _sympy_poly(coeffs)
    power = sympy.Poly(1, base.gens[0], domain="QQ")
    out = {}
    for m in range(1, max(ms) + 1):
        power = power * base
        if m not in ms:
            continue
        pm = _poly_coeffs_low_first(power)
        value = -sum((c * mu[j] for j, c in enumerate(pm) if c), Fraction(0)) / m
        if offset_A > 1:
            value -= _prefix_sum(values, coeffs, m, offset_A - 1)
        out[m] = value
    return [out[m] for m in ms]


def family_members(oracle: MomentOracle, values, m_max: int) -> List[List[Fraction]]:
    """Coefficients (u^0 first) of p_m(u), m = 1 ... m_max, by the binomial form."""
    mu = oracle.moments(values, 2 * m_max)
    members = []
    for m in range(1, m_max + 1):
        coeffs = [Fraction(0)] * (m + 1)
        for k in range(m + 1):
            coeffs[m - k] = Fraction(math.comb(m, k)) * mu[m + k] / m
        members.append(coeffs)
    return members


def coeff_map(coeffs: Sequence[Fraction]) -> Dict[str, str]:
    return {str(e): str(c) for e, c in enumerate(coeffs) if c}


def reduce_mod_p(coeffs: Sequence[Fraction], p: int) -> Optional[List[int]]:
    """Residues of u^0 ... u^(p-1) in F_p[u]/(u^p - u); None if p divides a denominator."""
    out = [0] * p
    for e, c in enumerate(coeffs):
        if not c:
            continue
        if c.denominator % p == 0:
            return None
        folded = e if e < p else (e - 1) % (p - 1) + 1
        out[folded] = (out[folded] + c.numerator * pow(c.denominator, -1, p)) % p
    return out


def fpu_string(residues: Sequence[int]) -> str:
    """Highest power first: ``4u^5 + 2u + 3``."""
    parts = []
    for e in range(len(residues) - 1, -1, -1):
        c = residues[e]
        if not c:
            continue
        if e == 0:
            parts.append(str(c))
        elif e == 1:
            parts.append("u" if c == 1 else f"{c}u")
        else:
            parts.append(f"u^{e}" if c == 1 else f"{c}u^{e}")
    return " + ".join(parts) if parts else "0"


def smallest_period(terms: Sequence, preperiod: int) -> Optional[int]:
    window = len(terms) - preperiod
    for period in range(1, window // 2 + 1):
        if all(terms[i] == terms[i + period] for i in range(preperiod, len(terms) - period)):
            return period
    return None


def congruence_report(oracle: MomentOracle, values, p: int, periods: int) -> Optional[dict]:
    """The congruence record, or None when the correct answer is BadPrimeError."""
    m_max = 1 + (periods + 1) * (p - 1)
    terms = []
    for member in family_members(oracle, values, m_max):
        residues = reduce_mod_p(member, p)
        if residues is None:
            return None
        terms.append(tuple(residues))
    return {
        "p": p,
        "period_detected": smallest_period(terms, 1),
        "pm1_confirmed": all(terms[i] == terms[i + p - 1] for i in range(1, len(terms) - (p - 1))),
        "preperiod": 1,
        "periods_checked": periods,
        "terms": [fpu_string(t) for t in terms],
    }


# -- numeric engine ----------------------------------------------------


def _mpq(c: Fraction):
    return mp.mpf(c.numerator) / c.denominator


def _shifted_coeffs(coeffs: Sequence[Fraction], a: int, n_period: int, cut: int) -> List[Fraction]:
    """Coefficients in h of Q(h) = P(a + N(cut + h)), exact."""
    x0, step = a + n_period * cut, n_period
    out = [Fraction(0)] * len(coeffs)
    # Horner in the polynomial ring: Q = (...(c_d (x0 + step h) + c_{d-1})...)
    for c in reversed(coeffs):
        nxt = [Fraction(0)] * len(coeffs)
        for i, q in enumerate(out):
            if q:
                nxt[i] += q * x0
                if i + 1 < len(nxt):
                    nxt[i + 1] += q * step
        nxt[0] += c
        out = nxt
    return out


def _power_series(q: Sequence, alpha, order: int) -> List:
    """Coefficients of Q(h)^alpha up to h^order, Q(0) > 0, from Q g' = alpha Q' g."""
    d = len(q) - 1
    g = [mp.exp(alpha * mp.log(q[0]))]
    for n in range(order):
        acc = mp.mpc(0)
        for i in range(1, min(d, n + 1) + 1):
            acc += (alpha * i - (n + 1 - i)) * q[i] * g[n + 1 - i]
        g.append(acc / ((n + 1) * q[0]))
    return g


def _residue_class_sum(coeffs, a: int, n_period: int, s, cut: int, tol, zero_sum_pole: bool):
    """sum_{k>=0} P'(a+Nk) P(a+Nk)^(-s), continued in s; None if EM did not settle."""
    d = len(coeffs) - 1
    cm = [_mpq(c) for c in coeffs]
    head = mp.mpc(0)
    for k in range(cut):
        x = mp.mpf(a + n_period * k)
        px = dpx = mp.mpf(0)
        for c in reversed(cm):
            dpx = dpx * x + px
            px = px * x + c
        head += dpx * mp.exp(-s * mp.log(px))
    q = [_mpq(c) for c in _shifted_coeffs(coeffs, a, n_period, cut)]
    if zero_sum_pole:
        # s = 1: the divergent log P(a+N*inf) cancels across a zero-sum period
        integral = -mp.log(q[0]) / n_period
    else:
        integral = -mp.exp((1 - s) * mp.log(q[0])) / (n_period * (1 - s))
    order = 2 * EM_TERMS
    g = _power_series(q, -s, order)
    # f(K+h) = Q'(h) Q(h)^(-s) / N
    dq = [i * q[i] for i in range(1, d + 1)]
    f = [mp.fsum(dq[i] * g[n - i] for i in range(min(len(dq), n + 1))) / n_period for n in range(order)]
    tail = integral + f[0] / 2
    for j in range(1, EM_TERMS):
        r = 2 * j - 1
        # B_{2j}/(2j)! f^{(2j-1)}(K) = B_{2j}/(2j)! * (2j-1)! [h^{2j-1}] f
        term = mp.bernoulli(2 * j) / (2 * j) * f[r]
        tail -= term
        if abs(term) < tol:
            return head + tail
    return None


def l_value(values, coeffs: Sequence[Fraction], s: complex, digits: int = 40) -> complex:
    """sum_{n>=1} chi(n) P'(n) P(n)^(-s), analytically continued, to ~digits digits."""
    n_period = len(values)
    d = len(coeffs) - 1
    zero_sum = sum(values) == 0
    s_c = complex(s)
    if s_c == 1 and not zero_sum:
        raise ZeroDivisionError("pole at s = 1")
    lead = float(coeffs[-1])
    root_radius = 1 + max(abs(float(c)) / lead for c in coeffs[:-1])
    # cut past the roots and far enough that the EM terms fall geometrically
    cut = int(max(20, 2 * root_radius, 1.2 * abs(s_c) * d)) + 1
    x_cut = n_period * cut + n_period
    # head terms grow like x^(d-1-d*Re s); carry enough digits to cancel them
    growth = (d - 1 - d * s_c.real) * math.log10(x_cut) + math.log10(cut * lead * d + 1) + d * math.log10(lead + 1)
    dps = digits + 10 + max(0, int(growth))
    for _ in range(4):
        with mp.workdps(dps):
            s_mp = mp.mpc(s_c.real, s_c.imag)
            tol = mp.mpf(10) ** (-(digits - 10))
            total = mp.mpc(0)
            settled = True
            for a in range(1, n_period + 1):
                v = values[a - 1]
                if not v:
                    continue
                part = _residue_class_sum(coeffs, a, n_period, s_mp, cut, tol, s_c == 1)
                if part is None:
                    settled = False
                    break
                total += _mpq(Fraction(v)) * part
            if settled:
                return complex(total)
        cut *= 2
        dps += int(max(0.0, -d * s_c.real) * math.log10(2)) + 2
    raise ArithmeticError(f"Euler-Maclaurin reference did not settle at s={s}")


def close(value: complex, ref: complex, rtol: float = EVAL_RTOL) -> bool:
    return abs(value - ref) <= rtol * max(1.0, abs(ref))
