"""Seeded request streams for the three workloads.

Each workload is an endless stream of CLI argv lists.  Request i always has
the same kind (command, chi, degree, region of s) and draws its sizes from
the same strata of their ranges; the seed picks the values inside those
strata, the polynomial coefficients and the remaining choices.  Runs with
different seeds therefore send different inputs with the same cost profile,
which keeps their medians and throughputs comparable even though a run
completes only a few hundred requests.

The program sees only ``Request.argv``; ``Request.spec`` carries the same
inputs as numbers for the oracle.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

WORKLOADS = ("exact", "eval-strip", "eval-far")

# One fixed term budget per eval workload.  The strip budget is generous so
# that only genuine (and removable) poles fail there; the far budget is the
# one at which the remainder-sum defects show as BudgetExceeded.
MAX_TERMS = {"eval-strip": 20_000, "eval-far": 1_000}

WARMUP = {
    "exact": ["--format", "json", "lneg", "--chi", "chi3", "--poly", "0,1,1", "--m-range", "1..5"],
    "eval-strip": ["--format", "json", "eval", "--chi", "chi3", "--poly", "0,1,1",
                   "--s=0.5+2i", "--max-terms", str(MAX_TERMS["eval-strip"])],
    "eval-far": ["--format", "json", "eval", "--chi", "chi4", "--poly", "1,1,1",
                 "--s=-2.5+1i", "--max-terms", str(MAX_TERMS["eval-far"])],
}

NAMED = {"chi3": (1, -1, 0), "chi4": (1, 0, -1, 0), "one": (1,)}
# A degree-1 eval at large |Im s| can take seconds, and its cost swings
# several-fold with b/a in P = aX + b and with s inside its stratum.  So the
# complex degree-1 requests are fixed rather than seeded, like TABLES below:
# P goes round this list and s sits at the middle of its strata.
LINEAR = [(b, a) for a in (1, 2, 3) for b in range(6)]
STRATA = 16


@dataclass(frozen=True)
class Request:
    index: int
    argv: Tuple[str, ...]
    spec: Dict


# Period-5 and period-6 tables, zero-sum and not.  They are fixed rather than
# seeded because the size of their values sets the cost of every request on
# them.  Reducing the family of (1,2,-1,0,3) at p = 5 must raise BadPrimeError.
TABLES = {"p5z": (1, 2, -1, 0, -2), "p5n": (1, 2, -1, 0, 3), "p6z": (1, 0, -1, 1, 0, -1), "p6n": (2, 1, 0, 1, -1, 1)}


def chi_kinds() -> Dict[str, Tuple[str, Tuple[int, ...]]]:
    """The seven chi of the exact workload: CLI spec and values chi(1..N)."""
    kinds = {name: (name, vals) for name, vals in NAMED.items()}
    for tag, vals in TABLES.items():
        kinds[tag] = (f"period={len(vals)};values=" + ",".join(map(str, vals)), vals)
    return kinds


def _poly(rng: random.Random, degree: int, coeff_max: int, lead_max: int) -> Tuple[int, ...]:
    return tuple([rng.randint(0, coeff_max) for _ in range(degree)] + [rng.randint(1, lead_max)])


def _fmt_s(s: complex) -> str:
    if s.imag == 0:
        return repr(s.real)
    return f"{s.real:.4f}{s.imag:+.4f}i"


def _schedule(rng: random.Random, combos: List[tuple]) -> Iterator[Tuple[tuple, int, float, float]]:
    """Yield (combo, occurrence, u, v) forever, u and v in [0, 1).

    The combos repeat in one fixed order.  Occurrence b of combo c takes u
    from stratum (b + 5c) mod STRATA and v from stratum (3b + c) mod STRATA;
    only the position inside the stratum comes from the seed.
    """
    for block in itertools.count():
        for c, combo in enumerate(combos):
            ku, kv = (block + 5 * c) % STRATA, (3 * block + c) % STRATA
            yield combo, block, (ku + rng.random()) / STRATA, (kv + rng.random()) / STRATA


def _interleaved(combos: List[tuple]) -> List[tuple]:
    """A fixed, seed-independent order that spreads each factor's levels."""
    combos = list(combos)
    random.Random(len(combos)).shuffle(combos)
    return combos


def _exact(rng: random.Random) -> Iterator[Tuple[Tuple[str, ...], Dict]]:
    kinds = chi_kinds()
    combos = _interleaved((cmd, kind) for cmd in ("psi", "lneg", "family", "congruence") for kind in kinds)
    for (cmd, kind), occurrence, u, _ in _schedule(rng, combos):
        chi_spec, values = kinds[kind]
        spec = {"cmd": cmd, "chi": list(values)}
        argv = ["--format", "json", cmd, "--chi", chi_spec]
        if cmd == "psi":
            spec["max_degree"] = round(20 * 15**u)
            argv += ["--max-degree", str(spec["max_degree"])]
        elif cmd == "lneg":
            table_degree = round(10 * 15**u)
            degree = min(1 + occurrence % 6, table_degree)
            spec["poly"] = list(_poly(rng, degree, 9, 9))
            spec["m_max"] = max(1, table_degree // degree)
            spec["A"] = rng.choice((1, 1, 2, 3))
            argv += ["--poly", ",".join(map(str, spec["poly"])), "--m-range", f"1..{spec['m_max']}"]
            if spec["A"] != 1:
                argv += ["--A", str(spec["A"])]
        elif cmd == "family":
            spec["m_max"] = round(5 * 14**u)
            argv += ["--m-range", f"1..{spec['m_max']}"]
        else:
            spec["p"] = (5, 7, 11, 13)[int(4 * u)]
            spec["periods"] = 1 + occurrence % 2
            argv += ["--p", str(spec["p"]), "--periods", str(spec["periods"])]
        yield tuple(argv), spec


def _eval(rng: random.Random, workload: str) -> Iterator[Tuple[Tuple[str, ...], Dict]]:
    if workload == "eval-strip":
        # real s walks the grid 1 - ell/d; degree 1 gets one complex draw, not
        # three, because its remainder can need thousands of terms and would
        # otherwise set the tail latency on its own
        slots = {1: ("c0", "real"), 2: ("c0", "c1", "c2", "real"), 3: ("c0", "c1", "c2", "real")}
        combos = [(chi, d, slot) for chi in NAMED for d in (1, 2, 3) for slot in slots[d]]
    else:
        combos = [(chi, d, region) for chi in NAMED for d in (2, 3, 4) for region in ("left", "high_im")]
    max_terms = MAX_TERMS[workload]
    for (chi, d, slot), occurrence, u, v in _schedule(rng, _interleaved(combos)):
        sign = (-1, 1)[occurrence % 2]
        if d == 1 and slot != "real":
            u, v = (int(u * STRATA) + 0.5) / STRATA, (int(v * STRATA) + 0.5) / STRATA
            coeffs = LINEAR[(5 * occurrence + 6 * list(NAMED).index(chi)) % len(LINEAR)]
        else:
            coeffs = _poly(rng, d, 5, 3)
        if slot == "real":
            ell = int((2 * d + 1) * u)
            s = complex(1 - Fraction(ell, d))
            if chi == "one" and ell:
                # `one` raises PoleError at its removable poles 1 - ell/d, a
                # known defect; those points are sent apart by pole_probes, so
                # the timed stream takes the half-way points of the grid
                s = complex(1 - Fraction(2 * ell - 1, 2 * d))
        elif workload == "eval-strip":
            s = complex(-1 + 4 * u, sign * (0.05 + 9.95 * v))
        elif slot == "left":
            s = complex(-4 + 3 * u, sign * (0.05 + 4.95 * v))
        else:
            s = complex(-1 + 4 * u, sign * (20 + 40 * v))
        s_text = _fmt_s(s)
        argv = ("--format", "json", "eval", "--chi", chi, "--poly", ",".join(map(str, coeffs)),
                f"--s={s_text}", "--max-terms", str(max_terms))
        yield argv, {"cmd": "eval", "chi": list(NAMED[chi]), "poly": list(coeffs), "s": s_text}


def stream(workload: str, seed: int) -> Iterator[Request]:
    """The workload's endless request stream for this seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    source = _exact(rng) if workload == "exact" else _eval(rng, workload)
    for index, (argv, spec) in enumerate(source):
        yield Request(index, argv, spec)


def take(workload: str, seed: int, count: int) -> List[Request]:
    return list(itertools.islice(stream(workload, seed), count))


def pole_probes(seed: int) -> List[Request]:
    """``eval`` of ``one`` at every removable pole 1 - ell/d, ell = 1..2d, d = 1..3.

    The correct answer at each is a finite value (the only pole is s = 1), but
    the continuation raises PoleError wherever d s - (d-1) + ell hits 1.  These
    requests run apart from the timed stream, once per run, so that the defect
    shows in every report until it is fixed.
    """
    rng = random.Random(f"pole-probes:{seed}")
    probes = []
    for d in (1, 2, 3):
        for ell in range(1, 2 * d + 1):
            coeffs = _poly(rng, d, 5, 3)
            s_text = _fmt_s(complex(1 - Fraction(ell, d)))
            argv = ("--format", "json", "eval", "--chi", "one", "--poly", ",".join(map(str, coeffs)),
                    f"--s={s_text}", "--max-terms", str(MAX_TERMS["eval-strip"]))
            probes.append(Request(len(probes), argv,
                                  {"cmd": "eval", "chi": list(NAMED["one"]), "poly": list(coeffs), "s": s_text}))
    return probes
