"""Spans around the public functions of each lfunpoly module.

Wrappers are installed on the attribute the caller looks up (for example
``special_values.poly_power``, which ``l_negative`` calls), so nothing in
``src/`` changes.  Spans live in memory as ``[name, start, end, parent,
request, error, attrs]`` and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

# (module, attribute looked up by the caller, span name)
PATCHES = [
    ("lfunpoly.psi", "psi_table", "psi.table"),
    ("lfunpoly.psi", "series_divide", "series.divide"),
    ("lfunpoly.special_values", "psi_apply", "psi.apply"),
    ("lfunpoly.special_values", "poly_power", "polynomials.power"),
    ("lfunpoly.special_values", "l_negative", "special_values.lneg"),
    ("lfunpoly.special_values", "family_sequence", "special_values.family"),
    ("lfunpoly.congruence", "family_sequence", "special_values.family"),
    ("lfunpoly.congruence", "fpu_reduce", "finitefield.reduce"),
    ("lfunpoly.congruence", "period_detect", "congruence.period"),
    ("lfunpoly.congruence", "congruence_scan", "congruence.scan"),
    ("lfunpoly.continuation", "make_plan", "continuation.plan"),
    ("lfunpoly.continuation", "find_roots", "roots.find"),
    ("lfunpoly.roots", "refine_roots", "roots.refine"),
    ("lfunpoly.continuation", "continuation_eval", "continuation.eval"),
    ("lfunpoly.continuation", "hurwitz_zeta", "continuation.hurwitz"),
    ("lfunpoly.continuation", "_hurwitz_reg1", "continuation.hurwitz"),
]

ROOT_SPAN = "cli.main"

# per-layer metric -> (span name, "self" seconds or "calls")
SELF_TIMES = {
    "cli.self_s": ROOT_SPAN,
    "series.divide_s": "series.divide",
    "psi.table_s": "psi.table",
    "psi.apply_s": "psi.apply",
    "polynomials.power_s": "polynomials.power",
    "special_values.lneg_s": "special_values.lneg",
    "special_values.family_s": "special_values.family",
    "finitefield.reduce_s": "finitefield.reduce",
    "congruence.period_s": "congruence.period",
    "congruence.scan_s": "congruence.scan",
    "continuation.plan_s": "continuation.plan",
    "roots.find_s": "roots.find",
    "roots.refine_s": "roots.refine",
    "continuation.self_s": "continuation.eval",
    "continuation.hurwitz_s": "continuation.hurwitz",
}
CALLS = {
    "psi.table_calls": "psi.table",
    "polynomials.power_calls": "polynomials.power",
    "finitefield.reduce_calls": "finitefield.reduce",
    "continuation.hurwitz_calls": "continuation.hurwitz",
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.request: int = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request, None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if name == "psi.table":
                span[6] = [list(map(str, result.chi.values)), result.max_degree]
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr)))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request, error, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "request": request, "error": error, "attrs": attrs}) + "\n")


def self_times(spans: List[list], scales: Optional[Dict[int, float]] = None) -> Dict[str, float]:
    """Span duration minus the part of it that child spans cover, summed per name.

    With ``scales`` (request -> factor), each span is scaled by its request's factor.
    """
    child_total = defaultdict(float)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_total[parent] += end - start
    out: Dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent, request, *_) in enumerate(spans):
        factor = scales[request] if scales else 1.0
        out[name] += ((end - start) - child_total[idx]) * factor
    return out


def layer_metrics(spans: List[list], timings: Dict[int, Tuple[float, float]]) -> Dict[str, float]:
    """Per-layer metrics of a traced run, in scaled seconds.

    ``timings`` maps each request to (measured seconds, scale factor); the
    traced wall is the sum of the scaled request times, and whatever part of
    it no span covers is reported as ``trace.unattributed_s``.
    """
    selfs = self_times(spans, {index: scale for index, (_, scale) in timings.items()})
    wall_s = sum(seconds * scale for seconds, scale in timings.values())
    calls = defaultdict(int)
    errors = defaultdict(int)
    built = 0
    needed = set()
    for name, _, _, _, _, error, attrs in spans:
        calls[name] += 1
        if error:
            errors[name, error] += 1
        if attrs is not None:
            values, max_degree = attrs
            built += max_degree + 1
            needed.update((tuple(values), m) for m in range(max_degree + 1))
    metrics = {key: selfs.get(name, 0.0) for key, name in SELF_TIMES.items()}
    metrics.update({key: calls.get(name, 0) for key, name in CALLS.items()})
    metrics["psi.moments_built"] = built
    metrics["psi.reuse_ratio"] = len(needed) / built if built else 0.0
    metrics["continuation.budget_exhausted"] = errors["continuation.eval", "BudgetExceeded"]
    metrics["continuation.pole_errors"] = errors["continuation.eval", "PoleError"]
    metrics["trace.wall_s"] = wall_s
    metrics["trace.unattributed_s"] = wall_s - sum(selfs.values())
    metrics["trace.spans"] = len(spans)
    return metrics
