"""lfunpoly benchmark: seeded CLI requests in a closed loop, checked by an oracle.

Run from the checkout root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 40 --trace 0

One client sends the workload's requests one after another through
``lfunpoly.cli.main(argv)`` in a fresh child process until ``--seconds``
seconds of scaled request time have passed (see ``worker.py``).  Every
answer is then checked against ``perfbench/oracle.py``.
The last line of stdout is one JSON object; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(plus an untraced replay of the same requests for the tracing overhead).
A readable report, listing every failed or wrong request, goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read_results(path: Path):
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    path.unlink()
    return rows


# -- checking ----------------------------------------------------------


def _error_kind(code, err: str) -> str:
    if isinstance(code, str):
        return "usage"
    if code == 3:
        return "budget"
    if code == 2:
        try:
            detail = json.loads(err.strip().splitlines()[-1])["detail"]
        except (ValueError, IndexError, KeyError):
            return "domain"
        return "pole" if "pole" in detail else "domain"
    return "parse" if code == 1 else f"exit{code}"


# typed errors that are the correct answer -> text their CLI error record must contain
EXPECTED_ERRORS = {"pole": "pole", "bad_prime": "divides the denominator"}


class Checker:
    """Compares CLI output with the oracle; one outcome per request."""

    def __init__(self):
        from perfbench import oracle

        self.oracle = oracle
        self.moments = oracle.MomentOracle()

    def expected(self, spec: dict):
        """The expected records, or the key of the expected typed error in EXPECTED_ERRORS."""
        o = self.oracle
        values = [Fraction(v) for v in spec["chi"]]
        cmd = spec["cmd"]
        if cmd == "psi":
            return [str(v) for v in self.moments.moments(values, spec["max_degree"])[: spec["max_degree"] + 1]]
        if cmd == "lneg":
            ms = list(range(1, spec["m_max"] + 1))
            coeffs = [Fraction(c) for c in spec["poly"]]
            return [str(v) for v in o.l_negative_values(self.moments, values, coeffs, ms, spec["A"])]
        if cmd == "family":
            return [o.coeff_map(c) for c in o.family_members(self.moments, values, spec["m_max"])]
        if cmd == "congruence":
            report = o.congruence_report(self.moments, values, spec["p"], spec["periods"])
            return report if report is not None else "bad_prime"
        return self._eval_reference(spec, values)

    def _eval_reference(self, spec, values):
        o = self.oracle
        s = complex(spec["s"].replace("i", "j"))
        coeffs = [Fraction(c) for c in spec["poly"]]
        if s == 1 and sum(values) != 0:
            return "pole"
        ref = o.l_value(values, coeffs, s)
        refs = [ref]
        if s.imag == 0 and s.real <= 0 and s.real == int(s.real):
            m = 1 - int(s.real)
            exact = o.l_negative_values(self.moments, values, coeffs, [m])[0]
            refs.append(complex(exact))
        if s.real > 1.5:
            direct = self._direct_sum(values, coeffs, s)
            if direct is not None:
                refs.append(direct)
        return refs

    @staticmethod
    def _direct_sum(values, coeffs, s):
        """The package's naive partial sum, where it converges within a small budget."""
        from lfunpoly import BudgetExceeded, PeriodicFunction, Polynomial, direct_sum

        try:
            return direct_sum(PeriodicFunction(len(values), values), Polynomial(coeffs), 1, s,
                              epsilon=1e-11, max_terms=5_000)
        except BudgetExceeded:
            return None

    def outcome(self, spec: dict, code, out: str, err: str) -> str:
        want = self.expected(spec)
        if isinstance(want, str):
            if code == 2 and EXPECTED_ERRORS[want] in err:
                return "ok"
            return "wrong" if code == 0 else _error_kind(code, err)
        if code != 0:
            return _error_kind(code, err)
        records = json.loads(out)
        cmd = spec["cmd"]
        if cmd in ("psi", "lneg"):
            got = [str(Fraction(r["value"])) for r in records]
        elif cmd == "family":
            got = [r["coeffs"] for r in records]
        elif cmd == "congruence":
            rec = records[0]
            got = {k: rec[k] for k in want}
        else:
            v = records[0]["value"]
            value = complex(v["re"], v["im"])
            return "ok" if all(self.oracle.close(value, ref) for ref in want) else "wrong"
        return "ok" if got == want else "wrong"


def _run_untimed(checker: Checker, requests) -> list:
    """Send requests through the CLI in this process, untimed; one outcome each."""
    from lfunpoly import cli
    from perfbench.worker import _call

    return [checker.outcome(req.spec, *_call(cli.main, req.argv)[1:]) for req in requests]


# -- metrics -----------------------------------------------------------


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def _report(args, rows, requests, outcomes, metrics, extra):
    counts = Counter(outcomes)
    attempted = len(rows)
    failed = attempted - counts["ok"] - counts["wrong"]
    lines = [
        f"workload {args.workload}  seed {args.seed}  attempted {attempted}  "
        + "  ".join(f"{k}={v}" for k, v in sorted(counts.items())),
        f"failed_frac {failed / attempted:.4f}  wrong_frac {counts['wrong'] / attempted:.4f}",
    ]
    for key, value in {**metrics, **extra}.items():
        if isinstance(value, dict):
            lines.append(f"  {key:32s} {value['value']:.6g} {value['unit']}")
        else:
            lines.append(f"  {key:32s} {value}")
    for (index, seconds, _, code, out, err), outcome in zip(rows, outcomes):
        if outcome != "ok":
            detail = err.strip().splitlines()[-1] if err.strip() else ""
            lines.append(f"  request {index} {outcome} ({seconds * 1000:.0f} ms): "
                         f"{' '.join(requests[index].argv)} {detail[:160]}")
    print("\n".join(lines), file=sys.stderr)


def _report_probes(probes, outcomes):
    failing = [(req, outcome) for req, outcome in zip(probes, outcomes) if outcome != "ok"]
    lines = [f"known defect, removable poles of chi=one (untimed, not in attempted): "
             f"{len(failing)} of {len(probes)} probes fail"]
    lines += [f"  probe {req.index} {outcome}: {' '.join(req.argv)}" for req, outcome in failing]
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lfunpoly" / "__init__.py").is_file():
        print(f"lfunpoly sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS, pole_probes, take

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    base = {"workload": args.workload, "seed": args.seed}

    setups = [_worker({**base, "setup_only": True}) for _ in range(SETUP_REPEATS)]
    results_path = OUT_DIR / f"results-{tag}.jsonl"
    job = {**base, "seconds": args.seconds, "results_path": str(results_path),
           "trace": bool(args.trace), "spans_path": str(OUT_DIR / f"spans-{tag}.jsonl")}
    summary = _worker(job)
    rows = _read_results(results_path)
    if not rows:
        print("no request completed", file=sys.stderr)
        return 1

    requests = take(args.workload, args.seed, len(rows))
    checker = Checker()
    outcomes = [checker.outcome(requests[row[0]].spec, *row[3:]) for row in rows]
    probes = pole_probes(args.seed)
    probe_outcomes = _run_untimed(checker, probes)
    probe_failures = len(probes) - probe_outcomes.count("ok")
    attempted = len(rows)
    answered = outcomes.count("ok")
    wrong = outcomes.count("wrong")
    failed = attempted - answered - wrong
    raw_ms = [row[1] * 1000.0 for row in rows]
    scaled_ms = [row[2] * 1000.0 for row in rows]

    if args.trace:
        _worker({**base, "seconds": None, "max_requests": attempted, "results_path": str(results_path)})
        untraced_s = sum(row[2] for row in _read_results(results_path))
        layers = summary["layers"]
        layers["trace.overhead_frac"] = layers["trace.wall_s"] / untraced_s - 1.0
        layers["continuation.removable_pole_failures"] = probe_failures
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()}
        extra = {}
    else:
        metrics = {
            "throughput_rps": {"value": answered / (sum(scaled_ms) / 1000.0), "unit": "1/s"},
            "latency_p50_ms": {"value": _quantile(scaled_ms, 50), "unit": "ms"},
            "latency_p90_ms": {"value": _quantile(scaled_ms, 90), "unit": "ms"},
            "answered_frac": {"value": answered / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(x["setup_s"] for x in setups), "unit": "s"},
        }
        extra = {
            "latency_samples": attempted,
            "unscaled throughput_rps": f"{answered / (sum(raw_ms) / 1000.0):.4g}",
            "unscaled latency_p50_ms": f"{_quantile(raw_ms, 50):.4g}",
            "unscaled latency_p90_ms": f"{_quantile(raw_ms, 90):.4g}",
            "unscaled setup_s": f"{statistics.median(x['setup_raw_s'] for x in setups):.4g}",
        }
    _report(args, rows, requests, outcomes, metrics, extra)
    _report_probes(probes, probe_outcomes)
    correct = wrong == 0 and "wrong" not in probe_outcomes
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
