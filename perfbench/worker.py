"""Child process that imports lfunpoly and answers one workload's requests.

Reads a job as JSON on stdin, writes one JSON summary on stdout.  A fresh
child per measurement means import time, warm-up and peak RSS belong to the
program alone.  Usage (from the checkout root):

    echo '{"workload": "exact", "seed": 1, "seconds": 5, "results_path": "r.jsonl"}' \\
        | python3 perfbench/worker.py

Shared machines change speed from second to second, so every request is
bracketed by a short fixed calibration loop.  A request's *scaled* time is
its measured time times CAL_REFERENCE_S over the mean of the two loop times
around it: milliseconds at the speed where the loop takes CAL_REFERENCE_S.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

CAL_REFERENCE_S = 0.0006
WALL_CAP = 1.2


def calibrate() -> float:
    """Seconds taken by a fixed mix of rational, complex and dict work."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 40):
        acc += Fraction(k, k + 7) ** 3
    z = 0j
    for k in range(1, 400):
        z = z * 0.5 + complex(k, -k) ** 0.5
    counts = {}
    for k in range(400):
        counts[k % 37] = counts.get(k % 37, 0) + k * k
    return time.perf_counter() - start


def _call(main, argv):
    """Run one CLI request in-process: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = f"usage:{exc.code}"
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def _setup(workload: str):
    calibrate()
    before = calibrate()
    start = time.perf_counter()
    from lfunpoly import cli

    _call(cli.main, workloads.WARMUP[workload])
    seconds = time.perf_counter() - start
    scale = CAL_REFERENCE_S / ((before + calibrate()) / 2)
    return cli, seconds, seconds * scale


def run(job: dict) -> dict:
    cli, setup_raw, setup_scaled = _setup(job["workload"])
    summary = {"setup_s": setup_scaled, "setup_raw_s": setup_raw}
    if job.get("setup_only"):
        return summary

    main = cli.main
    tracer = None
    if job.get("trace"):
        from perfbench.tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        main = tracer.wrap(ROOT_SPAN, cli.main)

    requests = workloads.stream(job["workload"], job["seed"])
    limit = job.get("max_requests")
    if limit is not None:
        requests = itertools.islice(requests, limit)
    budget = job.get("seconds")
    timings = {}
    scaled_total = 0.0
    with open(job["results_path"], "w") as results:
        loop_start = time.perf_counter()
        cal_before = calibrate()
        for req in requests:
            # run for `seconds` of scaled request time, so that a slow spell on
            # the machine does not shorten the stretch of the stream measured;
            # the wall-clock cap bounds the run on a machine slower than the reference
            if budget is not None and (
                scaled_total >= budget or time.perf_counter() - loop_start >= WALL_CAP * budget
            ):
                break
            if tracer:
                tracer.request = req.index
            seconds, code, out, err = _call(main, req.argv)
            cal_after = calibrate()
            scale = CAL_REFERENCE_S / ((cal_before + cal_after) / 2)
            cal_before = cal_after
            timings[req.index] = (seconds, scale)
            scaled_total += seconds * scale
            results.write(json.dumps([req.index, seconds, seconds * scale, code, out, err]) + "\n")
    summary.update(
        attempted=len(timings),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer:
        from perfbench.tracer import layer_metrics

        tracer.write(job["spans_path"])
        summary["layers"] = layer_metrics(tracer.spans, timings)
    return summary


if __name__ == "__main__":
    print(json.dumps(run(json.load(sys.stdin))))
