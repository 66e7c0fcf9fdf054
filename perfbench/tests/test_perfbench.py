"""Tests of the benchmark itself: generator, oracle, checker and tracer.

Run from the checkout root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracle, workloads  # noqa: E402
from perfbench.run import Checker  # noqa: E402
from perfbench.tracer import self_times  # noqa: E402

CHI3 = [Fraction(1), Fraction(-1), Fraction(0)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = workloads.take(workload, 7, 120)
    assert first == workloads.take(workload, 7, 120)
    assert [r.argv for r in first] != [r.argv for r in workloads.take(workload, 8, 120)]
    assert len({r.argv for r in first}) > 100


def test_eval_requests_carry_s_and_one_budget():
    for workload in ("eval-strip", "eval-far"):
        budgets = set()
        for req in workloads.take(workload, 3, 60):
            assert any(a.startswith("--s=") for a in req.argv)
            budgets.add(req.argv[req.argv.index("--max-terms") + 1])
        assert budgets == {str(workloads.MAX_TERMS[workload])}


def test_removable_poles_of_one_are_probed_apart_from_the_timed_stream():
    # the timed stream sends `one` on the real line only to s = 1 (its pole) or
    # off the grid 1 - ell/d, where the continuation raises PoleError by mistake
    for req in workloads.take("eval-strip", 3, 400):
        if req.spec["chi"] == [1] and "i" not in req.spec["s"]:
            s, d = float(req.spec["s"]), len(req.spec["poly"]) - 1
            x = d * (1 - s)
            assert s == 1 or abs(x - round(x)) > 0.1
    probes = workloads.pole_probes(3)
    assert probes == workloads.pole_probes(3)
    grid = {(d, repr(float(1 - Fraction(ell, d)))) for d in (1, 2, 3) for ell in range(1, 2 * d + 1)}
    assert {(len(r.spec["poly"]) - 1, r.spec["s"]) for r in probes} == grid


def test_moment_oracle_known_values():
    moments = oracle.MomentOracle()
    # criterion 1: odd moments of chi3 are -1/3, 2/3, -10/3, ...
    odd = [Fraction(-1, 3), Fraction(2, 3), Fraction(-10, 3), Fraction(98, 3), Fraction(-1618, 3)]
    assert moments.moments(CHI3, 9)[1::2] == odd
    # the constant function gives B_m(1)
    assert moments.moments([Fraction(1)], 4) == [1, Fraction(1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    # criterion 2: L(chi3, X(X+1), -1) = -2/3
    assert oracle.l_negative_values(moments, CHI3, [0, 1, 1], [2]) == [Fraction(-2, 3)]


def test_euler_maclaurin_reference_matches_exact_values():
    moments = oracle.MomentOracle()
    for values, coeffs in ((CHI3, [0, 1, 1]), ([Fraction(1), 0, Fraction(-1), 0], [1, 2, 0, 1])):
        coeffs = [Fraction(c) for c in coeffs]
        for m in (1, 2, 4):
            exact = oracle.l_negative_values(moments, values, coeffs, [m])[0]
            assert oracle.close(oracle.l_value(values, coeffs, 1 - m), complex(exact), 1e-12)


def test_euler_maclaurin_reference_matches_direct_sum():
    from lfunpoly import PeriodicFunction, Polynomial, direct_sum

    coeffs = [Fraction(c) for c in (2, 1, 3)]
    s = 3.2 + 4j
    naive = direct_sum(PeriodicFunction(3, CHI3), Polynomial(coeffs), 1, s)
    assert oracle.close(oracle.l_value(CHI3, coeffs, s), naive, 1e-10)


def _cli(argv):
    from perfbench.worker import _call
    from lfunpoly import cli

    _, code, out, err = _call(cli.main, argv)
    return code, out, err


def test_checker_accepts_known_answers_and_rejects_a_wrong_one():
    checker = Checker()
    psi = {"cmd": "psi", "chi": [1, -1, 0], "max_degree": 13}
    code, out, err = _cli(["--format", "json", "psi", "--chi", "chi3", "--max-degree", "13"])
    assert checker.outcome(psi, code, out, err) == "ok"
    tampered = json.loads(out)
    tampered[1]["value"] = "1/3"
    assert checker.outcome(psi, 0, json.dumps(tampered), "") == "wrong"

    lneg = {"cmd": "lneg", "chi": [1, -1, 0], "poly": [0, 1, 1], "m_max": 2, "A": 1}
    code, out, err = _cli(["--format", "json", "lneg", "--chi", "chi3", "--poly", "0,1,1", "--m-range", "1..2"])
    assert json.loads(out)[1]["value"] == "-2/3"
    assert checker.outcome(lneg, code, out, err) == "ok"

    ev = {"cmd": "eval", "chi": [1, -1, 0], "poly": [0, 1, 1], "s": "-1.0"}
    code, out, err = _cli(["--format", "json", "eval", "--chi", "chi3", "--poly", "0,1,1", "--s=-1.0"])
    assert checker.outcome(ev, code, out, err) == "ok"


def test_checker_counts_expected_typed_errors_as_correct():
    checker = Checker()
    chi = "period=5;values=1,2,-1,0,3"
    cong = {"cmd": "congruence", "chi": [1, 2, -1, 0, 3], "p": 5, "periods": 2}
    code, out, err = _cli(["--format", "json", "congruence", "--chi", chi, "--p", "5", "--periods", "2"])
    assert code == 2 and checker.outcome(cong, code, out, err) == "ok"

    pole = {"cmd": "eval", "chi": [1], "poly": [0, 1, 1], "s": "1.0"}
    code, out, err = _cli(["--format", "json", "eval", "--chi", "one", "--poly", "0,1,1", "--s=1.0"])
    assert code == 2 and checker.outcome(pole, code, out, err) == "ok"

    removable = {"cmd": "eval", "chi": [1], "poly": [0, 1, 1], "s": "0.5"}
    code, out, err = _cli(["--format", "json", "eval", "--chi", "one", "--poly", "0,1,1", "--s=0.5"])
    assert checker.outcome(removable, code, out, err) == "pole"


def _worker(job):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("workload,count", [("exact", 12), ("eval-strip", 6), ("eval-far", 3)])
def test_small_fixed_seed_run_has_no_wrong_answers(tmp_path, workload, count):
    results = tmp_path / "results.jsonl"
    summary = _worker({"workload": workload, "seed": 11, "seconds": None, "max_requests": count,
                       "results_path": str(results)})
    rows = [json.loads(line) for line in results.read_text().splitlines()]
    assert summary["attempted"] == len(rows) == count
    requests = workloads.take(workload, 11, count)
    checker = Checker()
    outcomes = [checker.outcome(requests[row[0]].spec, *row[3:]) for row in rows]
    assert "wrong" not in outcomes


def test_traced_self_times_add_up_to_traced_wall(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    summary = _worker({"workload": "exact", "seed": 5, "seconds": None, "max_requests": 16, "trace": True,
                       "results_path": str(tmp_path / "results.jsonl"), "spans_path": str(spans_path)})
    layers = summary["layers"]
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    spans = [[s["name"], s["start"], s["end"], s["parent"], s["request"], s["error"], s["attrs"]] for s in spans]
    rows = [json.loads(line) for line in (tmp_path / "results.jsonl").read_text().splitlines()]
    scales = {index: scaled / seconds for index, seconds, scaled, *_ in rows}
    selfs = self_times(spans, scales)
    assert min(selfs.values()) >= 0
    assert math.isclose(sum(selfs.values()) + layers["trace.unattributed_s"], layers["trace.wall_s"], rel_tol=1e-9)
    assert math.isclose(layers["trace.wall_s"], sum(scaled for _, _, scaled, *_ in rows), rel_tol=1e-9)
    # only the in-process call harness lies outside the root spans
    assert 0 <= layers["trace.unattributed_s"] < 0.05 * layers["trace.wall_s"]
    # every exact request builds exactly one moment table
    assert layers["psi.table_calls"] == 16
    assert layers["polynomials.power_calls"] > 0 and layers["psi.moments_built"] > 0


def test_run_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("__init__.py", "run.py", "worker.py", "workloads.py", "oracle.py", "tracer.py"):
        (tmp_path / "perfbench" / name).write_text((ROOT / "perfbench" / name).read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
