import csv
import hashlib
import io
import json
import shlex
import time
from pathlib import Path

import pytest

import lfunpoly
from lfunpoly import chi3, direct_sum
from lfunpoly.cli import EXIT_BUDGET, EXIT_DOMAIN, EXIT_PARSE, main
from lfunpoly.polynomials import Polynomial
from checks import run_fresh


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "psi", "--chi", "chi3", "--max-degree", "5")
    assert code == 0
    records = json.loads(out)
    values = [r["value"] for r in records]
    assert values == ["0", "-1/3", "0", "2/3", "0", "-10/3"]


def test_lneg_worked_example_text(capsys):
    code, out, _ = run(capsys, "lneg", "--chi", "chi3", "--poly", "0,1,1", "--m", "2")
    assert code == 0
    assert "-2/3" in out


def test_lneg_m_range_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "lneg", "--chi", "chi3", "--poly", "0,1,1", "--m-range", "1..3"
    )
    assert code == 0
    records = json.loads(out)
    assert [r["s"] for r in records] == [0, -1, -2]
    assert records[1]["value"] == "-2/3"


def test_family_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "family", "--chi", "chi3", "--m-range", "1..3")
    assert code == 0
    records = json.loads(out)
    assert records[0]["coeffs"] == {"1": "-1/3"}
    assert records[1]["coeffs"] == {"1": "2/3"}
    assert records[2]["coeffs"] == {"1": "-10/3", "3": "2/9"}


def test_eval_matches_direct_sum(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "eval", "--chi", "chi3", "--poly", "0,1,1", "--s", "3"
    )
    assert code == 0
    value = json.loads(out)[0]["value"]
    ref = direct_sum(chi3(), Polynomial.from_rationals([0, 1, 1]), 1, 3.0, epsilon=1e-11)
    assert abs(complex(value["re"], value["im"]) - ref) < 1e-9


def test_eval_from_roots(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "eval",
        "--chi",
        "chi3",
        "--roots",
        "0,0",
        "--leading-coeff",
        "2",
        "--s",
        "2",
    )
    assert code == 0
    assert json.loads(out)[0]["kind"] == "eval_point"


def test_eval_complex_s(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "eval", "--chi", "chi3", "--poly", "0,1,1", "--s", "2+1i"
    )
    assert code == 0
    value = json.loads(out)[0]["value"]
    assert value["im"] != 0


def test_congruence_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "congruence", "--chi", "chi3", "--p", "5", "--periods", "1"
    )
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["period_detected"] == 4
    assert rec["pm1_confirmed"] is True
    assert rec["terms"][:6] == ["3u", "4u", "3u^3", "u", "2u^3", "4u"]


def test_custom_chi_spec(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "lneg",
        "--chi",
        "period=3;values=1,-1,0",
        "--poly",
        "0,1,1",
        "--m",
        "2",
    )
    assert code == 0
    assert json.loads(out)[0]["value"] == "-2/3"


def test_csv_output(capsys):
    code, out, _ = run(capsys, "--format", "csv", "lneg", "--chi", "chi3", "--poly", "0,1,1", "--m", "2")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["value"] == "-2/3"
    assert rows[0]["m"] == "2"


def test_deterministic_output(capsys):
    argv = ["--format", "json", "eval", "--chi", "chi3", "--poly", "0,1,1", "--s", "0.5"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


# sha256 of the `--format json` stdout of exact commands, with the exit code,
# recorded before the exact engine moved to integer numerators; the empty
# stdout of exit code 2 is BadPrimeError (13 divides the denominator of B_12)
EXACT_COMMANDS = {
    "psi": ["psi", "--max-degree", "300"],
    "lneg": ["lneg", "--poly", "1/2,-5/7,2", "--m-range", "1..40", "--A", "3"],
    "family": ["family", "--m-range", "1..70"],
    "congruence": ["congruence", "--p", "13", "--periods", "2"],
}
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
EXACT_OUTPUTS = {
    ("chi3", "psi"): (0, "4b088f179a8901ebc72c84b2471e0c767fcb8b5ec9223f2495f903a42c08de09"),
    ("chi3", "lneg"): (0, "fab12ba895ce80f3c657d702394bb87358b076c89f15f729a02a8528c723060e"),
    ("chi3", "family"): (0, "78ed492c5a56fcff3d9176e108382c62aa2f16bec9d080cf09ba70a839fad7cc"),
    ("chi3", "congruence"): (0, "47ca6bcec3122a39addeae1b05911521e34bc30548219856a7e7a1faa9564f8f"),
    ("one", "psi"): (0, "b66dd8f11649490bf87501295ad93ede7d7986bdfd906699a87731842622400b"),
    ("one", "lneg"): (0, "e985acc9e0f8c8d421af4259965cf12dd9564492368246c77b40ab2b40ad120a"),
    ("one", "family"): (0, "94c331aa1977923d239e107d1e3bd91eb31a65de4b852171c431cb0e4106660b"),
    ("one", "congruence"): (2, EMPTY),
    ("period=6;values=2,1,0,1,-1,1", "psi"): (
        0, "d3eb2c7492717976ebfdcf71df7d0edacbb03d9b305d664de61715a68099740b"
    ),
    ("period=6;values=2,1,0,1,-1,1", "lneg"): (
        0, "ee7beb6e091bd1e685120b1ade05151d7461160fa4341684b58b7566e20e23bc"
    ),
    ("period=6;values=2,1,0,1,-1,1", "family"): (
        0, "92c361f66a4e7c01ce6c2a06017d0d5e7b57e65447eb50938daf11582eaf375e"
    ),
    ("period=6;values=2,1,0,1,-1,1", "congruence"): (2, EMPTY),
}


@pytest.mark.parametrize("chi, command", list(EXACT_OUTPUTS))
def test_exact_outputs_unchanged(capsys, chi, command):
    name, *rest = EXACT_COMMANDS[command]
    code, out, _ = run(capsys, "--format", "json", name, "--chi", chi, *rest)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == EXACT_OUTPUTS[chi, command]


# -- failure modes ----------------------------------------------------


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "lneg", "--chi", "chi3", "--poly", "0,x,1", "--m", "2")
    assert code == EXIT_PARSE
    assert json.loads(err)["error"] == "parse"
    assert out == ""


def test_missing_m_is_parse_error(capsys):
    code, _, err = run(capsys, "lneg", "--chi", "chi3", "--poly", "0,1,1")
    assert code == EXIT_PARSE
    assert "exactly one" in json.loads(err)["detail"]


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["--poly=-2,1", "--m", "2"], "vanishes at n=2"),
        (["--poly", "0", "--m", "2"], "non-constant"),
        (["--poly", "0,1,1", "--m", "2", "--A", "0"], "offset_A must be >= 1"),
        (["--poly", "0,1,1", "--m", "2", "--A", "-3"], "offset_A must be >= 1"),
    ],
    ids=["root-at-2", "zero-poly", "A-zero", "A-negative"],
)
def test_domain_error_exit_code(capsys, argv, detail):
    code, out, err = run(capsys, "lneg", "--chi", "chi3", *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    record = json.loads(err)
    assert record["error"] == "domain"
    assert detail in record["detail"]


def test_eval_rejects_polynomial_negative_from_offset(capsys):
    argv = ["--format", "json", "eval", "--chi", "chi3", "--poly", "1,-10,1", "--s=2"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert json.loads(err)["detail"] == "polynomial not positive at n=1"
    code, out, _ = run(capsys, *argv, "--A", "10")
    assert code == 0
    assert json.loads(out)[0]["A"] == 10


@pytest.mark.parametrize("poly", ["0,1", "0,1,1"], ids=["monomial", "general"])
@pytest.mark.parametrize("eps", ["0", "-1e-12", "nan"])
def test_eval_rejects_non_positive_eps(capsys, poly, eps):
    code, out, err = run(capsys, "eval", "--chi", "chi3", "--poly", poly, "--s=2", f"--eps={eps}")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert json.loads(err)["detail"] == "tail_epsilon must be a finite number > 0"


@pytest.mark.parametrize("s", ["nan", "1e400", "nanj", "0.5+1e309i"])
def test_eval_rejects_non_finite_s(capsys, s):
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--chi", "chi3", "--poly", "0,1,1", f"--s={s}")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_PARSE
    assert out == ""
    assert json.loads(err) == {
        "kind": "error", "error": "parse", "detail": f"complex number {s!r} is not finite"
    }


def test_eval_rejects_negative_max_terms(capsys):
    argv = ["eval", "--chi", "chi3", "--poly", "0,1,1", "--s=0.5", "--max-terms"]
    code, out, err = run(capsys, *argv, "-5")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert json.loads(err)["detail"] == "tail_max_terms must be >= 0"
    assert run(capsys, "eval", "--chi", "chi3", "--poly", "0,1,1", "--s=3", "--max-terms", "0")[0] == 0


@pytest.mark.parametrize(
    "roots, detail",
    [("5.5", "polynomial not positive at n=1"), ("1j", "has no conjugate among the roots")],
    ids=["negative-at-1", "non-real"],
)
def test_eval_roots_keep_the_poly_domain(capsys, roots, detail):
    # X - 11/2 is negative at n = 1..5, as --poly=-11/2,1 is; X - i is not real
    code, out, err = run(capsys, "eval", "--chi", "chi3", f"--roots={roots}", "--s", "0.5")
    assert code == EXIT_DOMAIN
    assert out == ""
    assert detail in json.loads(err)["detail"]


def test_eval_conjugate_roots_match_their_polynomial(capsys):
    # (X - 1/2 - i)(X - 1/2 + i) = X^2 - X + 5/4
    for s in ("0.5", "2+3i"):
        from_roots = run(capsys, "eval", "--chi", "chi3", "--roots=0.5+1j,0.5-1j", f"--s={s}")
        from_poly = run(capsys, "eval", "--chi", "chi3", "--poly", "5/4,-1,1", f"--s={s}")
        assert from_roots[0] == 0
        assert from_roots == from_poly


@pytest.mark.parametrize("fmt, poly, s", [("text", "0,1000", "-150"), ("json", "0,10", "-200")])
def test_eval_value_out_of_double_range(capsys, fmt, poly, s):
    # about -2e667 and 3e511: no -inf or Infinity (invalid JSON) on stdout
    argv = ["--format", fmt, "eval", "--chi", "chi3", "--poly", poly, f"--s={s}"]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "is outside the range of a complex double" in json.loads(err)["detail"]


def test_lneg_huge_constant_term_answers_in_time():
    # P = X + c with chi3 (mu_0 = mu_2 = 0, mu_1 = -1/3): the value at s = 0
    # is 1/3 and at s = -1 it is c/3; the scan for roots must not run to c
    script = """
import contextlib, io, json, time
from lfunpoly.cli import main
results = []
for poly, m in (("1e300,1", "1"), ("1e30,1", "2")):
    out, start = io.StringIO(), time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["--format", "json", "lneg", "--chi", "chi3", f"--poly={poly}", "--m", m])
    results.append([code, json.loads(out.getvalue())[0]["value"], time.perf_counter() - start])
print(json.dumps(results))
"""
    (code1, v1, t1), (code2, v2, t2) = json.loads(run_fresh(script, timeout=30))
    assert (code1, v1) == (0, "1/3")
    assert (code2, v2) == (0, "1000000000000000000000000000000/3")
    assert max(t1, t2) < 2.0


@pytest.mark.parametrize("s", ["1e300", "1e300i", "1e200+1e200i"])
def test_eval_huge_s_exits_in_time(capsys, s):
    # the Euler-Maclaurin order search overflows to inf at |w| ~ 1e154; it
    # must give up on every cut instead of growing the order forever
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--chi", "chi3", "--poly", "0,1,1", f"--s={s}")
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_DOMAIN
    assert out == ""
    assert "no Euler-Maclaurin cut up to n=" in json.loads(err)["detail"]


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys,
        "eval",
        "--chi",
        "chi3",
        "--poly",
        "0,1,1",
        "--s",
        "0.5",
        "--eps",
        "1e-30",
        "--max-terms",
        "5",
    )
    assert code == EXIT_BUDGET
    assert json.loads(err)["error"] == "budget"


def test_bad_chi_spec(capsys):
    code, _, err = run(capsys, "psi", "--chi", "period=0;values=", "--max-degree", "3")
    assert code == EXIT_PARSE


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# -- lazy numeric engine and docs --------------------------------------

ENGINE_MODULES = ("mpmath", "lfunpoly.continuation", "lfunpoly.roots")


def test_exact_commands_do_not_load_numeric_engine():
    script = f"""
import contextlib, io, json, sys
from lfunpoly.cli import main
def call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--format", "json", *argv]) == 0
    return json.loads(out.getvalue())
call("psi", "--chi", "chi3", "--max-degree", "8")
call("lneg", "--chi", "chi3", "--poly", "0,1,1", "--m-range", "1..4")
call("family", "--chi", "chi3", "--m-range", "1..4")
call("congruence", "--chi", "chi3", "--p", "5", "--periods", "1")
exact = [m for m in {ENGINE_MODULES!r} if m in sys.modules]
value = call("eval", "--chi", "chi3", "--poly", "0,1,1", "--s", "3")[0]["value"]
numeric = [m for m in {ENGINE_MODULES!r} if m in sys.modules]
print(json.dumps([exact, numeric, value]))
"""
    exact, numeric, value = json.loads(run_fresh(script))
    assert exact == []
    assert numeric == list(ENGINE_MODULES)
    ref = direct_sum(chi3(), Polynomial.from_rationals([0, 1, 1]), 1, 3.0, epsilon=1e-11)
    assert abs(complex(value["re"], value["im"]) - ref) < 1e-9


def test_public_names_resolve_lazily():
    script = """
import json
import lfunpoly
namespace = {}
exec("from lfunpoly import *", namespace)
unbound = [n for n in lfunpoly.__all__ if n not in namespace]
unresolved = [n for n in lfunpoly.__all__ if getattr(lfunpoly, n) is not namespace.get(n)]
import lfunpoly.continuation
print(json.dumps([unbound, unresolved, lfunpoly.make_plan is lfunpoly.continuation.make_plan]))
"""
    assert json.loads(run_fresh(script)) == [[], [], True]
    with pytest.raises(AttributeError):
        getattr(lfunpoly, "no_such_name")


def readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.splitlines()
        if line.startswith("lfunpoly ")
    ]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_line_examples(capsys, argv):
    assert run(capsys, *argv)[0] == 0
