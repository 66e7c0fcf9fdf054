import csv
import io
import json

import pytest

from lfunpoly import chi3, direct_sum
from lfunpoly.cli import EXIT_BUDGET, EXIT_DOMAIN, EXIT_PARSE, main
from lfunpoly.polynomials import Polynomial


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
