"""Command-line front-end.

Subcommands mirror the engines: ``psi`` (moment tables), ``lneg`` (exact
values at non-positive integers), ``family`` (the u-family), ``eval``
(numeric evaluation anywhere in C), ``congruence`` (mod-p scans).

Output is a stream of records; ``--format json`` emits one JSON array,
``--format csv`` one row per record, default is aligned text.  Exit codes:
0 success, 1 parse error, 2 domain error, 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import Dict, List

from . import congruence as congruence_mod
from . import parsing, psi, special_values
from .errors import BudgetExceeded, DomainError, LfunpolyError, ParseError

EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_BUDGET = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lfunpoly",
        description="Exact and numeric values of Dirichlet-like series "
        "attached to a periodic function and a polynomial.",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "csv"],
        default="text",
        help="output format (default: aligned text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_psi = sub.add_parser("psi", help="moment table of a periodic function")
    p_psi.add_argument("--chi", required=True)
    p_psi.add_argument("--max-degree", type=int, required=True)

    p_lneg = sub.add_parser("lneg", help="exact values at s = 1-m")
    p_lneg.add_argument("--chi", required=True)
    p_lneg.add_argument("--poly", required=True)
    p_lneg.add_argument("--m", type=int)
    p_lneg.add_argument("--m-range", dest="m_range")
    p_lneg.add_argument("--A", type=int, default=1)

    p_fam = sub.add_parser("family", help="u-family members p_m")
    p_fam.add_argument("--chi", required=True)
    p_fam.add_argument("--m", type=int)
    p_fam.add_argument("--m-range", dest="m_range")

    p_eval = sub.add_parser("eval", help="numeric value at arbitrary complex s")
    p_eval.add_argument("--chi", required=True)
    p_eval.add_argument("--poly")
    p_eval.add_argument("--roots")
    p_eval.add_argument("--leading-coeff", dest="leading_coeff", default="1")
    p_eval.add_argument("--s", required=True)
    p_eval.add_argument("--A", type=int, default=1)
    p_eval.add_argument("--eps", type=float, default=1e-12)
    p_eval.add_argument("--max-terms", dest="max_terms", type=int, default=200_000)

    p_cong = sub.add_parser("congruence", help="mod-p periodicity scan")
    p_cong.add_argument("--chi", required=True)
    p_cong.add_argument("--p", type=int, required=True)
    p_cong.add_argument("--periods", type=int, default=2)

    return parser


# -- command implementations ------------------------------------------


def _resolve_m_list(args) -> List[int]:
    if (args.m is None) == (args.m_range is None):
        raise ParseError("give exactly one of --m or --m-range")
    if args.m is not None:
        if args.m < 1:
            raise ParseError("--m must be >= 1")
        return [args.m]
    return list(parsing.parse_m_range(args.m_range))


def cmd_psi(args) -> List[Dict]:
    chi = parsing.parse_chi(args.chi)
    if args.max_degree < 0:
        raise ParseError("--max-degree must be >= 0")
    table = psi.psi_table(chi, args.max_degree)
    return [
        {"kind": "psi_moment", "chi": args.chi, "m": m, "value": parsing.format_rational(v)}
        for m, v in enumerate(table.moments)
    ]


def cmd_lneg(args) -> List[Dict]:
    chi = parsing.parse_chi(args.chi)
    poly = parsing.parse_poly(args.poly)
    ms = _resolve_m_list(args)
    special_values.validate_poly(poly, args.A)
    table = psi.psi_table(chi, max(ms) * poly.degree)
    values = special_values.l_negative_values(chi, poly, ms, args.A, table)
    return [
        {
            "kind": "l_negative",
            "chi": args.chi,
            "poly": args.poly,
            "m": m,
            "s": 1 - m,
            "A": args.A,
            "value": parsing.format_rational(value),
        }
        for m, value in zip(ms, values)
    ]


def cmd_family(args) -> List[Dict]:
    chi = parsing.parse_chi(args.chi)
    ms = _resolve_m_list(args)
    table = psi.psi_table(chi, 2 * max(ms))
    members = special_values.family_sequence(chi, max(ms), table)
    return [
        {
            "kind": "family_poly",
            "chi": args.chi,
            "m": m,
            "coeffs": parsing.poly_coeff_map(members[m - 1].value),
        }
        for m in ms
    ]


def cmd_eval(args) -> List[Dict]:
    from . import continuation  # loads mpmath: the exact commands never need it

    chi = parsing.parse_chi(args.chi)
    s = parsing.parse_complex(args.s)
    if (args.poly is None) == (args.roots is None):
        raise ParseError("give exactly one of --poly or --roots")
    kwargs = dict(
        offset_A=args.A,
        tail_epsilon=args.eps,
        tail_max_terms=args.max_terms,
    )
    if args.poly is not None:
        plan = continuation.make_plan(chi, poly=parsing.parse_poly(args.poly), **kwargs)
    else:
        plan = continuation.make_plan(
            chi,
            roots=parsing.parse_roots(args.roots),
            leading_coeff=parsing.parse_rational(args.leading_coeff),
            **kwargs,
        )
    value = continuation.continuation_eval(plan, s)
    return [
        {
            "kind": "eval_point",
            "chi": args.chi,
            "s": {"re": s.real, "im": s.imag},
            "A": args.A,
            "value": {"re": value.real, "im": value.imag},
        }
    ]


def cmd_congruence(args) -> List[Dict]:
    chi = parsing.parse_chi(args.chi)
    m_max = 1 + (args.periods + 1) * (args.p - 1)
    table = psi.psi_table(chi, 2 * m_max)
    report = congruence_mod.congruence_scan(chi, args.p, args.periods, table)
    return [
        {
            "kind": "congruence_report",
            "chi": args.chi,
            "p": report.prime,
            "period_detected": report.period_detected,
            "pm1_confirmed": report.pm1_confirmed,
            "preperiod": report.preperiod,
            "periods_checked": report.periods_checked,
            "terms": report.term_strings(),
        }
    ]


COMMANDS = {
    "psi": cmd_psi,
    "lneg": cmd_lneg,
    "family": cmd_family,
    "eval": cmd_eval,
    "congruence": cmd_congruence,
}


# -- rendering --------------------------------------------------------


def _render_text(records: List[Dict]) -> str:
    lines = []
    for rec in records:
        kind = rec["kind"]
        if kind == "psi_moment":
            lines.append(f"{rec['m']:>4}  {rec['value']}")
        elif kind == "l_negative":
            lines.append(
                f"m={rec['m']:<3} s={rec['s']:<5} A={rec['A']:<3} {rec['value']}"
            )
        elif kind == "family_poly":
            terms = ", ".join(
                f"u^{e}: {c}" for e, c in sorted(rec["coeffs"].items(), key=lambda kv: int(kv[0]))
            )
            lines.append(f"m={rec['m']:<4} {terms if terms else '0'}")
        elif kind == "eval_point":
            s, v = rec["s"], rec["value"]
            lines.append(
                f"s = {s['re']:+.6g}{s['im']:+.6g}i   "
                f"value = {v['re']:+.12g}{v['im']:+.12g}i"
            )
        elif kind == "congruence_report":
            lines.append(f"p = {rec['p']}, chi = {rec['chi']}")
            lines.append(f"terms: {', '.join(rec['terms'])}")
            lines.append(
                f"period detected: {rec['period_detected']} "
                f"(preperiod {rec['preperiod']}, "
                f"p-1 confirmed: {rec['pm1_confirmed']})"
            )
        else:
            lines.append(json.dumps(rec))
    return "\n".join(lines)


def _flatten(rec: Dict) -> Dict:
    flat = {}
    for key, value in rec.items():
        if isinstance(value, dict):
            for k2, v2 in value.items():
                flat[f"{key}.{k2}"] = v2
        elif isinstance(value, list):
            flat[key] = ";".join(str(v) for v in value)
        else:
            flat[key] = value
    return flat


def _render_csv(records: List[Dict]) -> str:
    rows = [_flatten(r) for r in records]
    fields: List[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def render(records: List[Dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(records, indent=2)
    if fmt == "csv":
        return _render_csv(records)
    return _render_text(records)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records = COMMANDS[args.command](args)
    except ParseError as exc:
        print(json.dumps({"kind": "error", "error": "parse", "detail": str(exc)}), file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        print(json.dumps({"kind": "error", "error": "budget", "detail": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET
    except (DomainError, LfunpolyError) as exc:
        print(json.dumps({"kind": "error", "error": "domain", "detail": str(exc)}), file=sys.stderr)
        return EXIT_DOMAIN
    print(render(records, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
