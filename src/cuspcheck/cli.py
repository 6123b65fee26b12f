"""Command-line interface: duality, analysis, grid scans, bounds and tables.

All numeric I/O is exact (integers, and rationals rendered as ``p/q``).
Output is deterministic: identical invocations produce identical bytes.
Exit codes: 0 success, 2 input/usage error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Iterable, Optional, Sequence

from .arthur import ArthurParameter, parse_parameter, render_parameter
from .engine import (
    Assumption,
    BoundsReport,
    FieldKind,
    ScanCell,
    Verdict,
    bounds,
    scan,
    verdict,
)
from .errors import CuspcheckError, InternalInvariantViolation, InvalidArgument
from .partitions import (
    GroupFamily,
    _read_int,
    barbasch_vogan_dual,
    parse_partition,
    symplectic_collapse,
)
from .satake import satake_exponent_bound
from .smallrep import (
    conjectured_so_lower_bound,
    grs_minimal_partition,
    hypercuspidal_existence,
    nonsingular_expansion,
    nonsingular_partition,
)

__all__ = ["main", "build_parser"]


def _int_arg(text: str) -> int:
    """argparse ``type=`` for ``--n``: the integer grammar of all other input."""
    try:
        return _read_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _parse_range(spec: str) -> tuple[str, range]:
    name, eq, body = spec.partition("=")
    if not eq or not name:
        raise InvalidArgument(f"range must look like NAME=START:STOP:STEP, got {spec!r}")
    pieces = body.split(":")
    if len(pieces) not in (2, 3):
        raise InvalidArgument(f"range must look like NAME=START:STOP:STEP, got {spec!r}")
    try:
        start, stop = _read_int(pieces[0]), _read_int(pieces[1])
        step = _read_int(pieces[2]) if len(pieces) == 3 else 1
    except ValueError:
        raise InvalidArgument(f"range bounds must be integers in {spec!r}") from None
    if step < 1:
        raise InvalidArgument(f"range step must be positive in {spec!r}")
    return name, range(start, stop + 1, step)


def _kv_block(rows: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k.ljust(width)} = {v}" for k, v in rows)


def _bounds_rows(psi: ArthurParameter, report: BoundsReport) -> list[tuple[str, str]]:
    return [
        ("parameter", render_parameter(psi)),
        ("n", str(psi.n)),
        ("p_psi", str(psi.attached_partition())),
        ("eta", str(psi.dual_partition())),
        ("N_a", str(report.n_a)),
        ("N1", f"{report.n1}  witness {report.n1_witness}"),
        ("N2", f"{report.n2}  witness {report.n2_witness}"),
    ]


def _verdict_text(psi: ArthurParameter, v: Verdict) -> str:
    rows = [*_bounds_rows(psi, v.bounds), ("status", v.status.value)]
    lines = [_kv_block(rows), "firings:"]
    if v.firings:
        for f in v.firings:
            suffix = "" if f.conditional_on is None else f" (requires {f.conditional_on.value})"
            lines.append(f"  {f.rule} {f.name} -> {f.implies.value}{suffix}")
    else:
        lines.append("  (none)")
    for w in v.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)


def _rules_text(cell: ScanCell) -> str:
    if cell.verdict is None:
        return cell.error or "invalid"
    if not cell.verdict.firings:
        return "-"
    return ";".join(f.rule for f in cell.verdict.firings)


def _scan_rows(names: list[str], cells: Iterable[ScanCell]) -> list[list[str]]:
    # A cell's slots come in the order of the ranges, as the names do.
    rows = [[*names, "status", "rules"]]
    for cell in cells:
        rows.append([*(str(v) for _, v in cell.slots), cell.status_text, _rules_text(cell)])
    return rows


def _scan_text(rows: list[list[str]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(col.ljust(w) for col, w in zip(r, widths)).rstrip() for r in rows)


def _scan_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().rstrip("\n")


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2)


def _run_dual(args) -> str:
    p = parse_partition(args.partition)
    eta = barbasch_vogan_dual(p)
    t = p.transpose()
    dec = t.decrement()
    if args.format == "json":
        return _json_text(
            {"p": str(p), "p_transpose": str(t), "decremented": str(dec), "eta": str(eta)}
        )
    return _kv_block(
        [("p", str(p)), ("p^t", str(t)), ("(p^t)^-", str(dec)), ("eta", str(eta))]
    )


def _run_collapse(args) -> str:
    p = parse_partition(args.partition)
    c = symplectic_collapse(p)
    if args.format == "json":
        return _json_text({"p": str(p), "collapse": str(c)})
    return _kv_block([("p", str(p)), ("collapse", str(c))])


def _run_analyze(args) -> str:
    psi = parse_parameter(args.parameter)
    v = verdict(psi, args.field, args.assume)
    if args.format == "json":
        return _json_text(v.to_dict())
    return _verdict_text(psi, v)


def _run_bounds(args) -> str:
    psi = parse_parameter(args.parameter)
    report = bounds(psi)
    if args.format == "json":
        return _json_text(
            {
                "n": psi.n,
                "p_psi": str(psi.attached_partition()),
                "eta": str(psi.dual_partition()),
                "bounds": report.to_dict(),
            }
        )
    return _kv_block(_bounds_rows(psi, report))


def _run_scan(args) -> str:
    ranges = [_parse_range(spec) for spec in args.ranges]
    names = [name for name, _ in ranges]
    cells = scan(args.template, ranges, args.field, args.assume)
    if args.format == "json":
        return _json_text(
            {
                "template": args.template,
                "field": args.field,
                "assumptions": sorted(set(args.assume)),
                "cells": [c.to_dict() for c in cells],
            }
        )
    rows = _scan_rows(names, cells)
    return _scan_csv(rows) if args.format == "csv" else _scan_text(rows)


def _run_satake(args) -> str:
    bound = satake_exponent_bound(args.n, args.field)
    if args.format == "json":
        return _json_text(bound.to_dict())
    return _kv_block(
        [
            ("n", str(args.n)),
            ("field", args.field),
            ("theta", str(bound.theta)),
            ("sharp", "true" if bound.sharp else "false"),
            ("source", bound.source),
        ]
    )


def _run_small(args) -> str:
    family = GroupFamily(args.group)
    n = args.n
    payload: dict = {
        "group": args.group,
        "n": n,
        "nonsingular": str(nonsingular_partition(family, n)),
        "expansion": str(nonsingular_expansion(family, n)),
    }
    if family is GroupFamily.C:
        payload["grs_minimal"] = str(grs_minimal_partition(2 * n))
        payload["hypercuspidal"] = hypercuspidal_existence(n, args.field).value
    else:
        payload["conjectured_lower_bound"] = {
            "partition": str(conjectured_so_lower_bound(family, n)),
            "conjectural": True,
        }
    if args.format == "json":
        return _json_text(payload)
    return _kv_block(
        [(k, f"{v['partition']}  (conjectural)" if isinstance(v, dict) else str(v)) for k, v in payload.items()]
    )


_FIELD = ("--field", dict(choices=[f.value for f in FieldKind], default="general"))
_ASSUME = (
    "--assume",
    dict(
        action="append",
        default=[],
        choices=[a.value for a in Assumption],
        help="activate a conjectural assumption (repeatable)",
    ),
)
_N = ("--n", dict(type=_int_arg, required=True))
_TEXT_JSON = ("text", "json")

# verb: (help, handler, arguments in order, formats).  An argument is a bare
# positional name or a (flag, add_argument keywords) pair.
_VERBS = {
    "dual": ("dual of an odd orthogonal partition", _run_dual, ["partition"], _TEXT_JSON),
    "collapse": ("symplectic collapse of an even-weight partition", _run_collapse, ["partition"], _TEXT_JSON),
    "analyze": ("full cuspidality verdict for a parameter", _run_analyze, ["parameter", _FIELD, _ASSUME], _TEXT_JSON),
    "bounds": ("bound triple for a parameter", _run_bounds, ["parameter"], _TEXT_JSON),
    "scan": (
        "verdicts over a parameter template grid",
        _run_scan,
        [
            ("--template", dict(required=True, help="parameter with $name slots, e.g. '(1c,$b1)+(2s,$b2)'")),
            (
                "--range",
                dict(
                    action="append",
                    default=[],
                    dest="ranges",
                    metavar="NAME=START:STOP:STEP",
                    help="inclusive slot range (repeatable, row-major in flag order)",
                ),
            ),
            _FIELD,
            _ASSUME,
        ],
        ("text", "json", "csv"),
    ),
    "satake": ("Satake exponent bound for Sp(2n)", _run_satake, [_N, _FIELD], _TEXT_JSON),
    "small": (
        "small-representation tables for one group",
        _run_small,
        [("--group", dict(choices=sorted(g.value for g in GroupFamily), required=True)), _N, _FIELD],
        _TEXT_JSON,
    ),
}


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser for one *verb*, or for every verb when *verb* is None."""
    parser = argparse.ArgumentParser(
        prog="cuspcheck",
        description="Decide when a global Arthur packet of Sp(2n) provably has no cuspidal members.",
    )
    verbs = _VERBS if verb is None else {verb: _VERBS[verb]}
    # A one-verb parser still lists all seven verbs in its top-level usage line.
    metavar = None if verb is None else "{" + ",".join(_VERBS) + "}"
    sub = parser.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name, (help_text, run, arguments, formats) in verbs.items():
        p = sub.add_parser(name, help=help_text)
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", metavar="FILE", default=None, help="write output to FILE instead of stdout")
        p.set_defaults(run=run)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Anything but a known verb first (-h, --, no argument, an unknown verb)
    # needs the full parser for its help or its error.
    parser = build_parser(argv[0] if argv and argv[0] in _VERBS else None)
    try:
        # Inside the try: ``--n`` raises InvalidArgument for an over-long integer.
        args = parser.parse_args(argv)
        rendered = args.run(args)
    except SystemExit as exc:  # argparse exits after --help and after a usage error
        return exc.code
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except CuspcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is None:
        print(rendered)
        return 0
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            print(rendered, file=fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0
