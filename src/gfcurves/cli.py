"""Command-line surface.

Subcommands: count, bounds, orders, chords, scan, figure1, vtable, verify.
Exit codes: 0 success / all checks pass, 1 a verification failure was found,
2 usage error.  All output is deterministic; --seed is accepted and ignored
(reserved), --jobs parallelizes the scan without changing its output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bounds as B
from . import chords as C
from . import harness as H
from . import localexp as LE
from .curve import count_points_fast, make_curve
from .errors import VertexQuery
from .ffield import make_field


@functools.cache  # parsing keeps no state in the parser, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gfcurves")
    top.add_argument("--format", choices=("csv", "json", "tsv"), default=None,
                     help="output format where the subcommand supports a choice")
    top.add_argument("--jobs", type=int, default=1)
    top.add_argument("--seed", type=int, default=None,
                     help="reserved; all behavior is deterministic")
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", help="point counts for one curve")
    _curve_args(pc)

    pb = sub.add_parser("bounds", help="all bound reports for one curve")
    _curve_args(pb)

    po = sub.add_parser("orders", help="order sequence at a special point")
    _curve_args(po)
    po.add_argument("--s", type=int, required=True)
    po.add_argument("--point", choices=("inflection", "infinite-branch"),
                    default="inflection")

    pch = sub.add_parser("chords", help="chord count vs restricted point count")
    pch.add_argument("--p", type=int, required=True)
    pch.add_argument("--n", type=int, required=True)
    pch.add_argument("--px", type=int, required=True)
    pch.add_argument("--py", type=int, required=True)

    ps = sub.add_parser("scan", help="bound-soundness sweep, CSV")
    ps.add_argument("--p-max", type=int, required=True)
    ps.add_argument("--n-filter", type=int, default=None)
    ps.add_argument("--sample", default="all",
                    help="'all' or a target pair count per (p, n)")

    pf = sub.add_parser("figure1", help="contour grid of the bound difference, TSV")
    pf.add_argument("--n-min", type=int, required=True)
    pf.add_argument("--n-max", type=int, required=True)

    pv = sub.add_parser("vtable", help="minimization table over k, CSV")
    pv.add_argument("--k-min", type=int, default=2)
    pv.add_argument("--k-max", type=int, default=100)

    pver = sub.add_parser("verify", help="run a property suite")
    pver.add_argument("suite", choices=("orders", "prop41", "lemmas", "all"))
    pver.add_argument("--p-max", type=int, default=None)
    return top


def _curve_args(parser):
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--modulus", default=None,
                        help="comma-joined coefficients, constant first")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--a", required=True,
                        help="field element: residue, or comma-joined coefficients")
    parser.add_argument("--b", required=True)


def _make_curve(args):
    modulus = None
    if args.modulus:
        modulus = [int(t) for t in args.modulus.split(",")]
    ctx = make_field(args.p, args.m, modulus)
    return make_curve(ctx, args.n, ctx.parse_element(args.a), ctx.parse_element(args.b))


def cmd_count(args) -> int:
    curve = _make_curve(args)
    report = count_points_fast(curve)
    if args.format == "csv":
        names = ("affine_total", "off_axes", "off_axes_off_diag", "n1", "n2",
                 "branches_at_infinity_rational", "model_total")
        print(",".join(names))
        print(",".join(str(getattr(report, f)) for f in names))
    else:
        print(report.to_json())
    return 0


def cmd_bounds(args) -> int:
    curve = _make_curve(args)
    reports = [B.hasse_weil(curve.q, curve.g)]
    for s in range(2, curve.n):
        reports.append(B.sv_bound(curve, s))
    reports.append(B.w_bound(curve))
    for rep in reports:
        print(json.dumps(rep.to_jsonable(), sort_keys=False))
    return 0


def cmd_orders(args) -> int:
    curve = _make_curve(args)
    seq = LE.order_sequence(curve, args.point, args.s)
    if args.point == "inflection":
        predicted = LE.inflection_orders(curve.n, args.s)
    else:
        predicted = LE.branch_orders(curve.n, args.s)
    print("orders:", " ".join(str(o) for o in seq.orders))
    print("closed-form:", " ".join(str(o) for o in predicted))
    verdict = "MATCH" if seq.orders == predicted else "MISMATCH"
    print("verdict:", verdict)
    return 0 if verdict == "MATCH" else 1


def cmd_chords(args) -> int:
    try:
        rep = C.verify_prop41(args.p, args.n, (args.px, args.py))
    except VertexQuery as exc:
        print(json.dumps({"error": "VertexQuery", "detail": str(exc)}))
        return 2
    payload = {
        "p": rep.p, "n": rep.n, "P": list(rep.point),
        "n_P": rep.n_p, "N_p": rep.restricted, "lhs_2n2_nP": rep.lhs,
        "verdict": "PASS" if rep.holds else "FAIL",
        "diagonal": rep.diagonal,
        "tangency": rep.tangency,
        "refined_N_p": rep.refined_restricted,
        "refined_verdict": "PASS" if rep.refined_holds else "FAIL",
    }
    print(json.dumps(payload, sort_keys=False))
    return 0 if rep.holds else 1


def cmd_scan(args) -> int:
    if args.p_max < 5:
        print("scan requires --p-max >= 5", file=sys.stderr)
        return 2
    sample = None if args.sample == "all" else _positive_int(args.sample)
    if sample == -1:
        print("--sample must be 'all' or a positive integer", file=sys.stderr)
        return 2
    violations = 0
    for text, count in H.scan_csv_blocks(args.p_max, args.n_filter, sample, args.jobs):
        sys.stdout.write(text)
        violations += count
    return 1 if violations else 0


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        return -1
    return v if v > 0 else -1


def cmd_figure1(args) -> int:
    if not 3 <= args.n_min <= args.n_max:
        print("figure1 requires 3 <= --n-min <= --n-max", file=sys.stderr)
        return 2
    for line in H.figure1_tsv_lines(args.n_min, args.n_max):
        print(line)
    return 0


def cmd_vtable(args) -> int:
    if args.k_min < 2 or args.k_min > args.k_max:
        print("vtable requires 2 <= --k-min <= --k-max", file=sys.stderr)
        return 2
    for line in H.vtable_csv_lines(args.k_min, args.k_max):
        print(line)
    return 0


# the smallest --p-max under which every check of the suite covers a case:
# prop41 needs k = (p-1)/n >= 3, so p >= 7; the first order-sequence case is
# p = 13, n = 3, s = 2 (it needs p > s(n+1) and n | p-1)
_VERIFY_P_MIN = {"prop41": 7, "orders": 13, "all": 13}


def cmd_verify(args) -> int:
    p_min = _VERIFY_P_MIN.get(args.suite)
    if None not in (p_min, args.p_max) and args.p_max < p_min:
        print(f"verify {args.suite} requires --p-max >= {p_min}", file=sys.stderr)
        return 2
    checks = H.verify_suite(args.suite, args.p_max)
    width = max(len(c.name) for c in checks)
    for c in checks:
        print(f"[{'PASS' if c.ok else 'FAIL'}] {c.name:<{width}}  {c.detail}")
    failed = sum(1 for c in checks if not c.ok)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


_DISPATCH = {
    "count": cmd_count,
    "bounds": cmd_bounds,
    "orders": cmd_orders,
    "chords": cmd_chords,
    "scan": cmd_scan,
    "figure1": cmd_figure1,
    "vtable": cmd_vtable,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _DISPATCH[args.command](args)
    except BrokenPipeError:
        # a downstream consumer (head, less) closed the stream: not an error
        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
