"""Command-line surface.

Subcommands: count, bounds, orders, chords, scan, figure1, vtable, verify, with their
options declared once, in `_GRAMMAR`.  An argv of exact `--name value` tokens is read
from that table directly; argparse, imported and built from it on first need, parses
any other argv (help, abbreviations, errors).  The batch subcommands (scan, figure1,
vtable, verify) import `harness` on first use; a single-curve query loads neither.
Exit codes: 0 success / all checks pass, 1 a verification failure was found,
2 usage error.  All output is deterministic; --seed is accepted and ignored
(reserved), --jobs parallelizes a scan of at least harness.POOL_MIN_LINES
lines (smaller scans run serially) without changing its output.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import types
from itertools import islice

from . import bounds as B
from . import chords as C
from . import localexp as LE
from .curve import count_points_fast, make_curve
from .errors import VertexQuery
from .ffield import make_field


_INT = {"type": int, "required": True}  # a required int option
_CURVE = {
    "--p": _INT, "--m": {"type": int, "default": 1},
    "--modulus": {"help": "comma-joined coefficients, constant first"}, "--n": _INT,
    "--a": {"required": True, "help": "field element: residue, or comma-joined coefficients"},
    "--b": {"required": True},
}

# The grammar, declared once: per subcommand its help line and its arguments in help
# order as add_argument keywords; None: the global options, given before the subcommand.
_GRAMMAR = {
    None: (None, {"--format": {"choices": ("csv", "json"),
                               "help": "output format of count (default: json)"},
                  "--jobs": {"type": int, "default": 1},
                  "--seed": {"type": int, "help": "reserved; all behavior is deterministic"}}),
    "count": ("point counts for one curve", _CURVE),
    "bounds": ("all bound reports for one curve", _CURVE),
    "orders": ("order sequence at a special point", {
        **_CURVE, "--s": _INT,
        "--point": {"choices": ("inflection", "infinite-branch"), "default": "inflection"}}),
    "chords": ("chord count vs restricted point count",
               {"--p": _INT, "--n": _INT, "--px": _INT, "--py": _INT}),
    "scan": ("bound-soundness sweep, CSV", {
        "--p-max": _INT, "--n-filter": {"type": int},
        "--sample": {"default": "all", "help": "'all' or a target pair count per (p, n)"}}),
    "figure1": ("contour grid of the bound difference, TSV",
                {"--n-min": _INT, "--n-max": _INT}),
    "vtable": ("minimization table over k, CSV", {"--k-min": {"type": int, "default": 2},
                                                  "--k-max": {"type": int, "default": 100}}),
    "verify": ("run a property suite",
               {"suite": {"choices": ("orders", "prop41", "lemmas", "all")},
                "--p-max": {"type": int}}),
}


@functools.cache  # parsing keeps no state in the parser, so one serves every call
def _build_parser():
    import argparse
    top = argparse.ArgumentParser(prog="gfcurves")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_line, arguments) in _GRAMMAR.items():
        parser = top if command is None else sub.add_parser(command, help=help_line)
        for name, spec in arguments.items():
            parser.add_argument(name, **spec)
    return top


def _plain_parse(argv):
    """argparse's namespace for an argv of exact `--name value` tokens and verify's
    suite, else None: for help, an abbreviation, `--name=value`, a value that starts
    with '-', a repeated, unknown, misplaced or missing argument, or a bad value."""
    arguments, command, given = _GRAMMAR[None][1], None, {}
    tokens = iter(argv)
    for tok in tokens:
        if command is None and tok in _GRAMMAR:
            command, arguments = tok, _GRAMMAR[tok][1]
            continue
        # an option and its value, or verify's positional
        name, value = (tok, next(tokens, "-")) if tok[:2] == "--" else ("suite", tok)
        if name not in arguments or name in given or value[:1] == "-":
            return None
        given[name] = value
    namespace = {"command": command}
    for name, spec in (*_GRAMMAR[None][1].items(), *arguments.items()):
        if name in given:
            try:
                value = spec.get("type", str)(given[name])
            except ValueError:
                return None
            if value not in spec.get("choices", (value,)):
                return None
        elif spec.get("required") or name == "suite":
            return None
        else:
            value = spec.get("default")
        namespace[name.lstrip("-").replace("-", "_")] = value
    return types.SimpleNamespace(**namespace) if command else None


def _glue_element_values(argv: list[str]) -> list[str]:
    """`--a -1,3` as `--a=-1,3`: argparse reads a token that starts with '-'
    and is not a plain negative number as an option, not as a value."""
    out = []
    for tok in argv:
        if (out and out[-1] in ("--a", "--b", "--modulus")
                and tok[:1] == "-" and tok[1:2].isdigit()):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


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
        print(",".join(report._fields))
        print(",".join(map(str, report)))
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
    """Print the orders, the closed form and the verdict.  `order_sequence`
    returns the closed form itself once its certificate f_1 != 0 holds, so
    both lines print its orders and the verdict is MATCH; the only failure
    is PrecisionTooLow (exit 2)."""
    curve = _make_curve(args)
    orders = " ".join(map(str, LE.order_sequence(curve, args.point, args.s).orders))
    print("orders:", orders)
    print("closed-form:", orders)
    print("verdict: MATCH")
    return 0


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
    from . import harness as H
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
    from . import harness as H
    for block in H.figure1_tsv_lines(args.n_min, args.n_max):
        sys.stdout.write(block)
    return 0


VTABLE_BLOCK = 1024  # vtable lines per write: memory stays flat in --k-max


def cmd_vtable(args) -> int:
    if args.k_min < 2 or args.k_min > args.k_max:
        print("vtable requires 2 <= --k-min <= --k-max", file=sys.stderr)
        return 2
    from . import harness as H
    lines = H.vtable_csv_lines(args.k_min, args.k_max)
    while block := list(islice(lines, VTABLE_BLOCK)):
        sys.stdout.write("".join(line + "\n" for line in block))
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
    from . import harness as H
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
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_parse(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(_glue_element_values(argv))
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
        if [] in vars(args).values():  # argparse reads `--p=--` as [], not as a value
            print("error: '--' is not a value", file=sys.stderr)
            return 2
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
