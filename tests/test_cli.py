import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gfcurves import cli, ffield
from gfcurves.bounds import k_threshold
from gfcurves.cli import main
from gfcurves.curve import MAX_TABLE_Q
from gfcurves.ffield import is_prime, make_field, nth_root_count

from brute_oracles import format_element
from test_ffield import A014233


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- count ------------------------------------------------------------------------


def test_count_json(capsys):
    code, out, _ = run(capsys, ["count", "--p", "13", "--n", "3", "--a", "6", "--b", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["off_axes_off_diag"] == 18 and data["model_total"] == 18


def test_count_csv(capsys):
    code, out, _ = run(capsys, ["--format", "csv", "count", "--p", "13", "--n", "3",
                                "--a", "6", "--b", "2"])
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.startswith("affine_total,")
    assert row.split(",")[0] == "18"


def test_format_tsv_is_a_usage_error(capsys):
    # no subcommand writes TSV on request: both parse routes refuse the choice
    argv = ["--format", "tsv", "count", "--p", "13", "--n", "3", "--a", "6", "--b", "2"]
    assert cli._plain_parse(argv) is None
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "") and "invalid choice: 'tsv'" in err


def test_count_extension_field(capsys):
    code, out, _ = run(capsys, ["count", "--p", "3", "--m", "2", "--n", "2",
                                "--a", "1,1", "--b", "0,1"])
    assert code == 0
    data = json.loads(out)
    assert data["model_total"] == data["affine_total"] + data["branches_at_infinity_rational"]


@pytest.mark.parametrize("spaced,glued", [
    (["--a", "-1,3", "--b", "2"], ["--a=-1,3", "--b", "2"]),
    (["--a", "2", "--b", "-1,-3"], ["--a", "2", "--b=-1,-3"]),
    (["--modulus", "-11,-1,1", "--a", "-1,3", "--b", "2"],
     ["--modulus=-11,-1,1", "--a=-1,3", "--b", "2"]),
])
def test_element_values_with_a_leading_minus(capsys, spaced, glued):
    # argparse alone reads "-1,3" after --a as an option and exits 2
    head = ["count", "--p", "13", "--m", "2", "--n", "3"]
    code, out, err = run(capsys, head + spaced)
    assert (code, err) == (0, "") and json.loads(out)["model_total"] > 0
    assert run(capsys, head + glued) == (code, out, err)


@pytest.mark.parametrize("argv", [
    ["count", "--p=--", "--n", "3", "--a", "1", "--b", "2"],
    ["figure1", "--n-min=--", "--n-max", "5"],
])
def test_double_dash_as_a_value_exits_2(capsys, argv):
    # argparse hands `--opt=--` to the command as an empty list
    assert run(capsys, argv) == (2, "", "error: '--' is not a value\n")


def test_count_rejects_degenerate(capsys):
    code, _, err = run(capsys, ["count", "--p", "13", "--n", "3", "--a", "2", "--b", "7"])
    assert code == 2
    assert "a*b != 1" in err


# -- bounds ------------------------------------------------------------------------


def test_bounds_lines(capsys):
    code, out, _ = run(capsys, ["bounds", "--p", "31", "--n", "5", "--a", "2", "--b", "3"])
    assert code == 0
    reports = [json.loads(line) for line in out.strip().splitlines()]
    names = [r["name"] for r in reports]
    assert names == ["hasse_weil", "sv_s2", "sv_s3", "sv_s4", "w"]
    by_name = {r["name"]: r for r in reports}
    assert by_name["sv_s2"]["value"] == 123
    assert by_name["hasse_weil"]["value"] == 210
    assert by_name["w"]["applicable"] is True


# -- orders ------------------------------------------------------------------------


def test_orders_match(capsys):
    code, out, _ = run(capsys, ["orders", "--p", "31", "--n", "5", "--a", "2",
                                "--b", "3", "--s", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orders: 0 1 5 6"
    assert lines[1] == "closed-form: 0 1 5 6"
    assert lines[2] == "verdict: MATCH"


def test_orders_branch_point(capsys):
    code, out, _ = run(capsys, ["orders", "--p", "31", "--n", "5", "--a", "2",
                                "--b", "3", "--s", "3", "--point", "infinite-branch"])
    assert code == 0
    assert "verdict: MATCH" in out


def test_orders_small_characteristic_rejected(capsys):
    code, _, err = run(capsys, ["orders", "--p", "7", "--n", "3", "--a", "2",
                                "--b", "3", "--s", "2"])
    assert code == 2
    assert "verified regime" in err


@pytest.mark.parametrize("command", ["bounds", "orders"])
def test_strong_pseudoprime_to_twelve_bases_exits_2(capsys, command):
    # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin at 2..37, and
    # was taken for a prime before base 41 joined the test
    argv = [command, "--p", "318665857834031151167461", "--n", "3", "--a", "2", "--b", "3"]
    code, out, err = run(capsys, argv + (["--s", "2"] if command == "orders" else []))
    assert (code, out, err) == (2, "", "error: 318665857834031151167461 is not prime\n")


@pytest.mark.parametrize("p", [A014233[12], 2**127 - 1])
def test_characteristic_at_or_above_psi_13_exits_2(capsys, p):
    code, out, err = run(capsys, ["bounds", "--p", str(p), "--n", "3", "--a", "2", "--b", "3"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: primality of {p} is undecided") and err.count("\n") == 1


def test_orders_over_extension_base_field_without_a_root(capsys):
    # b is no cube in F_121 (1/a is one): the orders are geometric, so the
    # base-field series answers without a root of T^3 - b, at both kinds
    # of point
    for point in ("inflection", "infinite-branch"):
        code, out, err = run(capsys, ["orders", "--p", "11", "--m", "2", "--n", "3",
                                      "--a", "1,1", "--b", "2,1", "--s", "2",
                                      "--point", point])
        assert code == 0 and err == ""
        assert out == "orders: 0 1 3 4\nclosed-form: 0 1 3 4\nverdict: MATCH\n"


# every F_{p^m} with q <= 400, and composite "characteristics" to refuse
PRIME_POWER_FIELDS = [(p, m) for p in range(2, 401) if is_prime(p)
                      for m in range(1, 9) if p**m <= 400]
COMPOSITE_FIELDS = [(p, m) for p in (4, 9, 15, 91, 221, 399) for m in (1, 2) if p**m <= 400]
# large characteristics: the strong pseudoprimes of A014233 and Carmichael
# numbers (exit 2), 2^61 - 1 (a prime, answered) and 2^127 - 1 (a prime
# above psi_13, whose primality is refused)
LARGE_CHARACTERISTICS = sorted(set(A014233)) + [561, 1105, 1729, 41041, 2**61 - 1, 2**127 - 1]


def curve_args(draw):
    """n and the options --p, --m, --n, --a, --b of a curve over F_{p^m},
    q <= 400 or m = 1 and p large, n < 25: mostly a field and n a divisor
    of q - 1, with a*b in {0, 1}, unparsable elements and every other
    refusal among the draws."""
    p, m = draw(st.sampled_from(PRIME_POWER_FIELDS * 8 + COMPOSITE_FIELDS
                                + [(p, 1) for p in LARGE_CHARACTERISTICS]))
    q = p**m
    divisors = [d for d in range(2, 25) if (q - 1) % d == 0] or [2]
    n = draw(st.sampled_from(divisors * 12 + list(range(25))))
    digits = st.lists(st.sampled_from(list(range(1, min(p, 401))) * 3 + [-1, 0, p]),
                      min_size=1, max_size=m).map(lambda cs: ",".join(map(str, cs)))
    a = draw(digits)
    b = draw(st.sampled_from(["digits"] * 6 + ["zero", "inverse"]))
    if b == "zero":
        b = "0"
    elif b == "inverse" and (p, m) in PRIME_POWER_FIELDS and any(int(c) % p for c in a.split(",")):
        ctx = make_field(p, m)
        b = format_element(ctx, ctx.inv(ctx.parse_element(a)))
    else:
        b = draw(digits)
    a = draw(st.sampled_from([a] * 10 + ["x", ",".join(["1"] * (m + 1))]))
    return n, ["--p", str(p), "--m", str(m), "--n", str(n), "--a", a, "--b", b]


@st.composite
def orders_argv(draw):
    """An `orders` command line (`curve_args`), mostly with 2 <= s <= n - 1."""
    n, args = curve_args(draw)
    s = draw(st.sampled_from(list(range(2, n)) * 6 + list(range(n + 2))))
    point = draw(st.sampled_from(["inflection", "infinite-branch"]))
    return ["orders", *args, "--s", str(s), "--point", point]


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, database=None)
@given(orders_argv())
@example(["orders", "--p", "13", "--m", "2", "--n", "4", "--a", "4", "--b", "4", "--s", "2",
          "--point", "infinite-branch"])  # a rational root in F_{13^2}
@example(["orders", "--p", "11", "--m", "2", "--n", "3", "--a", "1,1", "--b", "2,1",
          "--s", "2"])  # no root in F_{11^2}: answered from the base-field series
@example(["orders", "--p", "13", "--n", "3", "--a", "2", "--b", "7", "--s", "2"])  # a*b = 1
@example(["orders", "--p", "318665857834031151167461", "--n", "3", "--a", "2", "--b", "3",
          "--s", "2"])  # psi_12, composite
@example(["orders", "--p", str(2**61 - 1), "--n", "6", "--a", "2", "--b", "3", "--s", "4",
          "--point", "infinite-branch"])
@example(["orders", "--p", "100000000000000000039", "--n", "33333333333333333346", "--a", "2",
          "--b", "3", "--s", "2"])  # n past the C index range: no list of length n
def test_orders_keeps_the_exit_code_contract(argv):
    code, out, err = run_in_process(argv)
    assert (code == 0 and out.endswith("verdict: MATCH\n")) or (code == 2 and out == "")
    assert "Traceback" not in err
    assert run_in_process(argv)[1] == out


@st.composite
def curve_query_argv(draw):
    """A `count` or `bounds` command line (`curve_args`), or a `chords` one
    over p <= 400, prime or not: mostly n | p - 1 and P a pair of residues,
    with P = (a, 1/a) (a vertex, or a*b = 1) and residues out of range
    among the draws."""
    command = draw(st.sampled_from(["count", "bounds", "chords"]))
    if command != "chords":
        return [command, *curve_args(draw)[1]]
    p = draw(st.sampled_from([p for p, m in PRIME_POWER_FIELDS if m == 1] * 4
                             + [p for p, m in COMPOSITE_FIELDS if m == 1]
                             + LARGE_CHARACTERISTICS))
    divisors = [d for d in range(2, 25) if (p - 1) % d == 0] or [2]
    n = draw(st.sampled_from(divisors * 12 + list(range(25))))
    residues = st.sampled_from(list(range(1, min(p, 401))) * 3 + [0, -1, p, p + 1])
    px = draw(residues)
    if draw(st.integers(0, 6)) == 0 and math.gcd(px, p) == 1:
        py = pow(px, -1, p)
    else:
        py = draw(residues)
    return ["chords", "--p", str(p), "--n", str(n), "--px", str(px), "--py", str(py)]


@settings(max_examples=300, deadline=None, database=None)
@given(curve_query_argv())
@example(["count", "--p", "5", "--m", "2", "--n", "3", "--a", "2,1", "--b", "1,3"])
@example(["bounds", "--p", "3", "--m", "4", "--n", "5", "--a", "1,2", "--b", "0,0,1"])
@example(["count", "--p", "13", "--n", "3", "--a", "2", "--b", "7"])  # a*b = 1
@example(["bounds", "--p", "13", "--n", "5", "--a", "2", "--b", "3"])  # 5 does not divide 12
@example(["chords", "--p", "13", "--n", "5", "--px", "2", "--py", "3"])
@example(["count", "--p", "4194319", "--n", "2", "--a", "2", "--b", "3"])  # above MAX_TABLE_Q
@example(["chords", "--p", "4194319", "--n", "2", "--px", "2", "--py", "3"])
@example(["chords", "--p", "13", "--n", "3", "--px", "5", "--py", "8"])  # a vertex
@example(["chords", "--p", "7", "--n", "2", "--px", "3", "--py", "6"])  # FAIL: exit 1
@example(["bounds", "--p", str(2**127 - 1), "--n", "3", "--a", "2", "--b", "3"])  # undecided
@example(["bounds", "--p", "561", "--n", "5", "--a", "2", "--b", "3"])  # a Carmichael number
def test_curve_queries_keep_the_exit_code_contract(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2)
    assert code != 1 or (argv[0] == "chords" and json.loads(out)["verdict"] == "FAIL")
    assert "Traceback" not in err
    assert run_in_process(argv)[1] == out


def test_orders_build_no_extension_field(monkeypatch, capsys):
    # the orders and contact orders stay over the base field: neither
    # `verify orders` nor a query whose roots lie in F_{13^3} builds a field
    # of degree m > 1
    real, built = ffield.make_field, []

    def counting(p, m=1, modulus=None):
        built.append(m)
        return real(p, m, modulus)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gfcurves" and getattr(module, "make_field", None) is real:
            monkeypatch.setattr(module, "make_field", counting)
    f13 = real(13)
    assert nth_root_count(f13, 2, 3) == 0 and nth_root_count(f13, f13.inv(2), 3) == 0
    assert run(capsys, ["verify", "orders", "--p-max", "40"])[0] == 0
    for point in ("inflection", "infinite-branch"):
        assert run(capsys, ["orders", "--p", "13", "--n", "3", "--a", "2", "--b", "2",
                            "--s", "2", "--point", point])[0] == 0
    assert len(built) > 2 and set(built) == {1}


# -- chords ------------------------------------------------------------------------


def test_chords_pass(capsys):
    code, out, _ = run(capsys, ["chords", "--p", "13", "--n", "3", "--px", "6", "--py", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["n_P"] == 1 and data["N_p"] == 18 and data["verdict"] == "PASS"


def test_chords_tangency_failure_is_reported(capsys):
    code, out, _ = run(capsys, ["chords", "--p", "7", "--n", "2", "--px", "3", "--py", "6"])
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "FAIL" and data["tangency"] == 2
    assert data["refined_verdict"] == "PASS"


def test_chords_vertex_rejected(capsys):
    code, out, _ = run(capsys, ["chords", "--p", "13", "--n", "3", "--px", "5", "--py", "8"])
    assert code == 2
    assert json.loads(out)["error"] == "VertexQuery"


def test_chords_on_a_large_polygon_answers_in_linear_time(capsys):
    # k = 50,001 vertices: a count over the C(k, 2) = 1.25e9 vertex pairs
    # would not finish, the O(k) count answers in well under a second
    start = perf_counter()
    code, out, err = run(capsys, ["chords", "--p", "100003", "--n", "2", "--px", "2", "--py", "3"])
    elapsed = perf_counter() - start
    data = json.loads(out)
    assert (data["n_P"], data["N_p"], data["lhs_2n2_nP"], data["tangency"]) == (12446, 99572,
                                                                               99568, 2)
    assert data["N_p"] == data["lhs_2n2_nP"] + (2 * 2 - 2) * data["tangency"]
    assert data["verdict"] == "FAIL" and data["refined_verdict"] == "PASS"
    assert code == (0 if data["verdict"] == "PASS" else 1)
    assert err == "" and "Traceback" not in out
    assert elapsed < 5.0


# -- scan --------------------------------------------------------------------------


def test_scan_small(capsys):
    code, out, _ = run(capsys, ["scan", "--p-max", "13"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# scan p_max=13")
    assert lines[1].split(",")[0] == "p"
    assert all(line.endswith(",0") for line in lines[2:])


def test_scan_n_filter(capsys):
    code, out, _ = run(capsys, ["scan", "--p-max", "13", "--n-filter", "3"])
    assert code == 0
    ps = {line.split(",")[0] for line in out.strip().splitlines()[2:]}
    assert ps == {"7", "13"}


def test_scan_rejects_small_pmax(capsys):
    code, _, err = run(capsys, ["scan", "--p-max", "4"])
    assert code == 2 and "p-max" in err


def test_scan_sample_recorded(capsys):
    code, out, _ = run(capsys, ["scan", "--p-max", "13", "--sample", "20"])
    assert code == 0
    assert any(line.startswith("# stride") for line in out.splitlines())


def test_scan_deterministic(capsys):
    _, out1, _ = run(capsys, ["scan", "--p-max", "13"])
    _, out2, _ = run(capsys, ["scan", "--p-max", "13"])
    assert out1 == out2


# -- figure1 / vtable -----------------------------------------------------------------


def test_figure1_output(capsys):
    code, out, _ = run(capsys, ["figure1", "--n-min", "3", "--n-max", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n\tp\tk\tdelta\tboundary_p"
    assert any(line.startswith("3\t73\t") for line in lines)


def test_figure1_bad_range(capsys):
    code, _, err = run(capsys, ["figure1", "--n-min", "2", "--n-max", "3"])
    assert code == 2


def test_vtable_output(capsys):
    code, out, _ = run(capsys, ["vtable", "--k-min", "2", "--k-max", "50"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,V,Vtilde,W,giulietti,np_bound,refinement"
    row44 = next(line for line in lines if line.startswith("44,"))
    fields = row44.split(",")
    assert fields[4] == "15" and fields[5] == "14"


class _Writes(io.StringIO):
    """A stdout that records the number of lines in each write."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


def test_vtable_writes_bounded_blocks():
    # a 5-row chunk and its header go out in one write; 3000 lines go out in
    # blocks of at most VTABLE_BLOCK lines, with the golden bytes
    small, large = _Writes(), _Writes()
    with contextlib.redirect_stdout(small):
        assert main(["vtable", "--k-min", "2", "--k-max", "6"]) == 0
    with contextlib.redirect_stdout(large):
        assert main(["vtable", "--k-min", "2", "--k-max", "3000"]) == 0
    assert small.lines == [6]
    assert sum(large.lines) == 3000 and max(large.lines) == cli.VTABLE_BLOCK < 3000
    assert (hashlib.sha256(large.getvalue().encode()).hexdigest()
            == "fa6c2b3587644c39e34a4a66a9ecd671361f959787df181de74a1f0a792252b4")


GARBAGE = ["", "x", "3.5", "1e3", "-", "--", "0x10", "٣"]


@st.composite
def grid_argv(draw):
    """A `figure1` or `vtable` command line: mostly a range inside the size
    budget (n <= 12, k <= 150), with the boundary values, inverted ranges,
    unparsable values, omitted options and figure1 degrees from 63 up (the
    sieve guard) among the draws."""
    if draw(st.booleans()):
        opts, low, high = ("--n-min", "--n-max"), 3, 12
        too_big = [63, 64, 100, 10**19]
    else:  # vtable has no guard of its own: a large --k-max only comes inverted
        opts, low, high = ("--k-min", "--k-max"), 2, 150
        too_big = []
    small = list(range(low - 3, high + 1))
    lo = draw(st.sampled_from(small * 2 + [low] * 8 + GARBAGE + [10**19, None]))
    hi = draw(st.sampled_from(small * 2 + [high] * 4 + GARBAGE + too_big * 3 + [None]))
    if opts[0] == "--k-min" and hi is None and isinstance(lo, int) and lo <= 100:
        hi = lo  # the default --k-max is 100: keep an omitted one under the budget
    argv = ["figure1" if opts[0] == "--n-min" else "vtable"]
    for opt, value in zip(opts, (lo, hi)):
        if value is not None:
            argv += draw(st.sampled_from([[opt, str(value)], [f"{opt}={value}"]]))
    return argv


@settings(max_examples=200, deadline=None, database=None)
@given(grid_argv())
@example(["figure1", "--n-min", "3", "--n-max", "63"])  # the first refused degree
@example(["figure1", "--n-min", "12", "--n-max", "3"])  # inverted
@example(["vtable", "--k-min", "2", "--k-max", "2"])
@example(["vtable", "--k-min", str(10**19), "--k-max", "150"])  # inverted
def test_grids_keep_the_exit_code_contract(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 2)
    assert "Traceback" not in err
    assert (code == 0) == (out != "")
    assert run_in_process(argv)[1] == out


@st.composite
def sweep_argv(draw):
    """A `scan` or `verify` command line under the size budget: --p-max up
    to 60 with its boundary, negative and garbage values and its omission,
    scan's --n-filter and --sample, every verify suite and some that do not
    exist, options spaced or `=`-joined and in any order, and a global --jobs
    from 2 to 4, of 1, or an int below 1 or garbage.  No scan drawn here
    reaches harness.POOL_MIN_LINES, so --jobs runs each serially.  The
    suites that run `verify lemmas`, and the default --p-max of orders and
    prop41, are drawn only with a value that is refused before any check
    runs: a full-size sweep is not a contract question.  `verify lemmas`
    alone, which ignores --p-max, is pinned by explicit examples instead."""
    command = draw(st.sampled_from(["scan", "verify"]))
    p_max = draw(st.sampled_from([*range(-1, 5), 6, 7, 12, 13, *GARBAGE, None]
                                 + [*range(5, 61)] * 2))
    if command == "scan":
        opts = [("--p-max", p_max),
                ("--n-filter", draw(st.sampled_from([*range(0, 25), 60, *GARBAGE]
                                                    + [None] * 20))),
                ("--sample", draw(st.sampled_from(["ALL", "0", "-1", *GARBAGE]
                                                  + ["all", "1", "2", "50", None] * 5)))]
        lead = []
    else:
        suite = draw(st.sampled_from(["orders", "prop41"] * 4 + ["lemmas", "all", "x", "ORDERS"]))
        slow = suite in ("lemmas", "all") or (suite in ("orders", "prop41") and p_max is None)
        refused = isinstance(p_max, str) or (suite == "all" and p_max is not None and p_max < 13)
        if slow and not refused:
            p_max = "x"
        opts, lead = [("--p-max", p_max)], [suite]
    words = []
    for opt, value in opts:
        if value is not None:
            words.append(draw(st.sampled_from([[opt, str(value)], [f"{opt}={value}"]])))
    words = draw(st.permutations(words + [lead]))
    jobs = draw(st.sampled_from([None] * 20 + ["1"] * 5 + ["2", "3", "4"] * 3
                                + ["0", "-1", *GARBAGE]))
    top = [] if jobs is None else draw(st.sampled_from([["--jobs", jobs], [f"--jobs={jobs}"]]))
    return [*top, command, *(w for word in words for w in word)]


@settings(max_examples=200, deadline=None, database=None)
@given(sweep_argv())
@example(["--jobs", "2", "scan", "--p-max", "13"])  # below the pool's line floor: serial
@example(["scan", "--p-max", "5"])
@example(["scan", "--p-max", "4"])
@example(["scan", "--p-max", "13", "--sample", "0"])
@example(["verify", "prop41", "--p-max", "7"])  # FAIL: exit 1
@example(["verify", "orders", "--p-max", "12"])
@example(["verify", "all", "--p-max", "12"])
@example(["verify", "lemmas"])
@example(["verify", "lemmas", "--p-max", "13"])  # --p-max is ignored
def test_sweeps_keep_the_exit_code_contract(argv):
    code, out, err = run_in_process(argv)
    assert code in (0, 1, 2)
    if "scan" in argv:
        failing = any(line.endswith(",1") for line in out.splitlines())
    else:
        failing = "[FAIL]" in out
    assert code != 1 or failing
    assert "Traceback" not in err
    assert run_in_process(argv)[1] == out


# the option names of the grammar: the global ones (None) and per subcommand
CURVE_OPTIONS = ("--p", "--m", "--modulus", "--n", "--a", "--b")
OPTIONS = {
    None: ("--format", "--jobs", "--seed"),
    "count": CURVE_OPTIONS, "bounds": CURVE_OPTIONS,
    "orders": (*CURVE_OPTIONS, "--s", "--point"), "chords": ("--p", "--n", "--px", "--py"),
    "scan": ("--p-max", "--n-filter", "--sample"), "figure1": ("--n-min", "--n-max"),
    "vtable": ("--k-min", "--k-max"), "verify": ("--p-max",),
}
OPTION_NAMES = frozenset(name for names in OPTIONS.values() for name in names)
MUTATIONS = ("none", "abbreviate", "equals", "minus", "value", "drop", "duplicate", "move",
             "insert")


@st.composite
def mutated_argv(draw):
    """A command line of `orders_argv`, `curve_query_argv`, `grid_argv` or
    `sweep_argv`, as drawn or with one mutation: an option abbreviated, in
    the `--name=value` form (with or without its old value left behind), with
    a leading '-' on its value, a non-int, bad-choice or empty value, dropped,
    duplicated or moved across the subcommand; or `-h`, `--help`, `--` or a
    second verify suite inserted anywhere."""
    argv = draw(st.one_of(orders_argv(), curve_query_argv(), grid_argv(), sweep_argv()))
    options = [i for i, tok in enumerate(argv[:-1]) if tok in OPTION_NAMES]
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "none" or not options:
        return argv
    i = draw(st.sampled_from(options))
    name, value = argv[i], argv[i + 1]
    if kind == "abbreviate" and len(name) > 3:
        argv[i] = name[:draw(st.integers(3, len(name) - 1))]
    elif kind == "equals":
        argv[i:i + 2] = draw(st.sampled_from([[f"{name}={value}"], [f"{name}={value}", value]]))
    elif kind == "minus":
        argv[i + 1] = "-" + value
    elif kind == "value":
        argv[i + 1] = draw(st.sampled_from(["x", "3.5", "", "xml", "-1"]))
    elif kind == "drop":
        del argv[i:i + 2]
    elif kind == "duplicate":
        argv[i:i] = [name, draw(st.sampled_from([value, "2"]))]
    elif kind == "move":
        command = next(j for j, tok in enumerate(argv) if tok in OPTIONS)
        del argv[i:i + 2]
        at = len(argv) if i < command else 0
        argv[at:at] = [name, value]
    elif kind == "insert":
        at = draw(st.integers(0, len(argv)))
        argv.insert(at, draw(st.sampled_from(["-h", "--help", "--", "orders"])))
    return argv


def exact_tokens(argv):
    """Whether each token that starts with '-' is the full name of an option
    of its place, before or after the subcommand, and none comes twice."""
    names, seen = OPTIONS[None], set()
    for tok in argv:
        if names is OPTIONS[None] and tok in OPTIONS:
            names = OPTIONS[tok]
        elif tok[:1] == "-":
            if tok not in names or tok in seen:
                return False
            seen.add(tok)
    return True


def argparse_vars(argv):
    """vars() of argparse's namespace for what `main` hands it, or None when
    argparse exits (usage error or help)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(cli._build_parser().parse_args(cli._glue_element_values(argv)))
    except SystemExit:
        return None


@settings(max_examples=600, deadline=None, database=None)
@given(mutated_argv())
@example(["verify", "--p-max", "13", "orders"])
@example(["verify", "suite", "orders"])  # the positional's name is not an option
@example(["verify", "--p", "13", "orders"])  # an abbreviation of --p-max
@example(["orders", "--p", "13", "--n", "3", "--a", "2", "--b", "3", "--s", "2",
          "--point", "x", "--point", "inflection"])  # argparse checks every occurrence
@example(["count", "--p", "13", "--m", "2", "--n", "3", "--a=-1,3", "--b", "2"])
@example(["count", "--p=13", "13", "--n", "3", "--a", "6", "--b", "2"])
def test_plain_parse_agrees_with_argparse(argv):
    plain, reference = cli._plain_parse(argv), argparse_vars(argv)
    if plain is not None:
        assert vars(plain) == reference
    elif reference is not None:  # declined though argparse accepts it
        assert not exact_tokens(argv)


# -- verify ------------------------------------------------------------------------


def test_verify_lemmas_passes(capsys):
    code, out, _ = run(capsys, ["verify", "lemmas"])
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_orders_passes(capsys):
    code, out, _ = run(capsys, ["verify", "orders", "--p-max", "40"])
    assert code == 0


def test_verify_prop41_reports_the_finding(capsys):
    # the classical identity fails on vertex-tangent points; the verifier
    # must say so (exit 1) while confirming the exact decomposition
    code, out, _ = run(capsys, ["verify", "prop41", "--p-max", "13"])
    assert code == 1
    assert "[FAIL] chord-identity-as-stated" in out
    assert "[PASS] chord-identity-tangency-decomposition" in out
    assert "[PASS] chord-identity-refined-exclusion" in out


@pytest.mark.parametrize("suite,p_max,p_min", [
    ("prop41", 3, 7), ("prop41", 6, 7), ("orders", 5, 13), ("orders", 12, 13),
    ("all", 6, 13), ("all", 12, 13),
])
def test_verify_rejects_p_max_that_covers_nothing(capsys, suite, p_max, p_min):
    # below p_min a check would print [PASS] after covering 0 points or cases
    code, out, err = run(capsys, ["verify", suite, "--p-max", str(p_max)])
    assert code == 2
    assert out == ""
    assert err == f"verify {suite} requires --p-max >= {p_min}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("suite,p_min,exit_code,coverage", [
    ("orders", 13, 0, "8 (p,n,s,curve) cases"),
    ("prop41", 7, 1, "30 points, 9 violations"),
])
def test_verify_smallest_p_max_covers_a_case(capsys, suite, p_min, exit_code, coverage):
    code, out, err = run(capsys, ["verify", suite, "--p-max", str(p_min)])
    assert code == exit_code and err == ""
    assert coverage in out


# -- usage -------------------------------------------------------------------------


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert main(["count", "--p", "13"]) == 2


def test_seed_and_jobs_accepted(capsys):
    code, out, _ = run(capsys, ["--seed", "7", "--jobs", "1", "scan", "--p-max", "7"])
    assert code == 0


def test_one_parser_serves_calls_in_a_row(capsys):
    # each call in one process answers as a fresh `python -m gfcurves.cli`
    count = ["count", "--p", "13", "--n", "3", "--a", "6", "--b", "2"]
    calls = [count, ["bounds", "--p", "31", "--n", "5", "--a", "2", "--b", "3"],
             ["count", "--p", "13"], ["--format", "csv"] + count, count,
             ["--form", "csv"] + count,  # an abbreviation: argparse parses it
             ["count", "--p", "13", "--m", "2", "--n", "3", "--a=-1,3", "--b", "2"]]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    codes = []
    for argv in calls:
        got = run(capsys, argv)
        fresh = subprocess.run([sys.executable, "-m", "gfcurves.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(got[0])
    assert codes == [0, 0, 2, 0, 0, 0, 0]
    assert cli._build_parser() is cli._build_parser()


def test_runtime_loads_only_the_standard_library():
    # "no runtime dependencies": importing the package and its CLI loads no
    # top-level module from outside the standard library
    code = ("import sys; before = set(sys.modules); import gfcurves, gfcurves.cli; "
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "gfcurves" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"gfcurves"} == set()


def test_single_curve_queries_load_neither_dataclasses_nor_harness():
    # a cold `import gfcurves.cli` does only what a single-curve query needs;
    # -I ignores PYTHONPATH and -S keeps the `site` imports out of sys.modules
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = "\n".join([
        "import contextlib, io, sys",
        f"sys.path.insert(0, {src!r})",
        "import gfcurves.cli as cli",
        "print('dataclasses' in sys.modules, 'gfcurves.harness' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    rc = cli.main(['count', '--p', '13', '--n', '3', '--a', '6', '--b', '2'])",
        "print(rc, 'gfcurves.harness' in sys.modules, 'argparse' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    rc = cli.main(['vtable', '--k-min', '2', '--k-max', '3'])",
        "print(rc, 'gfcurves.harness' in sys.modules)",
        "with contextlib.redirect_stderr(io.StringIO()):",
        "    rc = cli.main(['count', '--p', '13'])",
        "print(rc, 'argparse' in sys.modules)",
    ])
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["False False", "0 False False", "0 True", "2 True"]


def test_small_jobs_scan_runs_serially_without_the_pool():
    # below harness.POOL_MIN_LINES, --jobs 2 writes the serial bytes and
    # never imports the process pool
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = "\n".join([
        "import contextlib, io, sys",
        f"sys.path.insert(0, {src!r})",
        "import gfcurves.cli as cli",
        "outs = []",
        "for argv in (['--jobs', '2', 'scan', '--p-max', '23'], ['scan', '--p-max', '23']):",
        "    with contextlib.redirect_stdout(io.StringIO()) as buf:",
        "        rc = cli.main(argv)",
        "    outs.append(buf.getvalue())",
        "    print(rc, 'concurrent.futures.process' in sys.modules)",
        "print(outs[0] == outs[1], outs[0].count('\\n'))",
    ])
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["0 False", "0 False", "True 3650"]


# -- the size guard of the field index --------------------------------------------

FIRST_PRIME_ABOVE_LIMIT = 4194319


@pytest.mark.parametrize("argv", [
    ["count", "--p", str(FIRST_PRIME_ABOVE_LIMIT), "--n", "2", "--a", "2", "--b", "3"],
    ["chords", "--p", str(FIRST_PRIME_ABOVE_LIMIT), "--n", "2", "--px", "2", "--py", "3"],
    ["count", "--p", "2", "--m", "23", "--n", "47", "--a", "1", "--b", "0,1"],
], ids=["count", "chords", "count-extension"])
def test_field_above_table_limit_exits_2_without_allocating(capsys, argv):
    assert 1_000_003 < MAX_TABLE_Q < 2**23
    assert is_prime(FIRST_PRIME_ABOVE_LIMIT)
    assert not any(is_prime(x) for x in range(MAX_TABLE_Q + 1, FIRST_PRIME_ABOVE_LIMIT))
    tracemalloc.start()
    try:
        start = perf_counter()
        code = main(argv)
        elapsed = perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"index limit {MAX_TABLE_Q}" in err and "Traceback" not in err
    assert elapsed < 1.0
    assert peak < 1 << 20  # one list over F_q would take 32 MiB or more


# -- the sieve guard ----------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["scan", "--p-max", str(10**19)],
    ["scan", "--p-max", str(MAX_TABLE_Q + 1)],
    ["verify", "prop41", "--p-max", str(10**19)],
    ["verify", "prop41", "--p-max", str(MAX_TABLE_Q + 1)],
    ["figure1", "--n-min", "3", "--n-max", str(10**19)],
    ["figure1", "--n-min", "3", "--n-max", "63"],
], ids=["scan-1e19", "scan-first-refused", "prop41-1e19", "prop41-first-refused",
        "figure1-1e19", "figure1-first-refused"])
def test_sieve_above_table_limit_exits_2_without_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"index limit {MAX_TABLE_Q}" in err and "Traceback" not in err
    assert peak < 1 << 20


def test_figure1_first_refused_degree_is_63():
    # the cap n*k_{n+3} of n = 62 is the last one under the sieve limit
    assert 62 * k_threshold(65) + 1 <= MAX_TABLE_Q < 63 * k_threshold(66) == 4364325


# -- orders ---------------------------------------------------------------------------


def test_orders_with_a_rational_root_in_a_huge_prime_field(capsys):
    # the orders need no root of T^3 - 8 and no scan of F_p
    start = perf_counter()
    code, out, err = run(capsys, ["orders", "--p", "1000000009", "--n", "3",
                                  "--a", "2", "--b", "8", "--s", "2"])
    elapsed = perf_counter() - start
    assert code == 0 and err == ""
    assert out.splitlines()[-1] == "verdict: MATCH"
    assert elapsed < 5.0
