import json
import os
import subprocess
import sys
import tracemalloc
from time import perf_counter

import pytest

from gfcurves import cli
from gfcurves.cli import main
from gfcurves.curve import MAX_TABLE_Q
from gfcurves.ffield import is_prime


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


def test_count_extension_field(capsys):
    code, out, _ = run(capsys, ["count", "--p", "3", "--m", "2", "--n", "2",
                                "--a", "1,1", "--b", "0,1"])
    assert code == 0
    data = json.loads(out)
    assert data["model_total"] == data["affine_total"] + data["branches_at_infinity_rational"]


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


def test_orders_over_extension_base_field_exits_2(capsys):
    # b is not a cube in F_121: the splitting tower would be built over
    # F_{11^2}, which is unsupported input, not a verification verdict
    code, out, err = run(capsys, ["orders", "--p", "11", "--m", "2", "--n", "3",
                                  "--a", "1,1", "--b", "2,1", "--s", "2"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
             ["count", "--p", "13"], ["--format", "csv"] + count, count]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    codes = []
    for argv in calls:
        got = run(capsys, argv)
        fresh = subprocess.run([sys.executable, "-m", "gfcurves.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=60)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(got[0])
    assert codes == [0, 0, 2, 0, 0]
    assert cli._build_parser() is cli._build_parser()


# -- the class-table size guard ---------------------------------------------------

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
    assert f"class-table limit {MAX_TABLE_Q}" in err and "Traceback" not in err
    assert elapsed < 1.0
    assert peak < 1 << 20  # one list over F_q would take 32 MiB or more
