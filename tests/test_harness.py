import math
from fractions import Fraction

import pytest

from gfcurves import harness as H
from gfcurves.bounds import hasse_weil, sv_bound, w_bound
from gfcurves.curve import count_points_fast, make_curve
from gfcurves.ffield import make_field


def test_primes_up_to():
    assert H.primes_up_to(31) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert H.primes_up_to(1) == []


def test_admissible_degrees():
    assert H.admissible_degrees(13) == [2, 3, 4, 6]
    assert H.admissible_degrees(7) == [2, 3]


# -- scan -----------------------------------------------------------------------


def test_scan_rows_match_module_level_computations():
    rows = [r for r in H.scan_rows(13) if (r.p, r.n) == (13, 3)]
    assert len(rows) == 12 * 12 - 12
    ctx = make_field(13)
    for r in rows[:40]:
        curve = make_curve(ctx, r.n, r.a, r.b)
        rep = count_points_fast(curve)
        assert (r.affine_total, r.model_total) == (rep.affine_total, rep.model_total)
        assert r.hw == hasse_weil(13, 4).value
        svs = [sv_bound(curve, s) for s in range(2, r.n)]
        applicable = [(x.value, x.intermediates["s"]) for x in svs if x.applicable]
        assert (r.sv_best, r.sv_best_s) == (min(applicable) if applicable else (None, None))
        wrep = w_bound(curve)
        assert r.w_bound == (wrep.value if wrep.applicable else None)
        assert not r.violation


def test_scan_rows_sorted_and_filtered():
    rows = list(H.scan_rows(13, n_filter=3))
    assert sorted({r.p for r in rows}) == [7, 13]  # 3 divides p-1 only there
    keys = [(r.p, r.m, r.n, r.a, r.b) for r in rows]
    assert keys == sorted(keys)


def test_scan_sampling_is_deterministic_subset():
    full = {(r.p, r.n, r.a, r.b) for r in H.scan_rows(31)}
    sampled = list(H.scan_rows(31, sample=50))
    assert 0 < len(sampled) < len(full)
    assert {(r.p, r.n, r.a, r.b) for r in sampled} <= full
    again = list(H.scan_rows(31, sample=50))
    assert sampled == again


def test_scan_csv_deterministic_and_clean():
    lines1 = list(H.scan_csv_lines(13))
    lines2 = list(H.scan_csv_lines(13))
    assert lines1 == lines2
    assert lines1[0].startswith("# scan")
    assert lines1[1] == ",".join(H.SCAN_COLUMNS)
    assert all(line.endswith(",0") for line in lines1[2:])


def test_scan_parallel_matches_serial():
    serial = list(H.scan_csv_lines(31, jobs=1))
    parallel = list(H.scan_csv_lines(31, jobs=2))
    assert serial == parallel


def test_worker_count_clamps_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(H.os, "cpu_count", lambda: 4)
    assert H.worker_count(1, 50) == 1
    assert H.worker_count(2, 50) == 2
    assert H.worker_count(10_000, 50) == 4   # never more than the cpus
    assert H.worker_count(10_000, 3) == 3    # nor than the tasks
    assert H.worker_count(0, 50) == 1        # 0 and below run serially
    assert H.worker_count(-5, 50) == 1
    assert H.worker_count(8, 0) == 1
    monkeypatch.setattr(H.os, "cpu_count", lambda: None)  # unknown: serial
    assert H.worker_count(8, 50) == 1


def test_scan_no_violations_p31_full():
    assert not any(r.violation for r in H.scan_rows(31))


# -- figure grid -----------------------------------------------------------------


def test_figure1_region():
    cells = list(H.figure1_cells(3, 3))
    cap = 3 * (Fraction(6 * 7 * 8, 12) - 3)  # n * k_{n+3} = 75
    ps = [c.p for c in cells]
    assert all(3 < p - 1 <= cap for p in ps)
    assert 73 in ps and 79 not in ps and 5 in ps


def test_figure1_delta_matches_float_formula():
    for cell in H.figure1_cells(3, 6):
        n, p, k = cell.n, cell.p, float(cell.k)
        x = math.sqrt(2) * k
        direct = (p + 1 + 2 * (n - 1) ** 2 * math.sqrt(p)) / (2 * n * n) \
            - 0.5 * (3 * x ** (2 / 3) - 103 / 19 * x ** (1 / 3) + 13 / 3)
        assert abs(float(cell.delta) - direct) < 1e-6


def test_figure1_tsv_shape():
    lines = list(H.figure1_tsv_lines(3, 4))
    assert lines[0] == "n\tp\tk\tdelta\tboundary_p"
    for line in lines[1:]:
        parts = line.split("\t")
        assert len(parts) == 5
        float(parts[3])  # parseable fixed-point


# -- vtable ------------------------------------------------------------------------


def test_vtable_values():
    rows = {r[0]: r for r in H.vtable_rows(2, 60)}
    k, v, vt, w, gi, np_v, ref = rows[25]
    assert v == 18 and vt == 18 and gi == Fraction(26, 3) and ref is None
    k, v, vt, w, gi, np_v, ref = rows[44]
    assert gi == 15 and np_v == 14 and ref is None
    k, v, vt, w, gi, np_v, ref = rows[26]
    assert vt == Fraction(130, 7) and ref == 9
    lines = list(H.vtable_csv_lines(2, 30))
    assert lines[0] == "k,V,Vtilde,W,giulietti,np_bound,refinement"


# -- verify suites -----------------------------------------------------------------


def test_verify_lemmas_all_pass():
    checks = H.verify_lemmas(u_grid=2000, brute_u=800, brute_t=500)
    assert all(c.ok for c in checks)


def test_verify_orders_small_grid():
    checks = H.verify_orders(40)
    assert all(c.ok for c in checks)


def test_prop41_sweep_small():
    sweep = H.prop41_sweep(13)
    assert sweep.points_checked > 0
    # the as-stated identity fails on vertex-tangent points, and only there
    assert sweep.violations
    assert all(d > 0 for (*_, d) in sweep.violations)
    # while the decomposition and the refined identity are exact everywhere
    assert not sweep.decomposition_failures
    assert not sweep.refined_failures
    checks = H.verify_prop41_suite(13)
    by_name = {c.name: c.ok for c in checks}
    assert by_name["chord-identity-as-stated"] is False
    assert by_name["chord-identity-tangency-decomposition"] is True
    assert by_name["chord-identity-refined-exclusion"] is True


def test_verify_suite_dispatch():
    with pytest.raises(ValueError):
        H.verify_suite("nope")
