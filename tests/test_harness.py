import bisect
import math
import random
from fractions import Fraction

import pytest

from gfcurves import bounds as B
from gfcurves import harness as H
from gfcurves.bounds import floor_kth_root, hasse_weil, k_threshold, sv_bound, w_bound
from gfcurves.chords import build_polygon
from gfcurves.cli import main
from gfcurves.curve import MAX_TABLE_Q, count_points_fast, curve_cell, make_curve
from gfcurves.errors import FieldTooLarge
from gfcurves.ffield import make_field
from brute_oracles import diagonal_violations, vtable_rows_fraction
from test_chords import chord_count_grid


def test_primes_up_to(monkeypatch):
    assert H.primes_up_to(31) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    assert H.primes_up_to(1) == []
    primes = [x for x in range(2, 3001) if all(x % d for d in range(2, math.isqrt(x) + 1))]
    for limit in range(3001):  # trial division pins every limit, 0 to 3 among them
        assert H.primes_up_to(limit) == [x for x in primes if x <= limit]
    # at the caps of figure1 n = 3..62 (76 up to 4,100,340): each list is the
    # largest one cut at its cap, and the 200 numbers below every cap are
    # prime exactly where trial division by the primes up to 2024 says so
    caps = [math.floor(n * k_threshold(n + 3)) + 1 for n in range(3, 63)]  # n*k_{n+3} + 1
    top = H.primes_up_to(caps[-1])
    small = [q for q in primes if q * q <= caps[-1]]
    for cap in caps:
        assert H.primes_up_to(cap) == top[:bisect.bisect_right(top, cap)]
        window = range(max(2, cap - 199), cap + 1)
        assert [p for p in top if window.start <= p <= cap] == [
            x for x in window if all(x % q for q in small if q * q <= x)]
    # above the index limit the guard raises before any sieve is allocated
    def no_allocation(*args):
        raise AssertionError("sieve allocated")

    monkeypatch.setattr(H, "bytearray", no_allocation, raising=False)
    for limit in (MAX_TABLE_Q + 1, 2 * MAX_TABLE_Q, 10**12):
        with pytest.raises(FieldTooLarge):
            H.primes_up_to(limit)


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


def scan_csv_lines(p_max, **kwargs):
    return "".join(text for text, _ in H.scan_csv_blocks(p_max, **kwargs)).splitlines()


def test_scan_csv_deterministic_and_clean():
    lines1 = scan_csv_lines(13)
    lines2 = scan_csv_lines(13)
    assert lines1 == lines2
    assert lines1[0].startswith("# scan")
    assert lines1[1] == ",".join(H.SCAN_COLUMNS)
    assert all(line.endswith(",0") for line in lines1[2:])


def test_scan_csv_blocks_are_the_rows_as_csv():
    """One block of comments and header, then one block of newline-terminated
    lines per (p, n): the ScanRow fields in CSV."""
    blocks = list(H.scan_csv_blocks(19, sample=40))
    strides = [f"# stride p={p}: {H._pair_stride(p, 40)}" for p in (5, 7, 11, 13, 17, 19)]
    head = ["# scan p_max=19 n_filter=all sample=40", *strides, ",".join(H.SCAN_COLUMNS)]
    assert blocks[0] == ("".join(line + "\n" for line in head), 0)
    assert len(blocks) == 1 + sum(len(H.admissible_degrees(p)) for p in H.primes_up_to(19))
    assert all(text.endswith("\n") for text, _ in blocks)
    lines = [line for text, _ in blocks[1:] for line in text.splitlines()]
    assert lines == [",".join("-" if v is None else str(int(v) if isinstance(v, bool) else v)
                              for v in (r.p, r.m, r.n, r.a, r.b, r.k, r.affine_total,
                                        r.model_total, r.hw, r.sv_best, r.sv_best_s,
                                        r.w_bound, r.applicable_flags, r.violation))
                     for r in H.scan_rows(19, sample=40)]


def test_scan_csv_blocks_count_their_violation_lines(monkeypatch, capsys):
    """Each block carries the number of its lines whose violation column is
    1, and `scan` exits 1 on their sum, in a full and in a sampled scan; the
    Hasse-Weil bound is lowered to genus 0 (q + 1) so that some rows violate
    it."""
    hasse_weil = H.B.hasse_weil
    monkeypatch.setattr(H.B, "hasse_weil", lambda q, g: hasse_weil(q, 0))
    for sample, argv in ((None, []), (40, ["--sample", "40"])):
        blocks = list(H.scan_csv_blocks(19, sample=sample))
        if sample is not None:
            assert max(H._pair_stride(p, sample) for p in H.primes_up_to(19)) > 1
        counts = [count for _, count in blocks[1:]]
        assert counts == [sum(line.endswith(",1") for line in text.splitlines())
                          for text, _ in blocks[1:]]
        assert 0 < sum(counts) < sum(text.count("\n") for text, _ in blocks[1:])
        assert main(["scan", "--p-max", "19", *argv]) == 1
        assert capsys.readouterr().out == "".join(text for text, _ in blocks)


def test_sampled_scan_is_every_stride_th_row_of_each_task():
    """`--sample` keeps the rows of each (p, n), in (a, b) order, whose index
    is a multiple of the stride: the slice [::stride] of the full task."""
    for sample in (7, 50, 333):
        for p in H.primes_up_to(31):
            stride = H._pair_stride(p, sample)
            for n in H.admissible_degrees(p):
                full = H._scan_task_rows((p, n, None))
                assert len(full) == (p - 1) * (p - 2)
                assert H._scan_task_rows((p, n, sample)) == full[::stride]


def test_scan_parallel_matches_serial(monkeypatch):
    # a scan this small stays serial; with no line floor the pool must start
    import concurrent.futures

    started = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(H.os, "cpu_count", lambda: 2)
    serial = list(H.scan_csv_blocks(31, jobs=1))
    assert started == []
    monkeypatch.setattr(H, "POOL_MIN_LINES", 0)
    parallel = list(H.scan_csv_blocks(31, jobs=2))
    assert started == [2]
    assert serial == parallel


def test_worker_count_clamps_to_tasks_and_cpus(monkeypatch):
    monkeypatch.setattr(H, "POOL_MIN_LINES", 0)
    monkeypatch.setattr(H.os, "cpu_count", lambda: 4)
    tasks = H._scan_tasks(211, None, None)
    assert H.worker_count(1, tasks) == 1
    assert H.worker_count(2, tasks) == 2
    assert H.worker_count(10_000, tasks) == 4     # never more than the cpus
    assert H.worker_count(10_000, tasks[:3]) == 3  # nor than the tasks
    assert H.worker_count(0, tasks) == 1          # 0 and below run serially
    assert H.worker_count(-5, tasks) == 1
    assert H.worker_count(8, []) == 1
    monkeypatch.setattr(H.os, "cpu_count", lambda: None)  # unknown: serial
    assert H.worker_count(8, tasks) == 1


def test_worker_count_pools_only_from_the_line_floor(monkeypatch):
    """The pool starts when the kept tasks write at least POOL_MIN_LINES
    lines: (p - 1)(p - 2) per (p, n), thinned by the sample stride."""
    monkeypatch.setattr(H.os, "cpu_count", lambda: 4)
    # the full scan at p <= 211 writes 4,679,088 lines and keeps the pool
    assert H.worker_count(2, H._scan_tasks(211, None, None)) == 2
    # but not when --sample thins it (14,192 lines) or --n-filter keeps
    # one degree (n = 2: 596,364 lines)
    assert H.worker_count(2, H._scan_tasks(211, None, 50)) == 1
    assert H.worker_count(2, H._scan_tasks(211, 2, None)) == 1
    # the floor falls between p <= 127 (915,348 lines) and p <= 131 (1,015,968)
    assert H.worker_count(2, H._scan_tasks(127, None, None)) == 1
    assert H.worker_count(2, H._scan_tasks(131, None, None)) == 2
    for args in [(13, None, None), (13, 3, None), (23, None, 7), (31, 2, 50)]:
        tasks = H._scan_tasks(*args)
        lines = sum(len(H._scan_task_rows(task)) for task in tasks)  # row by row
        monkeypatch.setattr(H, "POOL_MIN_LINES", lines)
        assert H.worker_count(2, tasks) == 2
        monkeypatch.setattr(H, "POOL_MIN_LINES", lines + 1)
        assert H.worker_count(2, tasks) == 1


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
    blocks = list(H.figure1_tsv_lines(3, 4))
    assert len(blocks) == 3 and all(block.endswith("\n") for block in blocks)
    lines = "".join(blocks).splitlines()
    assert lines[0] == "n\tp\tk\tdelta\tboundary_p"
    for line in lines[1:]:
        parts = line.split("\t")
        assert len(parts) == 5
        float(parts[3])  # parseable fixed-point


def exact_figure1_lines(n_min, n_max):
    """figure1 from the exact route alone: every delta is the enclosure
    midpoint `_delta_num` through `bounds.fixed`, every k `bounds.fixed`."""
    primes = H.primes_up_to(math.floor(n_max * k_threshold(n_max + 3)) + 1)
    lines = ["n\tp\tk\tdelta\tboundary_p"]
    for n in range(n_min, n_max + 1):
        cap = n * k_threshold(n + 3)
        den, tail = 4 * n * n * B._W_DEN, B.fixed(cap + 1, 6)
        lines += [f"{n}\t{p}\t{B.fixed(p - 1, 6, n)}\t"
                  f"{B.fixed(H._delta_num(p, n), 6, den)}\t{tail}"
                  for p in primes if n < p - 1 <= cap]
    return lines


def count_exact_calls(monkeypatch):
    """The (p, n) of every call of `harness._delta_num` from now on."""
    real, calls = H._delta_num, []

    def counting(p, n):
        calls.append((p, n))
        return real(p, n)

    monkeypatch.setattr(H, "_delta_num", counting)
    return calls


def test_figure1_filter_equals_exact_route_on_full_grid(monkeypatch):
    want = exact_figure1_lines(3, 30)
    calls = count_exact_calls(monkeypatch)
    assert "".join(H.figure1_tsv_lines(3, 30)).splitlines() == want
    assert 0 < len(calls) < len(want) // 500  # the filter decides nearly every cell


def figure1_floats(n, ps):
    """(x, M) per p of one degree block, in the float operations of
    `figure1_tsv_lines`: x = 10^6*fl(delta) and M = h + (3c^2 + (103/19)c + 13/3)/2."""
    sqrt, r2, c1, c2, third = math.sqrt, math.sqrt(2), 103 / 19, 13 / 3, 1 / 3
    g2, n2 = 2.0 * (n - 1) ** 2, 2.0 * n * n
    for p in ps:
        h = (p + 1 + g2 * sqrt(p)) / n2
        c = (r2 * ((p - 1) / n)) ** third
        t1, t2 = 3 * c * c, c1 * c
        yield (h - (t1 - t2 + c2) / 2) * 1e6, h + (t1 + t2 + c2) / 2


def test_figure1_exact_route_is_the_per_line_bound_set(monkeypatch):
    """The cells sent to `_delta_num` are those that the per-line bound
    |x - round(x)| + 10^6*2^-40*M(p) < 1/2 alone leaves undecided."""
    eps6 = 1e6 * 2.0**-40
    undecided = [(p, n) for n, _, ps in H._figure1_degrees(3, 30)
                 for p, (x, m) in zip(ps, figure1_floats(n, ps))
                 if not abs(x - round(x)) + m * eps6 < 0.5]
    calls = count_exact_calls(monkeypatch)
    "".join(H.figure1_tsv_lines(3, 30))
    assert calls == undecided and len(calls) == 180


def test_figure1_m_is_nondecreasing_in_every_degree_block():
    # the block bound M_n = M(largest p) of `figure1_tsv_lines` rests on it
    for n, _, ps in H._figure1_degrees(3, 62):
        ms = [m for _, m in figure1_floats(n, ps)]
        assert all(a <= b for a, b in zip(ms, ms[1:])), n


def divmod_delta(units):
    """10^6*delta as six decimals by integer division, the exact formatting."""
    whole, frac = divmod(abs(units), 10**6)
    return f"{'-' if units < 0 else ''}{whole}.{frac:06d}"


def test_decided_delta_prints_straight_from_its_units():
    # every |units| <= 2*10^6 (|delta| <= 2), in chunks, then samples to 2^52 - 1
    for lo in range(-2 * 10**6, 2 * 10**6 + 1, 10**5):
        us = range(lo, min(lo + 10**5, 2 * 10**6 + 1))
        assert [f"{u / 1e6:.6f}" for u in us] == list(map(divmod_delta, us))
    rng = random.Random(30)
    top = 2**52 - 1
    for u in [0, top, -top, *(rng.randint(-top, top) for _ in range(50_000)),
              *(rng.randint(1 - 2**k, 2**k - 1) for k in range(20, 53) for _ in range(500))]:
        assert f"{u / 1e6:.6f}" == divmod_delta(u), u


def test_k_column_keeps_the_carry():
    # r/n rounds to 1.000000 once n >= 2*10^6 (0.9999995 rounds half-even up)
    assert H._k_digits(2 * 10**6 - 1, 2 * 10**6) == (1, ".000000")
    assert H._k_digits(3 * 10**6 - 1, 3 * 10**6) == (1, ".000000")
    assert H._k_digits(1999998, 1999999) == (0, ".999999")
    assert H._k_digits(0, 7) == (0, ".000000") and H._k_digits(5, 7) == (0, ".714286")
    for n, r in [(2 * 10**6, 2 * 10**6 - 1), (3 * 10**6, 3 * 10**6 - 1), (7, 3), (62, 61)]:
        carry, frac = H._k_digits(r, n)
        for q in (0, 1, 41, 10**9):
            assert f"{q + carry}{frac}" == B.fixed(q * n + r, 6, n)


# cells whose 10^6*delta lies within 10^6*epsilon of a half-integer, from the
# fallbacks of n = 3..30, with their delta as printed by the exact route
@pytest.mark.parametrize("p,n,delta", [
    (7069, 13, "-10.671275"), (7603, 13, "-12.088239"), (2903, 16, "7.526868")])
def test_figure1_falls_back_near_a_half_integer(monkeypatch, p, n, delta):
    units = Fraction(H._delta_num(p, n) * 10**6, 4 * n * n * B._W_DEN)
    assert abs(units - math.floor(units) - Fraction(1, 2)) < Fraction(1, 2000)
    calls = count_exact_calls(monkeypatch)
    lines = "".join(H.figure1_tsv_lines(n, n)).splitlines()
    assert (p, n) in calls
    assert [line.split("\t")[3] for line in lines if line.split("\t")[1] == str(p)] == [delta]


def test_float_cube_root_within_the_assumed_libm_error():
    # figure1's error bound assumes t ** (1/3) within 16 ulps of the cube root
    rng = random.Random(7)
    ts = [math.sqrt(2) * ((p - 1) / n) for n, _, ps in H._figure1_degrees(3, 62)
          for p in ps[::997]] + [rng.uniform(1.0, 2.0**17) for _ in range(2000)]
    for t in ts:
        c, exact = Fraction(t ** (1 / 3)), Fraction(t)
        root = floor_kth_root((exact.numerator << 240) // exact.denominator, 3)
        assert abs(c - Fraction(2 * root + 1, 2 << 80)) <= 16 * Fraction(math.ulp(float(c)))


# -- vtable ------------------------------------------------------------------------


def test_vtable_values():
    rows = {r[0]: r for r in H.vtable_rows(2, 60)}
    k, v, vt, w, gi, np_v, ref = rows["25"]
    assert v == "18" and vt == "18" and gi == "26/3" and ref == "-"
    k, v, vt, w, gi, np_v, ref = rows["44"]
    assert gi == "15" and np_v == "14" and ref == "-"
    k, v, vt, w, gi, np_v, ref = rows["26"]
    assert vt == "130/7" and ref == "9"
    lines = list(H.vtable_csv_lines(2, 30))
    assert lines[0] == "k,V,Vtilde,W,giulietti,np_bound,refinement"
    assert lines[1:] == [",".join(row) for row in H.vtable_rows(2, 30)]


def test_vtable_fields_equal_fraction_rows():
    # the fields formatted from the integer kernels against the Fraction rows
    # that preceded them, formatted by ratio and fixed on the Fractions
    want = [(str(k), B.ratio(v), B.ratio(vt), B.fixed(w, 12), B.ratio(gi), str(np_v),
             "-" if ref is None else str(ref))
            for (k, v, vt, w, gi, np_v, ref) in vtable_rows_fraction(2, 3000)]
    assert list(H.vtable_rows(2, 3000)) == want


def test_vtable_builds_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("the k-table built a Fraction")
    monkeypatch.setattr(B, "Fraction", refuse)
    monkeypatch.setattr(H, "Fraction", refuse)
    lines = list(H.vtable_csv_lines(2, 300))
    assert len(lines) == 300 and lines[-1].startswith("300,")


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


def prop41_sweep_per_point(p_max):
    """Reference for `prop41_sweep`: every point (a, b) decided on its own,
    from the chord raster and the per-curve class pass; the ChordSweep
    fields by name."""
    checked = holds = 0
    violations, diag_viol, decomp_bad, refined_bad = [], [], [], []
    for p in H.primes_up_to(p_max):
        ctx = make_field(p)
        for n in H.admissible_degrees(p):
            k = (p - 1) // n
            if k < 3:
                continue
            grid = chord_count_grid(build_polygon(ctx, k))
            for a in range(1, p):
                for b in range(1, p):
                    if a * b % p == 1:
                        continue
                    checked += 1
                    cell = curve_cell(ctx, n, a, b)
                    lhs = 2 * n * n * grid[a][b]
                    restricted, d = cell.restricted, cell.tangency
                    if lhs == restricted:
                        holds += 1
                    else:
                        rec = (p, n, a, b, lhs, restricted, d)
                        violations.append(rec)
                        if a == b:
                            diag_viol.append(rec)
                    if restricted != lhs + (n * n - n) * d:
                        decomp_bad.append((p, n, a, b))
                    if lhs != cell.refined:
                        refined_bad.append((p, n, a, b))
    return {"points_checked": checked, "holds": holds, "violations": violations,
            "diagonal_violations": diag_viol, "decomposition_failures": decomp_bad,
            "refined_failures": refined_bad}


def test_prop41_sweep_equals_per_point_reference_to_61():
    sweep = H.prop41_sweep(61)
    ref = prop41_sweep_per_point(61)
    assert diagonal_violations(sweep) == ref.pop("diagonal_violations")
    for name, value in ref.items():
        assert getattr(sweep, name) == value, name
    assert sweep.violation_count == len(ref["violations"])
    assert sweep.first_violation == ref["violations"][0]
    assert sweep.points_checked == 78_156 and len(sweep.violations) == 15_891
    # the records are expanded on demand, from the failing cells alone
    fresh = H.prop41_sweep(61)
    assert fresh.first_violation == ref["violations"][0]
    assert "violations" not in vars(fresh)


def test_prop41_sweep_decides_cells_by_the_documented_formulas(monkeypatch):
    """On random D cells for the tangency pass and random hist rows for the
    orbit pass, which no curve has (D keeps off c = 1/r, as every real D
    does, and sometimes holds c = 0), every point (a, b) with D != 0 at its
    orbit cell c = b*s, c != 0, a = r_i*s, and no other, is a violation,
    with lhs = n^2*(hist - D) and restricted = n^2*hist - n*D; the other
    two checks hold by proof and list nothing."""
    real_orbits, drawn = H.orbit_counts, []  # drawn: (p, n, D rows) in sweep order

    def orbit_counts(ctx, n):  # the same random rows at every call of one (p, n)
        orbits, p, rng = real_orbits(ctx, n), ctx.p, random.Random(ctx.p * 100 + n)
        return orbits._replace(rows=[[rng.randrange(4) for _ in range(p)] for _ in orbits.reps])

    def tangency(p, n):
        rng = random.Random(p * 100 + n + 50)
        rows = [{c: rng.randrange(1, 3) for c in rng.sample(range(p), n) if c * r % p != 1}
                for r in real_orbits(make_field(p), n).reps]
        drawn.append((p, n, [dict(D) for D in rows]))
        return rows

    monkeypatch.setattr(H, "orbit_counts", orbit_counts)
    monkeypatch.setattr(H, "_tangency", tangency)
    sweep = H.prop41_sweep(23)
    checked, violations, zero_cells = 0, [], 0
    for p, n, tang in drawn:
        orbits = orbit_counts(make_field(p), n)
        zero_cells += sum(0 in D for D in tang)
        for a in range(1, p):
            e, i = divmod(orbits.log[a], n)
            s = orbits.mu[e]
            for b in range(1, p):
                if a * b % p == 1:
                    continue
                checked += 1
                c = b * s % p
                h, d = orbits.rows[i][c], tang[i].get(c, 0)
                if d and c:
                    violations.append((p, n, a, b, n * n * (h - d), n * n * h - n * d, d))
    assert (sweep.points_checked, sweep.holds) == (checked, checked - len(violations))
    assert sweep.violations == violations and sweep.violation_count == len(violations)
    assert sweep.first_violation == violations[0]
    assert sweep.decomposition_failures == sweep.refined_failures == []
    assert zero_cells


def test_prop41_sweep_reads_orbit_rows_only_for_the_records(monkeypatch):
    # the counts and verdicts come from the tangency pass alone; the first
    # record reads the orbit rows of its own block, and the full list those
    # of every block, each with a failing cell (k >= 3 puts some u with
    # r*u outside {1, 2}, so c = u*(2 - r*u) is neither 0 nor 1/r, in every row)
    calls, real_orbits = [], H.orbit_counts

    def orbit_counts(ctx, n):
        calls.append((ctx.p, n))
        return real_orbits(ctx, n)

    monkeypatch.setattr(H, "orbit_counts", orbit_counts)
    sweep = H.prop41_sweep(61)
    assert calls == []
    assert sweep.first_violation == (7, 2, 1, 6, 0, 2, 1) and calls == [(7, 2)]
    calls.clear()
    assert len(sweep.violations) == 15_891
    assert calls == [(p, n) for p, n, cells in sweep.violating if all(cells)]
    assert len(calls) == len(sweep.violating) == 49
    calls.clear()
    assert not H.verify_prop41_suite(61)[0].ok and calls == [(7, 2)]


def test_verify_suite_dispatch():
    with pytest.raises(ValueError):
        H.verify_suite("nope")
