"""The torus-orbit pass against the independent per-curve routes.

`orbit_counts` counts one curve (r, c) per coset representative r of
mu_k = (F_p^*)^n and per c, from pair histograms, and every (a, b) reads the
columns hist and D of its row at c = b*s with a = r*s.  These tests pin the
counts the documented formulas give from those columns to `count_points_fast`
and to the per-curve class pass `curve_cell` at every (a, b) for p <= 61, pin
`curve_cell` to the inverse-table pass that it replaced, on both sides of
its cut in n, pin the lane sums of `orbit_counts` to its pair loop, and
check the invariance it rests on with the brute double loop `count_points`
and the chord count `chords_through`.
"""

import tracemalloc

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gfcurves.curve as C
from gfcurves.chords import build_polygon, chords_through
from gfcurves.curve import (CurveCell, count_points, count_points_fast, curve_cell, make_curve,
                            orbit_counts)
from gfcurves.ffield import make_field, subgroup_generator
from gfcurves.harness import admissible_degrees, primes_up_to
from test_ffield import inverse_recurrence


def test_orbit_rows_equal_per_curve_counts_to_61():
    curves = 0
    for p in primes_up_to(61):
        ctx = make_field(p)
        for n in admissible_degrees(p):
            orbits = orbit_counts(ctx, n)
            rc = [0] * p  # rc[c] = #{y : y^n = c}, by enumeration
            for y in range(p):
                rc[pow(y, n, p)] += 1
            mu_k = {pow(x, n, p) for x in range(1, p)}
            assert all(len(row.hist) == len(row.D) == p for row in orbits.rows)
            for a in range(1, p):
                i, s = orbits.coset[a]
                assert s in mu_k
                row = orbits.rows[i]
                for b in range(1, p):
                    if a * b % p == 1:
                        continue
                    c = b * s % p
                    h, tang = row.hist[c], row.D[c]
                    cell = CurveCell(n * n * h + 2 * rc[c], n * n * h - n * tang, tang,
                                     n * n * (h - tang))
                    rep = count_points_fast(make_curve(ctx, n, a, b))
                    d, rem = divmod(rep.off_axes - rep.off_axes_off_diag, n)
                    assert rem == 0
                    assert cell.affine_total == rep.affine_total
                    assert cell.restricted == rep.off_axes_off_diag
                    assert cell.tangency == d
                    # each tangency at a vertex adds n^2 off-axes points
                    # with x^n = y^n (n of them on X = Y)
                    assert cell.refined == rep.off_axes - n * n * d
                    assert curve_cell(ctx, n, a, b) == cell
                    curves += 1
    assert curves == sum((p - 1) * (p - 2) * len(admissible_degrees(p))
                         for p in primes_up_to(61))


def lane_and_pair_rows(monkeypatch, p, n):
    """orbit_counts over F_p with its lanes at every k, then with its pair
    loop at every k, whichever side of the cut k is on."""
    monkeypatch.setattr(C, "_LANE_MIN_K", 1)
    lanes = orbit_counts(make_field(p), n)
    monkeypatch.setattr(C, "_LANE_MIN_K", p)
    return lanes, orbit_counts(make_field(p), n)


def test_lane_rows_equal_pair_loop_to_400(monkeypatch):
    for p in primes_up_to(400):
        for n in admissible_degrees(p):
            lanes, pairs = lane_and_pair_rows(monkeypatch, p, n)
            assert lanes == pairs, (p, n)


def test_wide_lane_rows_equal_pair_loop(monkeypatch):
    # k = 260 and 515 take 2-byte lanes, and some count there exceeds what
    # one byte holds
    for p in (521, 1031):
        lanes, pairs = lane_and_pair_rows(monkeypatch, p, 2)
        assert lanes == pairs, p
        assert max(max(row.hist) for row in pairs.rows) > 255


def test_lane_rows_peak_memory_at_4099():
    # the k shifted columns are summed one at a time: held as a list they
    # peak at 26 MB here, against 0.74 MB with the rows
    ctx = make_field(4099)
    subgroup_generator(ctx, ctx.q - 1)  # cached with the field
    tracemalloc.start()
    try:
        orbits = orbit_counts(ctx, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(orbits.rows) == 2 and peak < 2 * 2**20


def inverse_table_cells(p, n):
    """Oracle: the per-curve class pass over F_p as it ran before the Zech
    logarithms, from an inverse table and enumerated root counts: each u in
    mu_k with a*u != 1 has c_u = (u - b) * inv[a*u - 1]."""
    inv = inverse_recurrence(p)
    rc = [0] * p
    for x in range(p):
        rc[pow(x, n, p)] += 1
    mu_k = [v for v in range(1, p) if rc[v]]

    def cell(a, b):
        total = diag = refined = 0
        for u in mu_k:
            if d := (a * u - 1) % p:
                c = (u - b) * inv[d] % p
                total += rc[c]
                if c == u:
                    diag += 1
                elif c:
                    refined += rc[c]
        affine = rc[b] + n * total
        return CurveCell(affine, affine - 2 * rc[b] - n * diag, diag, n * refined)

    return cell


def test_curve_cell_equals_inverse_table_pass_to_61():
    for p in primes_up_to(61):
        ctx = make_field(p)
        for n in admissible_degrees(p):
            oracle = inverse_table_cells(p, n)
            for a in range(1, p):
                for b in range(1, p):
                    if a * b % p != 1:
                        assert curve_cell(ctx, n, a, b) == oracle(a, b)


def test_curve_cell_equals_inverse_table_pass_on_both_sides_of_the_cut():
    # every admissible n to 61 is at most 30, on the big-int AND side of the
    # cut at n = 32; these reach the side that reads ind[ls - l] with k >= 2,
    # and p = 97 pins both sides of the cut at one field
    for p, n in (67, 33), (73, 36), (97, 32), (97, 48):
        assert (p - 1) // n >= 2
        ctx, oracle = make_field(p), inverse_table_cells(p, n)
        for a in range(1, p):
            for b in range(1, p):
                if a * b % p != 1:
                    assert curve_cell(ctx, n, a, b) == oracle(a, b)


@st.composite
def torus_cases(draw, k_min=1):
    """(p, n, a, b, s) with k = (p-1)/n >= k_min and s in mu_k."""
    p = draw(st.sampled_from([7, 11, 13, 19, 31]))
    n = draw(st.sampled_from([n for n in admissible_degrees(p) if (p - 1) // n >= k_min]))
    a = draw(st.integers(1, p - 1))
    b = draw(st.integers(1, p - 1))
    s = pow(draw(st.integers(1, p - 1)), n, p)  # the nonzero n-th powers are mu_k
    return p, n, a, b, s


@settings(max_examples=60, deadline=None, database=None)
@given(torus_cases())
def test_count_points_invariant_on_torus_orbits(case):
    p, n, a, b, s = case
    assume(a * b % p != 1)
    ctx = make_field(p)
    moved = (s * a % p, b * pow(s, p - 2, p) % p)
    assert count_points(make_curve(ctx, n, a, b)) == count_points(make_curve(ctx, n, *moved))


@settings(max_examples=60, deadline=None, database=None)
@given(torus_cases(k_min=3))
def test_chords_through_invariant_on_torus_orbits(case):
    p, n, a, b, s = case
    poly = build_polygon(make_field(p), (p - 1) // n)
    assume((a, b) not in poly.vertices)
    moved = (s * a % p, b * pow(s, p - 2, p) % p)
    assert moved not in poly.vertices
    assert chords_through(poly, (a, b)) == chords_through(poly, moved)
