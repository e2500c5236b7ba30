"""The torus-orbit pass against the independent per-curve routes.

`orbit_counts` counts one curve (r, c) per coset r*mu_k of mu_k =
(F_p^*)^n, r = g^i on row i < n for the generator g of the field index,
and per c, from pair histograms, and the prop41 sweep's tangency pass
`harness._tangency` counts D on the same rows; every (a, b) reads hist and
D of row i at c = b*s with a = r*s, s = mu[e], (e, i) = divmod(log a, n).
One test pins the rows and mu_k to the powers of g.  The others pin the
counts the documented formulas give from those columns to `count_points_fast`
and to the per-curve class pass `curve_cell` at every (a, b) for p <= 61, pin
`curve_cell` to the inverse-table pass that it replaced, on both sides of
its cut in n, pin the lane sums of `orbit_counts` to its pair loop, its
rows and the sweep's cells to the polygon's chords and tangents and the
tangency pass to the u loop it replaced to p <= 199, and check the
invariance it rests on with the brute double loop `count_points` and the
chord count `chords_through`.
"""

import tracemalloc
from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gfcurves.curve as C
from gfcurves.chords import build_polygon, chords_through
from gfcurves.curve import (CurveCell, count_points, count_points_fast, curve_cell, make_curve,
                            orbit_counts)
from gfcurves.ffield import make_field, subgroup_generator
from gfcurves.harness import _tangency, admissible_degrees, primes_up_to, prop41_sweep
from brute_oracles import tangency_rows
from test_ffield import inverse_recurrence


def test_orbit_rows_equal_per_curve_counts_to_61():
    curves = 0
    for p in primes_up_to(61):
        ctx = make_field(p)
        for n in admissible_degrees(p):
            orbits, tangency = orbit_counts(ctx, n), _tangency(p, n)
            rc = [0] * p  # rc[c] = #{y : y^n = c}, by enumeration
            for y in range(p):
                rc[pow(y, n, p)] += 1
            mu_k = {pow(x, n, p) for x in range(1, p)}
            assert all(len(hist) == p for hist in orbits.rows)
            assert len(tangency) == n and all(0 not in D.values() for D in tangency)
            for a in range(1, p):
                e, i = divmod(orbits.log[a], n)
                s = orbits.mu[e]
                assert s in mu_k
                for b in range(1, p):
                    if a * b % p == 1:
                        continue
                    c = b * s % p
                    h, tang = orbits.rows[i][c], tangency[i].get(c, 0)
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


def test_orbit_rows_count_chords_and_tangents_to_199():
    """The vertex-pair count that `harness.prop41_sweep` derives its verdicts
    from: on every orbit row r with k >= 3, hist[c] = 2*(chords through
    (r, c)) + (vertex tangents through (r, c)), and the sweep's failing cells
    are that tangent count D[c] at every c outside {0, 1/r}, its support
    never holding 0 or 1/r.  The lines are met with the column x = r from
    the polygon's vertices: the chord through (t1, y1) and (t2, y2) at
    y = (t1 + t2 - r)*y1*y2, the tangent x + t^2*y = 2t at y = (2t - r)*y^2."""
    rows, blocks = 0, {(p, n): cells for p, n, cells in prop41_sweep(199).violating}
    for p in primes_up_to(199):
        ctx = make_field(p)
        for n in admissible_degrees(p):
            if (p - 1) // n < 3:
                continue
            vertices = build_polygon(ctx, (p - 1) // n).vertices
            chords = [(x1 + x2, y1 * y2) for (x1, y1), (x2, y2) in combinations(vertices, 2)]
            orbits = orbit_counts(ctx, n)
            for r, hist, cells in zip(orbits.reps, orbits.rows, blocks.pop((p, n))):
                col, tan = [0] * p, [0] * p
                for s, q in chords:
                    col[(s - r) * q % p] += 1
                for t, y in vertices:
                    tan[(2 * t - r) * y * y % p] += 1
                skip = pow(r, -1, p)
                assert skip not in cells and 0 not in cells, (p, n, r)
                for c in range(1, p):
                    if c != skip:
                        assert hist[c] == 2 * col[c] + tan[c], (p, n, r, c)
                        assert cells.get(c, 0) == tan[c], (p, n, r, c)
                rows += 1
    assert rows == 2651 and not blocks


def test_tangency_pass_equals_the_row_loop_to_199():
    # D by the u loop over the representatives of `orbit_counts`, at every
    # admissible (p, n), and the sweep's failing cells as its support less 0
    blocks = {(p, n): cells for p, n, cells in prop41_sweep(199).violating}
    for p in primes_up_to(199):
        ctx = make_field(p)
        for n in admissible_degrees(p):
            ref = tangency_rows(ctx, n)
            assert _tangency(p, n) == ref, (p, n)
            if (p - 1) // n >= 3:
                cells = [{c: d for c, d in D.items() if c} for D in ref]
                assert blocks.pop((p, n)) == cells, (p, n)
    assert not blocks


def test_orbit_rows_are_the_classes_of_the_index_to_400():
    # row i is the coset g^i*mu_k and mu[e] = g^(n*e), g the generator of the
    # field index, so a = reps[i]*mu[e] at (e, i) = divmod(log a, n), every a
    for p in primes_up_to(400):
        ctx = make_field(p)
        g = subgroup_generator(ctx, p - 1)
        for n in admissible_degrees(p):
            orbits = orbit_counts(ctx, n)
            assert orbits.reps == [pow(g, i, p) for i in range(n)], (p, n)
            assert orbits.mu == [pow(g, n * e, p) for e in range((p - 1) // n)], (p, n)
            for a in range(1, p):
                e, i = divmod(orbits.log[a], n)
                assert a == orbits.reps[i] * orbits.mu[e] % p, (p, n, a)


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
        assert max(max(hist) for hist in pairs.rows) > 255


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
