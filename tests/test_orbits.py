"""The torus-orbit pass against the independent per-curve routes.

`orbit_counts` counts one curve (r, c) per coset representative r of
mu_k = (F_p^*)^n and per c, from pair histograms, and every (a, b) reads the
columns of its row at c = b*s with a = r*s.  These tests pin the columns to
`count_points_fast` and to the per-curve class pass `curve_cell` at every
(a, b) for p <= 61, and check the invariance it rests on with the brute double
loop `count_points` and the chord count `chords_through`.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gfcurves.chords import build_polygon, chords_through
from gfcurves.curve import (CurveCell, count_points, count_points_fast, curve_cell, make_curve,
                            orbit_counts)
from gfcurves.ffield import make_field
from gfcurves.harness import admissible_degrees, primes_up_to


def test_orbit_rows_equal_per_curve_counts_to_61():
    curves = 0
    for p in primes_up_to(61):
        ctx = make_field(p)
        for n in admissible_degrees(p):
            orbits = orbit_counts(ctx, n)
            mu_k = {pow(x, n, p) for x in range(1, p)}
            assert all(len(col) == p for row in orbits.rows for col in row)
            for a in range(1, p):
                i, s = orbits.coset[a]
                assert s in mu_k
                row = orbits.rows[i]
                for b in range(1, p):
                    if a * b % p == 1:
                        continue
                    cell = CurveCell(*(col[b * s % p] for col in row))
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
