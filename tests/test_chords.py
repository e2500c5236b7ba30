from itertools import combinations

import pytest

from gfcurves.chords import (
    build_polygon,
    chord_set,
    chords_through,
    restricted_count,
    verify_prop41,
)
from gfcurves.curve import make_curve
from gfcurves.errors import DegeneratePolygon, IncompatibleOrder, VertexQuery
from gfcurves.ffield import make_field
from gfcurves.harness import primes_up_to


def proper_divisors_with_k3(p):
    return [n for n in range(2, p - 1) if (p - 1) % n == 0 and (p - 1) // n >= 3]


def chords_through_pairs(poly, point):
    """Oracle: the chords through P by testing P against all C(k, 2) vertex
    pairs."""
    p = poly.p
    x, y = point[0] % p, point[1] % p
    return sum(1 for (x1, y1), (x2, y2) in combinations(poly.vertices, 2)
               if ((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)) % p == 0)


def chord_count_grid(poly):
    """Oracle: cnt[x][y] = number of chords through (x, y), by rasterizing
    each of the C(k,2) chords across its p points.  Vertices count their k-1
    incident chords; nondegeneracy rules out anything more."""
    p = poly.p
    cnt = [[0] * p for _ in range(p)]
    for (x1, y1), (x2, y2) in combinations(poly.vertices, 2):
        dx = (x2 - x1) % p
        if dx == 0:
            col = cnt[x1]
            for y in range(p):
                col[y] += 1
        else:
            slope = (y2 - y1) * pow(dx, p - 2, p) % p
            for x in range(p):
                cnt[x][(y1 + slope * (x - x1)) % p] += 1
    return cnt


def admissible_polygons(p_max):
    """(p, k) with n = (p-1)/k >= 2 and k >= 3, for every prime p <= p_max."""
    return [(p, (p - 1) // n) for p in primes_up_to(p_max) for n in proper_divisors_with_k3(p)]


def tangency_count(p, n, a, b):
    """D by a walk over mu_k, the k-th roots of unity: the t with
    a*t^2 - 2t + b = 0, i.e. the hyperbola tangents at the polygon vertices
    (t, 1/t) that pass through the swap point (b, a)."""
    k = (p - 1) // n
    return sum(1 for t in range(1, p)
               if pow(t, k, p) == 1 and (a * t * t - 2 * t + b) % p == 0)


# -- polygon construction ---------------------------------------------------------


def test_build_polygon_examples():
    f13 = make_field(13)
    poly = build_polygon(f13, 4)
    assert poly.vertices == ((1, 1), (5, 8), (12, 12), (8, 5))
    f7 = make_field(7)
    poly = build_polygon(f7, 3)
    assert poly.gen == 2
    assert poly.vertices == ((1, 1), (2, 4), (4, 2))


def test_build_polygon_rejects():
    f13 = make_field(13)
    with pytest.raises(IncompatibleOrder):
        build_polygon(f13, 5)
    with pytest.raises(DegeneratePolygon):
        build_polygon(f13, 2)


def test_vertices_lie_on_hyperbola_and_are_nondegenerate():
    for p, k in [(13, 4), (13, 6), (31, 6), (199, 9)]:
        poly = build_polygon(make_field(p), k)
        assert len(set(poly.vertices)) == k
        for x, y in poly.vertices:
            assert x * y % p == 1


def test_no_three_vertices_collinear():
    # build_polygon does not check this: a line meets XY = 1 in at most two
    # points.  Brute force over every vertex triple of every admissible k-gon.
    for p in [p for p in range(7, 102) if all(p % d for d in range(2, p))]:
        ctx = make_field(p)
        for k in range(3, p):
            if (p - 1) % k:
                continue
            verts = build_polygon(ctx, k).vertices
            for (x1, y1), (x2, y2), (x3, y3) in combinations(verts, 3):
                assert ((x2 - x1) * (y3 - y1) - (y2 - y1) * (x3 - x1)) % p, (p, k)


def test_chord_set_size_and_incidence():
    for p, k in [(13, 4), (31, 6), (61, 12)]:
        poly = build_polygon(make_field(p), k)
        cs = chord_set(poly)
        assert len(cs.chords) == k * (k - 1) // 2
        for (u, v, w) in cs.chords:
            on = sum(1 for (x, y) in poly.vertices if (u * x + v * y + w) % p == 0)
            assert on == 2


def test_chord_set_is_generator_independent():
    # every element of order k yields the same vertex set, hence chord set
    for p, k in [(13, 4), (31, 6), (29, 7)]:
        ctx = make_field(p)
        base = chord_set(build_polygon(ctx, k)).chords
        for h in range(2, p):
            o, v = 1, h
            while v != 1:
                v = v * h % p
                o += 1
            if o != k:
                continue
            verts = [(pow(h, i, p), pow(h, -i, p)) for i in range(k)]
            lines = {tuple(c) for c in
                     (  # canonical triples, same normalization as the library
                         _canon_line(p, a, b) for a, b in combinations(verts, 2))}
            assert lines == set(base)


def _canon_line(p, a, b):
    (x1, y1), (x2, y2) = a, b
    u, v, w = (y1 - y2) % p, (x2 - x1) % p, (x1 * y2 - x2 * y1) % p
    lead = u if u else (v if v else w)
    s = pow(lead, p - 2, p)
    return (u * s % p, v * s % p, w * s % p)


# -- chord counting ------------------------------------------------------------------


def test_chords_through_examples():
    poly = build_polygon(make_field(13), 4)
    assert chords_through(poly, (2, 3)) == 0
    assert chords_through(poly, (6, 2)) == 1  # the chord through (1,1), (8,5)
    with pytest.raises(VertexQuery):
        chords_through(poly, (5, 8))


def test_chords_through_on_hyperbola_bounded():
    poly = build_polygon(make_field(31), 6)
    for x in range(1, 31):
        y = pow(x, 29, 31)
        if (x, y) in poly.vertices:
            continue
        assert chords_through(poly, (x, y)) <= 5  # k - 1 is a safe cap


def test_chord_count_grid_matches_pointwise_and_conserves():
    for p, k in [(13, 4), (13, 6), (31, 6), *admissible_polygons(31)]:
        poly = build_polygon(make_field(p), k)
        grid = chord_count_grid(poly)
        vset = set(poly.vertices)
        total_nonvertex = 0
        for x in range(p):
            for y in range(p):
                if (x, y) in vset:
                    assert grid[x][y] == k - 1  # endpoint chords only
                else:
                    assert grid[x][y] == chords_through_pairs(poly, (x, y))
                    total_nonvertex += grid[x][y]
        # each chord has p points: 2 vertices and p - 2 others
        chords = k * (k - 1) // 2
        assert total_nonvertex == chords * (p - 2)


def test_chords_through_equals_raster_to_61():
    """The O(k) count `chords_through` at every non-vertex point of every
    polygon with n >= 2, k >= 3 and p <= 61, against the raster."""
    points = 0
    for p, k in admissible_polygons(61):
        poly = build_polygon(make_field(p), k)
        grid = chord_count_grid(poly)
        vset = set(poly.vertices)
        for x in range(p):
            for y in range(p):
                if (x, y) not in vset:
                    assert chords_through(poly, (x, y)) == grid[x][y], (p, k, x, y)
                    points += 1
    assert points == 83_189


# -- restricted counts ----------------------------------------------------------------


def test_restricted_count_examples():
    f13 = make_field(13)
    # oracle: exhaustive 169-pair loop
    def brute(a, b, n=3, p=13):
        return sum(
            1
            for x in range(1, p)
            for y in range(1, p)
            if x != y and (a * pow(x, n, p) * pow(y, n, p)
                           - pow(x, n, p) - pow(y, n, p) + b) % p == 0
        )

    assert brute(6, 2) == 18
    assert restricted_count(make_curve(f13, 3, 6, 2)) == 18
    assert brute(2, 3) == 0
    assert restricted_count(make_curve(f13, 3, 2, 3)) == 0


# -- the identity and its exact correction ---------------------------------------------


def test_verify_identity_worked_examples():
    rep = verify_prop41(13, 3, (6, 2))
    assert rep.n_p == 1 and rep.restricted == 18 and rep.holds
    rep = verify_prop41(13, 3, (2, 3))
    assert rep.n_p == 0 and rep.restricted == 0 and rep.holds
    with pytest.raises(VertexQuery):
        verify_prop41(13, 3, (5, 8))


def test_identity_fails_exactly_on_vertex_tangents():
    """The classical 2n^2 relation breaks iff P lies on a hyperbola tangent
    at a k-th root of unity.  The first counterexample of the p <= 199
    sweep, P = (1, 6) over F_7 with n = 2, lies on one tangent (mu_3 =
    {1, 2, 4}, and t = 4 is the only root of t^2 - 2t + 6); P = (3, 6) lies
    on two.  Both are kept alongside the exact decomposition that explains
    every failure, and the refined count is checked against a double loop
    over the curve."""
    rep = verify_prop41(7, 2, (1, 6))
    assert rep.n_p == 0 and rep.restricted == 2
    assert not rep.holds
    assert rep.tangency == 1 and rep.decomposition_exact

    rep = verify_prop41(7, 2, (3, 6))
    assert rep.n_p == 0 and rep.restricted == 4
    assert not rep.holds
    assert rep.tangency == 2 and rep.decomposition_exact
    assert rep.refined_holds  # excluding x^n = y^n restores the identity

    for p in (7, 13, 19):
        for n in proper_divisors_with_k3(p):
            powers = [pow(x, n, p) for x in range(p)]
            for a in range(1, p):
                for b in range(1, p):
                    if a * b % p == 1:
                        continue
                    r = verify_prop41(p, n, (a, b))
                    assert r.decomposition_exact
                    assert r.refined_holds
                    assert r.holds == (r.tangency == 0)
                    # the refined identity against an exhaustive count of the
                    # off-axes points with x^n != y^n
                    off_power_diag = sum(
                        1
                        for x in range(1, p)
                        for y in range(1, p)
                        if powers[x] != powers[y]
                        and (a * powers[x] * powers[y] - powers[x]
                             - powers[y] + b) % p == 0
                    )
                    assert r.lhs == off_power_diag


def test_tangency_count_is_symmetric():
    # D of the report against the walk over mu_k, and the walk's symmetry
    for p, n in [(13, 3), (13, 2), (31, 5)]:
        for a in range(1, p):
            for b in range(1, p):
                d = tangency_count(p, n, a, b)
                assert d == tangency_count(p, n, b, a)
                if a * b % p != 1:  # off XY = 1, so P is not a vertex
                    assert verify_prop41(p, n, (a, b)).tangency == d


def test_divisibility_holds_when_no_tangency():
    # 2n^2 | N_p is the corollary of the identity; exact when D = 0, and in
    # general 2n^2 divides N_p - (n^2 - n) * D
    for p, n in [(13, 3), (19, 3), (31, 5)]:
        ctx = make_field(p)
        for a in range(1, p):
            for b in range(1, p):
                if a * b % p == 1:
                    continue
                d = tangency_count(p, n, a, b)
                restricted = restricted_count(make_curve(ctx, n, a, b))
                assert (restricted - (n * n - n) * d) % (2 * n * n) == 0
