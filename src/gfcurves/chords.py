"""Affinely regular k-gons inscribed in XY = 1 over F_p and their chords.

The canonical polygon has vertices (g^i, g^-i) for the canonical generator g
of the order-k subgroup, so its vertex set is the graph of inversion on the
k-th roots of unity.  Chords are stored as canonicalized projective line
triples, which makes set comparisons exact.

`verify_prop41` checks the classical relation 2*n^2*n_P = N_p between the
chord count through P = (a, b) and the restricted point count of the curve
with parameters (a, b).  The relation fails precisely when P lies on a
tangent line of the hyperbola at a k-th root-of-unity point: each such
tangency contributes n^2 - n extra curve points with x^n = y^n but x != y.
The exact decomposition

    N_p = 2*n^2*n_P + (n^2 - n)*D,   D = #{t in mu_k : a t^2 - 2t + b = 0},

is what the verification report exposes, together with the refined count
that excludes all of x^n = y^n and does satisfy the 2*n^2 identity.  Both
come from one `curve_cell`, with refined = n^2*(hits - D), so the refined
count is derived from D.  The independent counts are in the tests: the
exhaustive x^n != y^n loop of `test_identity_fails_exactly_on_vertex_tangents`
(tests/test_chords.py) and the brute CurveCells of tests/test_orbits.py and
tests/test_curve.py.

The chord through the vertices (t1, 1/t1) and (t2, 1/t2) is the line
x + t1*t2*y = t1 + t2, so `chords_through` counts n_P in O(k), from the
second meet of each line PV with XY = 1.  The bulk sweep
(`harness.prop41_sweep`) counts no chords: with u = 1/t1, v = 1/t2 the
chords and tangents through P are the vertex pairs that the orbit rows of
`curve.orbit_counts` bin, so its verdicts fall exactly on the support of
the tangent count D, and it reads the rows only for the records it prints
(the derivation is at `prop41_sweep`; tests/test_orbits.py pins it to the
polygon's chords and tangents).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .curve import CurveParams, check_table_size, count_points_fast, curve_cell, make_curve
from .errors import DegeneratePolygon, IncompatibleOrder, VertexQuery
from .ffield import FieldCtx, make_field, subgroup_generator


class Polygon(NamedTuple):
    ctx: FieldCtx
    k: int
    gen: int
    vertices: tuple  # k points (g^i, g^-i) in cyclic order

    @property
    def p(self) -> int:
        return self.ctx.p


class ChordSet(NamedTuple):
    chords: tuple  # C(k,2) canonicalized projective triples (u, v, w)


def build_polygon(ctx: FieldCtx, k: int) -> Polygon:
    """The canonical affinely regular k-gon on XY = 1.  No three vertices are
    collinear: a line ux + vy + w = 0 meets XY = 1 where u*x^2 + w*x + v = 0,
    so in at most two points (the test suite checks this exhaustively)."""
    if ctx.m != 1:
        raise ValueError("polygons are inscribed over prime fields")
    if k < 3:
        raise DegeneratePolygon(f"k = {k} < 3")
    if (ctx.p - 1) % k:
        raise IncompatibleOrder(f"{k} does not divide p-1 = {ctx.p - 1}")
    p = ctx.p
    g = subgroup_generator(ctx, k)
    ginv = pow(g, -1, p)
    verts = []
    x, y = 1, 1
    for _ in range(k):
        verts.append((x, y))
        x, y = x * g % p, y * ginv % p
    return Polygon(ctx=ctx, k=k, gen=g, vertices=tuple(verts))


def _line_through(p: int, a: tuple, b: tuple) -> tuple:
    """Canonical projective triple (u, v, w) of the line ux + vy + w = 0."""
    (x1, y1), (x2, y2) = a, b
    u = (y1 - y2) % p
    v = (x2 - x1) % p
    w = (x1 * y2 - x2 * y1) % p
    lead = u if u else (v if v else w)
    scale = pow(lead, -1, p)
    return (u * scale % p, v * scale % p, w * scale % p)


def chord_set(poly: Polygon) -> ChordSet:
    p = poly.p
    lines = tuple(_line_through(p, a, b) for a, b in combinations(poly.vertices, 2))
    assert len(set(lines)) == len(lines)  # nondegeneracy makes chords distinct
    return ChordSet(chords=lines)


def chords_through(poly: Polygon, point: tuple) -> int:
    """The chords through a non-vertex P = (a, b), each found from both ends:
    the line through P and the vertex t meets XY = 1 again at
    t' = (t - a)/(t*b - 1), and nowhere else when t*b = 1."""
    if point in poly.vertices:
        raise VertexQuery(f"{point} is a vertex")
    p = poly.p
    a, b = point[0] % p, point[1] % p
    mu = {t for t, _ in poly.vertices}
    ends = 0
    for t in mu:
        if d := (t * b - 1) % p:
            t2 = (t - a) * pow(d, -1, p) % p
            ends += t2 != t and t2 in mu
    return ends // 2


def restricted_count(curve: CurveParams) -> int:
    """N_p: affine rational points off the axes and off the line X = Y."""
    if curve.ctx.m != 1:
        raise ValueError("restricted counts are defined over prime fields")
    return count_points_fast(curve).off_axes_off_diag


class IdentityReport(NamedTuple):
    p: int
    n: int
    point: tuple
    n_p: int
    restricted: int            # N_p with only the x = y diagonal excluded
    lhs: int                   # 2 n^2 n_P
    holds: bool                # lhs == restricted
    diagonal: bool             # P lies on X = Y (reported distinctly)
    tangency: int              # D, the tangent-through-P count
    refined_restricted: int    # N_p excluding all x^n = y^n
    refined_holds: bool        # lhs == refined_restricted
    decomposition_exact: bool  # restricted == lhs + (n^2 - n) * D


def verify_prop41(p: int, n: int, point: tuple) -> IdentityReport:
    """Build the (p-1)/n-gon and the curve with (a, b) = P, and compare
    2*n^2*chords_through with the restricted count, reporting the exact
    tangency decomposition alongside."""
    ctx = make_field(p)
    check_table_size(ctx.q)
    a, b = point[0] % p, point[1] % p
    k = (p - 1) // n
    poly = build_polygon(ctx, k)
    if (a, b) in poly.vertices:
        raise VertexQuery(f"{(a, b)} is a vertex")
    make_curve(ctx, n, a, b)  # validates (a, b)
    n_p = chords_through(poly, (a, b))
    cell = curve_cell(ctx, n, a, b)
    restricted, d, refined = cell.restricted, cell.tangency, cell.refined
    lhs = 2 * n * n * n_p
    return IdentityReport(
        p=p,
        n=n,
        point=(a, b),
        n_p=n_p,
        restricted=restricted,
        lhs=lhs,
        holds=lhs == restricted,
        diagonal=a == b,
        tangency=d,
        refined_restricted=refined,
        refined_holds=lhs == refined,
        decomposition_exact=restricted == lhs + (n * n - n) * d,
    )

