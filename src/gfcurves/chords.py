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
that excludes all of x^n = y^n and does satisfy the 2*n^2 identity.  The
refined count is summed directly over the n-th power classes, not derived
from D, so the two checks are independent.

`chord_count_grid` rasterizes every chord at once for the bulk sweep
(`harness.prop41_sweep`), which reads the curve counts on the torus orbits of
P: (x, y) -> (t*x, t*y) maps the curve (a, b) onto (t^n*a, b/t^n), so every
count depends only on the coset of a modulo mu_k = (F_p^*)^n and on a*b
(`curve.orbit_counts`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .curve import CurveParams, check_table_size, count_points_fast, curve_cell, make_curve
from .errors import DegeneratePolygon, IncompatibleOrder, VertexQuery
from .ffield import FieldCtx, make_field, subgroup_generator


@dataclass(frozen=True)
class Polygon:
    ctx: FieldCtx
    k: int
    gen: int
    vertices: tuple  # k points (g^i, g^-i) in cyclic order

    @property
    def p(self) -> int:
        return self.ctx.p


@dataclass(frozen=True)
class ChordSet:
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
    ginv = pow(g, p - 2, p)
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
    scale = pow(lead, p - 2, p)
    return (u * scale % p, v * scale % p, w * scale % p)


def chord_set(poly: Polygon) -> ChordSet:
    p = poly.p
    lines = tuple(_line_through(p, a, b) for a, b in combinations(poly.vertices, 2))
    assert len(set(lines)) == len(lines)  # nondegeneracy makes chords distinct
    return ChordSet(chords=lines)


def chords_through(poly: Polygon, point: tuple) -> int:
    """Exhaustive incidence count of a non-vertex point against all chords."""
    if point in poly.vertices:
        raise VertexQuery(f"{point} is a vertex")
    p = poly.p
    x, y = point[0] % p, point[1] % p
    count = 0
    for (x1, y1), (x2, y2) in combinations(poly.vertices, 2):
        if ((x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)) % p == 0:
            count += 1
    return count


def restricted_count(curve: CurveParams) -> int:
    """N_p: affine rational points off the axes and off the line X = Y."""
    if curve.ctx.m != 1:
        raise ValueError("restricted counts are defined over prime fields")
    return count_points_fast(curve).off_axes_off_diag


@dataclass(frozen=True)
class IdentityReport:
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
    check_table_size(ctx)
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


# ---------------------------------------------------------------------------
# bulk sweep machinery: every non-vertex P of A^2(F_p) at once


def chord_count_grid(poly: Polygon) -> list[list[int]]:
    """cnt[x][y] = number of chords through (x, y), by rasterizing each of
    the C(k,2) chords across its p points.  Vertices count their k-1
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

