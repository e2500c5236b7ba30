"""The plane curve g(X,Y) = a*X^n*Y^n - X^n - Y^n + b over F_q.

Validated parameters, exact point counts on the affine curve and on the
nonsingular model, the inventory of special points (inflections on the axes
and rational branches over the two singular points at infinity), and a
smoothness sweep over all affine rational points.

Two counting routes are provided.  `count_points` is the plain exhaustive
double loop over F_q x F_q.  `count_points_fast` collapses the loop over the
n-th power classes: writing u = x^n, the equation becomes
y^n = (u - b)/(a*u - 1), so each of the (q-1)/n nonzero classes contributes
n * #roots.  Both are exact; the test suite pins them equal.  Every
per-curve consumer (`count_points_fast`, the point enumeration behind
`smoothness_scan`) reads the one class walk `_classes`.  The bulk sweeps use
`orbit_counts`, which counts one curve per torus orbit of (a, b) from pair
histograms over mu_k and is pinned to `count_points_fast` in the tests.

The class tables of F_p are views of one index table per prime, built by a
single walk over the powers of the smallest primitive root: each degree n
reads its n-th powers, root counts, roots and inverses from it in O(k log k)
beyond one O(p) list.  Over F_{p^m} the tables are built by enumerating the
field.  No table is built for q above `MAX_TABLE_Q` (`FieldTooLarge`).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, asdict
from typing import NamedTuple

from .errors import (DegenerateParams, DegreeTooSmall, FieldTooLarge, IncompatibleOrder,
                     SingularAffinePoint)
from .ffield import FieldCtx, subgroup_generator


@dataclass(frozen=True)
class CurveParams:
    """Validated (field, n, a, b) with the derived genus and k = (q-1)/n."""

    ctx: FieldCtx
    n: int
    a: object
    b: object
    g: int
    k: int

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def q(self) -> int:
        return self.ctx.q


@dataclass(frozen=True)
class CountReport:
    """Exact point counts; model_total counts points of the nonsingular model."""

    affine_total: int
    off_axes: int
    off_axes_off_diag: int
    n1: int
    n2: int
    branches_at_infinity_rational: int
    model_total: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=False)


class SpecialPoint(NamedTuple):
    kind: str           # "inflection" | "infinite-branch"
    center: str         # "affine" | "P1" | "P2"
    point: tuple | None  # (x, y) for inflections, None at infinity
    tangent_axis: str   # "X" or "Y": the tangent line is axis = tangent_value
    tangent_value: object


def make_curve(ctx: FieldCtx, n: int, a, b) -> CurveParams:
    """Validate parameters and derive genus (n-1)^2 and k = (q-1)/n."""
    if n < 2:
        raise DegreeTooSmall(f"n = {n} < 2")
    if (ctx.q - 1) % n:
        raise IncompatibleOrder(f"n = {n} does not divide q-1 = {ctx.q - 1}")
    a = ctx.element(a) if isinstance(a, (int, list)) else a
    b = ctx.element(b) if isinstance(b, (int, list)) else b
    if ctx.is_zero(a) or ctx.is_zero(b) or ctx.mul(a, b) == ctx.one:
        raise DegenerateParams("need a != 0, b != 0 and a*b != 1")
    return CurveParams(ctx=ctx, n=n, a=a, b=b, g=(n - 1) ** 2, k=(ctx.q - 1) // n)


def equation_value(curve: CurveParams, x, y):
    """g(x, y) = a*x^n*y^n - x^n - y^n + b."""
    ctx, n = curve.ctx, curve.n
    xn, yn = ctx.pow(x, n), ctx.pow(y, n)
    v = ctx.mul(curve.a, ctx.mul(xn, yn))
    v = ctx.sub(v, xn)
    v = ctx.sub(v, yn)
    return ctx.add(v, curve.b)


# ---------------------------------------------------------------------------
# n-th power class tables, cached per (field, n)

MAX_TABLE_Q = 2**22  # the largest q whose O(q) tables are built


def check_table_size(ctx: FieldCtx) -> None:
    """Raise FieldTooLarge, before anything is allocated, when q is above
    MAX_TABLE_Q: the class tables of F_q take O(q) memory."""
    if ctx.q > MAX_TABLE_Q:
        raise FieldTooLarge(f"q = {ctx.q} is above the class-table limit {MAX_TABLE_Q}")


@functools.cache
def _index(ctx: FieldCtx) -> tuple[list, list, list]:
    """(exp, log, inv) of F_p from one walk over the powers of the smallest
    primitive root g: exp[i] = g^i for i < p-1, exp[log[x]] = x for x != 0,
    and inv[x] = 1/x = exp[-log[x]] with inv[0] = 0.  Cached per field."""
    p = ctx.p
    g = subgroup_generator(ctx, p - 1)
    exp, log = [1] * (p - 1), [0] * p
    x = 1
    for i in range(1, p - 1):
        x = x * g % p
        exp[i] = x
        log[x] = i
    inv = [exp[-i] for i in log]
    inv[0] = 0
    return exp, log, inv


class _ClassTables(NamedTuple):
    root_count: object    # v -> #{x : x^n = v}   (every element is a key)
    nonzero_powers: list  # distinct nonzero n-th powers, canonical order
    roots: object         # v -> list of x with x^n = v, canonical order
    inv: object           # multiplicative inverse table (m=1 only)


_TABLES_CACHE: dict = {}


def class_tables(ctx: FieldCtx, n: int) -> _ClassTables:
    key = (ctx, n)
    hit = _TABLES_CACHE.get(key)
    if hit is not None:
        return hit
    check_table_size(ctx)
    if ctx.m == 1:
        tables = _prime_tables(ctx, n)
    else:
        els = list(ctx.elements())
        root_count, preimages = dict.fromkeys(els, 0), {x: [] for x in els}
        for x in els:
            v = ctx.pow(x, n)
            root_count[v] += 1
            preimages[v].append(x)
        nonzero = [v for v in els[1:] if root_count[v]]
        tables = _ClassTables(root_count, nonzero, preimages.__getitem__, None)
    _TABLES_CACHE[key] = tables
    return tables


def _prime_tables(ctx: FieldCtx, n: int) -> _ClassTables:
    """The class tables of F_p read from its index: the nonzero n-th powers
    are exp[0::n], and v != 0 has the n roots exp[log v / n + j*k], j < n,
    when n | log v (none otherwise)."""
    p = ctx.p
    exp, log, inv = _index(ctx)
    k = (p - 1) // n
    nonzero = sorted(exp[::n])
    root_count = [0] * p
    root_count[0] = 1
    for v in nonzero:
        root_count[v] = n

    def roots(v: int) -> list:
        if v == 0:
            return [0]
        i, r = divmod(log[v], n)
        return [] if r else sorted(exp[i::k])

    return _ClassTables(root_count, nonzero, roots, inv)


# ---------------------------------------------------------------------------
# counts on the torus orbits of (a, b), prime fields only
#
# (x, y) -> (t*x, t*y) maps the curve (a, b) onto the curve (t^n*a, b/t^n) and
# keeps the axes, X = Y and the vertex tangents in place, so every count below
# depends only on the coset of a modulo mu_k = (F_p^*)^n and on a*b.


class CurveCell(NamedTuple):
    affine_total: int
    restricted: int   # N_p: off the axes and off X = Y
    tangency: int     # D = #{u in mu_k : a*u^2 - 2u + b = 0}
    refined: int      # off the axes with x^n != y^n, summed directly


class OrbitRow(NamedTuple):
    """CurveCell of the curves (r, c) as int columns indexed by c (c = 0 and
    c = 1/r are no curve's)."""

    affine_total: list
    restricted: list
    tangency: list
    refined: list


class OrbitCounts(NamedTuple):
    reps: list   # r_i, the least element of the i-th coset of mu_k
    coset: list  # a -> (i, s) with a = r_i * s, s in mu_k (index 0 unused)
    rows: list   # rows[i]: OrbitRow of the curves (r_i, c)


def _inverted_classes(p: int, t: _ClassTables, a: int) -> list:
    """(u, 1/(a*u - 1)) over the nonzero n-th powers u with a*u != 1."""
    inv = t.inv
    return [(u, inv[d]) for u in t.nonzero_powers if (d := (a * u - 1) % p)]


def curve_cell(ctx: FieldCtx, n: int, a: int, b: int) -> CurveCell:
    """The orbit counts of one curve (a, b), a*b != 1, over F_p, by one pass
    over its classes: each u contributes n * rc[c_u] points with x^n = u,
    c_u = (u - b)/(a*u - 1), and c_u = u exactly when a*u^2 - 2u + b = 0."""
    p = ctx.p
    t = class_tables(ctx, n)
    rc = t.root_count
    total = diag = refined = 0
    for u, iv in _inverted_classes(p, t, a):
        c = (u - b) * iv % p
        m = rc[c]
        total += m
        if c == u:
            diag += 1
        elif c:
            refined += m
    n1 = rc[b]
    affine = n1 + n * total
    return CurveCell(affine, affine - 2 * n1 - n * diag, diag, n * refined)


def orbit_counts(ctx: FieldCtx, n: int) -> OrbitCounts:
    """OrbitRow for one representative r of each coset of mu_k in F_p^*, in
    O(n*k^2) from pair histograms (generalized cyclotomic numbers of order n).

    On the curve (r, c), x^n = u in mu_k with w = r*u - 1 != 0 gives
    y^n = (u - c)/w.  That is v in mu_k iff c = u - v*w (n^2 points, binned
    in hist), 0 iff c = u (n points if c is in mu_k: n1 = rc[c] in all), and
    u iff c = 2u - r*u^2 (binned in D).  With the n1 points on x = 0:
    affine = n^2*hist + 2*n1, restricted = n^2*hist - n*D and
    refined = n^2*(hist - D)."""
    p = ctx.p
    t = class_tables(ctx, n)
    rc, mu = t.root_count, t.nonzero_powers
    nn = n * n
    coset = [None] * p
    reps, rows = [], []
    for r in range(1, p):
        if coset[r] is not None:
            continue
        for s in mu:
            coset[r * s % p] = (len(reps), s)
        hist, diag = [0] * p, [0] * p
        for u in mu:
            w = (r * u - 1) % p
            if w:
                for v in mu:
                    hist[(u - v * w) % p] += 1
                diag[(2 * u - r * u * u) % p] += 1
        reps.append(r)
        rows.append(OrbitRow([nn * h + 2 * m for h, m in zip(hist, rc)],
                             [nn * h - n * d for h, d in zip(hist, diag)],
                             diag,
                             [nn * (h - d) for h, d in zip(hist, diag)]))
    return OrbitCounts(reps, coset, rows)


# ---------------------------------------------------------------------------
# one curve: counts, special points, smoothness


def count_points(curve: CurveParams) -> CountReport:
    """Exhaustive double loop over F_q^2 (reference route)."""
    ctx, n = curve.ctx, curve.n
    if ctx.m == 1:
        p, a, b = ctx.p, curve.a, curve.b
        xn = [pow(x, n, p) for x in range(p)]
        affine = off_axes = off_diag = 0
        for x in range(p):
            ax = (a * xn[x] - 1) % p          # y^n * ax = bx on the curve
            bx = (xn[x] - b) % p
            for y in range(p):
                if (ax * xn[y] - bx) % p == 0:
                    affine += 1
                    if x and y:
                        off_axes += 1
                        if x != y:
                            off_diag += 1
    else:
        els = list(ctx.elements())
        pw = {x: ctx.pow(x, n) for x in els}
        a, b, zero = curve.a, curve.b, ctx.zero
        affine = off_axes = off_diag = 0
        for x in els:
            for y in els:
                v = ctx.add(ctx.sub(ctx.sub(ctx.mul(a, ctx.mul(pw[x], pw[y])),
                                            pw[x]), pw[y]), b)
                if v == zero:
                    affine += 1
                    if x != zero and y != zero:
                        off_axes += 1
                        if x != y:
                            off_diag += 1
    rc = class_tables(ctx, n).root_count
    n1, n2 = rc[curve.b], rc[ctx.inv(curve.a)]
    return CountReport(affine, off_axes, off_diag, n1, n2, 2 * n2, affine + 2 * n2)


def _classes(curve: CurveParams, t: _ClassTables) -> list:
    """(u, c_u), c_u = (u - b)/(a*u - 1), over the nonzero n-th powers u with
    a*u != 1: the points with x^n = u are those with y^n = c_u."""
    ctx, a, b = curve.ctx, curve.a, curve.b
    if ctx.m == 1:
        p = ctx.p
        return [(u, (u - b) * iv % p) for u, iv in _inverted_classes(p, t, a)]
    return [(u, ctx.div(ctx.sub(u, b), d)) for u in t.nonzero_powers
            if (d := ctx.sub(ctx.mul(a, u), ctx.one)) != ctx.zero]


def count_points_fast(curve: CurveParams) -> CountReport:
    """Single pass over the n-th power classes; exact, O(q/n) per curve.  The
    diagonal x = y meets the class u exactly when c_u = u, i.e. when
    a*u^2 - 2u + b = 0."""
    ctx, n = curve.ctx, curve.n
    t = class_tables(ctx, n)
    rc = t.root_count
    n1, n2 = rc[curve.b], rc[ctx.inv(curve.a)]
    total, diag = n1, 0  # x = 0 row: y^n = b
    for u, c in _classes(curve, t):
        total += n * rc[c]
        diag += c == u
    off_axes = total - 2 * n1
    off_diag = off_axes - n * diag
    return CountReport(total, off_axes, off_diag, n1, n2, 2 * n2, total + 2 * n2)


def special_points(curve: CurveParams) -> list[SpecialPoint]:
    """Rational inflections (xi,0), (0,xi) with xi^n = b, and rational
    tangent directions c with c^n = 1/a of the branches at infinity."""
    ctx, n = curve.ctx, curve.n
    t = class_tables(ctx, n)
    zero = ctx.zero
    out = []
    for xi in t.roots(curve.b):
        out.append(SpecialPoint("inflection", "affine", (xi, zero), "X", xi))
        out.append(SpecialPoint("inflection", "affine", (zero, xi), "Y", xi))
    for c in t.roots(ctx.inv(curve.a)):
        out.append(SpecialPoint("infinite-branch", "P1", None, "Y", c))
        out.append(SpecialPoint("infinite-branch", "P2", None, "X", c))
    return out


@dataclass(frozen=True)
class SmoothnessReport:
    points_checked: int
    clean: bool


def smoothness_scan(curve: CurveParams) -> SmoothnessReport:
    """Check (g_X, g_Y) != (0,0) at every affine rational point.

    g_X = n*x^(n-1)*(a*y^n - 1) and g_Y = n*y^(n-1)*(a*x^n - 1); a violation
    raises SingularAffinePoint since it would falsify the curve's smoothness
    inventory for these parameters.
    """
    ctx, n = curve.ctx, curve.n
    t = class_tables(ctx, n)
    a = curve.a
    checked = 0
    if ctx.m == 1:
        p = ctx.p
        for x, y in _affine_points(curve, t):
            xd, yd = pow(x, n - 1, p), pow(y, n - 1, p)  # x^(n-1), y^(n-1)
            gx = n * xd * (a * yd * y - 1) % p
            gy = n * yd * (a * xd * x - 1) % p
            if gx == 0 and gy == 0:
                raise SingularAffinePoint(f"singular affine point {(x, y)} on {curve}")
            checked += 1
    else:
        for x, y in _affine_points(curve, t):
            gx = ctx.mul(ctx.mul(ctx.element(n), ctx.pow(x, n - 1)),
                         ctx.sub(ctx.mul(a, ctx.pow(y, n)), ctx.one))
            gy = ctx.mul(ctx.mul(ctx.element(n), ctx.pow(y, n - 1)),
                         ctx.sub(ctx.mul(a, ctx.pow(x, n)), ctx.one))
            if ctx.is_zero(gx) and ctx.is_zero(gy):
                raise SingularAffinePoint(f"singular affine point {(x, y)} on {curve}")
            checked += 1
    return SmoothnessReport(points_checked=checked, clean=True)


def _affine_points(curve: CurveParams, t: _ClassTables):
    """Enumerate all affine rational points via the class tables."""
    roots = t.roots
    for y in roots(curve.b):
        yield curve.ctx.zero, y
    for u, c in _classes(curve, t):
        ys = roots(c)
        for x in roots(u):
            for y in ys:
                yield x, y
