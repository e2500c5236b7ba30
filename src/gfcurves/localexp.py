"""Truncated series arithmetic and local expansions at the special points.

A branch through an inflection (xi, 0) is parametrized by t = y, solving
g(x(t), t) = 0 by Newton lifting of x^n * (a t^n - 1) = t^n - b; a branch
over the singular point at infinity P1 with tangent direction c is
parametrized by t = 1/x, solving y^n * (a - t^n) = 1 - b t^n.  Both lifts
are valid because the relevant partial derivative is a unit.

Order sequences of the degree-s series are extracted as the pivot columns of
the coefficient matrix of the shifted monomial expansions t^e * x^i * y^j:
the set of columns where the rank grows equals the set of vanishing orders
achievable by linear combinations.  When the required root (of T^n - b or
T^n - 1/a) is irrational the computation runs over the smallest splitting
extension; ranks are insensitive to base change, so the orders are the same.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .curve import CurveParams, SpecialPoint, make_curve
from .errors import (
    InvalidS,
    NotAnInflection,
    NotATangentDirection,
    PrecisionTooLow,
    SmallCharacteristic,
)
from .ffield import FieldCtx, nth_root_extension, subgroup_generator


# ---------------------------------------------------------------------------
# dense power-series kernels (offset-0 lists of field elements, length = prec)


def _mul_trunc(ctx: FieldCtx, A: list, B: list, L: int) -> list:
    if ctx.m == 1:
        p = ctx.p
        out = [0] * L
        for i, a in enumerate(A):
            if a and i < L:
                hi = min(L - i, len(B))
                for j in range(hi):
                    out[i + j] += a * B[j]
        return [v % p for v in out]
    out = [ctx.zero] * L
    for i, a in enumerate(A):
        if i >= L or ctx.is_zero(a):
            continue
        hi = min(L - i, len(B))
        for j in range(hi):
            b = B[j]
            if not ctx.is_zero(b):
                out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return out


def _inv_trunc(ctx: FieldCtx, A: list, L: int) -> list:
    """Inverse of a unit power series to L terms."""
    c0 = ctx.inv(A[0])
    out = [c0] + [ctx.zero] * (L - 1)
    for k in range(1, L):
        acc = ctx.zero
        for i in range(1, min(k, len(A) - 1) + 1):
            ai = A[i]
            if not ctx.is_zero(ai):
                acc = ctx.add(acc, ctx.mul(ai, out[k - i]))
        out[k] = ctx.neg(ctx.mul(c0, acc))
    return out


def _pow_trunc(ctx: FieldCtx, A: list, e: int, L: int) -> list:
    out = [ctx.one] + [ctx.zero] * (L - 1)
    base = A[:L] + [ctx.zero] * (L - len(A))
    while e:
        if e & 1:
            out = _mul_trunc(ctx, out, base, L)
        e >>= 1
        if e:
            base = _mul_trunc(ctx, base, base, L)
    return out


def _solve_unit_power(ctx: FieldCtx, A: list, B: list, n: int, u0, L: int) -> list:
    """U with U^n * A = B mod t^L and U(0) = u0, by Newton doubling."""
    U = [u0]
    prec = 1
    while prec < L:
        prec = min(2 * prec, L)
        U = U + [ctx.zero] * (prec - len(U))
        Un1 = _pow_trunc(ctx, U, n - 1, prec)
        Un = _mul_trunc(ctx, Un1, U, prec)
        F = [ctx.sub(x, y) for x, y in zip(_mul_trunc(ctx, Un, A, prec), B[:prec])]
        Fp = _mul_trunc(ctx, [ctx.mul(ctx.element(n), v) for v in Un1], A, prec)
        corr = _mul_trunc(ctx, F, _inv_trunc(ctx, Fp, prec), prec)
        U = [ctx.sub(x, y) for x, y in zip(U, corr)]
    Un = _pow_trunc(ctx, U, n, L)
    res = [ctx.sub(x, y) for x, y in zip(_mul_trunc(ctx, Un, A, L), B[:L])]
    if any(not ctx.is_zero(v) for v in res):
        raise AssertionError("Newton lift failed to cancel the residual")
    return U


# ---------------------------------------------------------------------------


class TruncatedSeries:
    """A Laurent-series prefix: coefficients for t^offset .. t^(prec-1).

    The leading stored coefficient is nonzero unless the series is zero to
    its precision (then coeffs is empty and offset == prec).  Products and
    sums truncate consistently with the operands' precisions.
    """

    __slots__ = ("ctx", "offset", "coeffs")

    def __init__(self, ctx: FieldCtx, offset: int, coeffs: list):
        while coeffs and ctx.is_zero(coeffs[0]):
            coeffs = coeffs[1:]
            offset += 1
        self.ctx = ctx
        self.offset = offset
        self.coeffs = list(coeffs)

    @classmethod
    def constant(cls, ctx, c, prec: int):
        return cls(ctx, 0, [ctx.element(c) if isinstance(c, int) else c]
                   + [ctx.zero] * (prec - 1))

    @property
    def prec(self) -> int:
        return self.offset + len(self.coeffs)

    def valuation(self) -> int | None:
        """Exact valuation, or None when zero to precision."""
        return self.offset if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, e: int):
        if e >= self.prec:
            raise PrecisionTooLow(f"coefficient t^{e} beyond precision {self.prec}")
        if e < self.offset:
            return self.ctx.zero
        return self.coeffs[e - self.offset]

    def shift(self, j: int) -> "TruncatedSeries":
        return TruncatedSeries(self.ctx, self.offset + j, self.coeffs)

    def __add__(self, other):
        ctx = self.ctx
        prec = min(self.prec, other.prec)
        off = min(self.offset, other.offset)
        out = [ctx.zero] * (prec - off)
        for src in (self, other):
            for i, c in enumerate(src.coeffs):
                e = src.offset + i
                if e < prec:
                    out[e - off] = ctx.add(out[e - off], c)
        return TruncatedSeries(ctx, off, out)

    def __neg__(self):
        return TruncatedSeries(self.ctx, self.offset,
                               [self.ctx.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        ctx = self.ctx
        if self.is_zero() or other.is_zero():
            return TruncatedSeries(ctx, self.offset + other.offset, [])
        off = self.offset + other.offset
        prec = min(self.prec + other.offset, other.prec + self.offset)
        out = _mul_trunc(ctx, self.coeffs, other.coeffs, prec - off)
        return TruncatedSeries(ctx, off, out)

    def pow(self, e: int) -> "TruncatedSeries":
        """self^e for e >= 0, by squaring; as many known terms as self."""
        return TruncatedSeries(self.ctx, e * self.offset,
                               _pow_trunc(self.ctx, self.coeffs, e, len(self.coeffs)))

    def inverse(self) -> "TruncatedSeries":
        if self.is_zero():
            raise ZeroDivisionError("inverse of a series that is zero to precision")
        unit = _inv_trunc(self.ctx, self.coeffs, len(self.coeffs))
        return TruncatedSeries(self.ctx, -self.offset, unit)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and (self.ctx, self.offset, self.coeffs)
                == (other.ctx, other.offset, other.coeffs))

    def __repr__(self):
        return f"TruncatedSeries(offset={self.offset}, coeffs={self.coeffs})"


# ---------------------------------------------------------------------------
# branch expansions


def _coefficients(curve: CurveParams, kind: str, L: int) -> tuple[list, list]:
    """(A, B), dense to L terms, with U^n * A = B on the branch of `kind`:
    x^n (a t^n - 1) = t^n - b at an inflection, y^n (a - t^n) = 1 - b t^n
    over P1."""
    ctx, n, one = curve.ctx, curve.n, curve.ctx.one
    if kind == "inflection":
        a0, an, b0, bn = ctx.neg(one), curve.a, ctx.neg(curve.b), one
    else:
        a0, an, b0, bn = curve.a, ctx.neg(one), one, ctx.neg(curve.b)
    A, B = [a0] + [ctx.zero] * (L - 1), [b0] + [ctx.zero] * (L - 1)
    A[n], B[n] = an, bn
    return A, B


_NOT_A_ROOT = {"inflection": (NotAnInflection, "xi^n != b"),
               "infinite-branch": (NotATangentDirection, "c^n != a^(-1)")}


def _expand(curve: CurveParams, kind: str, root, L: int | None) -> TruncatedSeries:
    """The series U = root + O(t^n) with U^n * A = B, to L terms; the root
    must solve root^n * A(0) = B(0)."""
    ctx, n = curve.ctx, curve.n
    if L is None:
        L = n + 2
    if L < n + 2:
        raise PrecisionTooLow(f"L = {L} < n + 2 = {n + 2}")
    A, B = _coefficients(curve, kind, L)
    if ctx.mul(ctx.pow(root, n), A[0]) != B[0]:
        error, message = _NOT_A_ROOT[kind]
        raise error(message)
    return TruncatedSeries(ctx, 0, _solve_unit_power(ctx, A, B, n, root, L))


def _residual(curve: CurveParams, kind: str, series: TruncatedSeries) -> TruncatedSeries:
    """U^n * A - B for U = series; zero to precision for a valid expansion."""
    A, B = _coefficients(curve, kind, series.prec)
    ctx = curve.ctx
    return series.pow(curve.n) * TruncatedSeries(ctx, 0, A) - TruncatedSeries(ctx, 0, B)


def expand_at_inflection(curve: CurveParams, xi, L: int | None = None) -> TruncatedSeries:
    """x(t) = xi + O(t^n) with g(x(t), t) = 0, local parameter t the other
    coordinate.  The same series serves (xi, 0) and (0, xi) by symmetry."""
    return _expand(curve, "inflection", xi, L)


def expand_branch_at_infinity(curve: CurveParams, c, L: int | None = None) -> TruncatedSeries:
    """y(t) = c + O(t^n) with y^n (a - t^n) = 1 - b t^n, t = 1/x; the
    dehomogenized equation at P1 divided by x^n (P2 swaps the roles)."""
    return _expand(curve, "infinite-branch", c, L)


def inflection_residual(curve: CurveParams, series: TruncatedSeries) -> TruncatedSeries:
    """g(x(t), t) as a series; zero to precision for a valid expansion."""
    return _residual(curve, "inflection", series)


def branch_residual(curve: CurveParams, series: TruncatedSeries) -> TruncatedSeries:
    """a y^n - 1 - t^n (y^n - b) as a series."""
    return _residual(curve, "infinite-branch", series)


# ---------------------------------------------------------------------------
# splitting-field plumbing


@functools.lru_cache(maxsize=8)  # a curve's checks ask for its two sites again and again
def _site(curve: CurveParams, kind: str):
    """(curve', root) over the smallest field containing a root of T^n = b
    at an inflection, of T^n = 1/a on the branches over P1."""
    ctx, n = curve.ctx, curve.n
    c = curve.b if kind == "inflection" else ctx.inv(curve.a)
    ctx2, root = nth_root_extension(ctx, c, n)
    if ctx2 is not ctx:
        curve = make_curve(ctx2, n, ctx2.element(curve.a), ctx2.element(curve.b))
    return curve, root


# ---------------------------------------------------------------------------
# contact orders of tangent lines (the local multiplicity inventory)


def inflection_contact_order(curve: CurveParams, xi=None) -> int:
    """v(x(t) - xi): the intersection multiplicity of the tangent X = xi."""
    if xi is None:
        curve, xi = _site(curve, "inflection")
    s = expand_at_inflection(curve, xi)
    shifted = s - TruncatedSeries.constant(curve.ctx, xi, s.prec)
    v = shifted.valuation()
    if v is None:
        raise PrecisionTooLow("x(t) - xi vanished to full precision")
    return v


def branch_contact_order(curve: CurveParams, c=None) -> int:
    """v((y(t) - c) * t): multiplicity of the tangent Y = c on its branch,
    measured projectively (the extra t is the 1/x normalization)."""
    if c is None:
        curve, c = _site(curve, "infinite-branch")
    s = expand_branch_at_infinity(curve, c)
    shifted = (s - TruncatedSeries.constant(curve.ctx, c, s.prec)).shift(1)
    v = shifted.valuation()
    if v is None:
        raise PrecisionTooLow("y(t) - c vanished to full precision")
    return v


def tangent_line_branch_intersections(curve: CurveParams, c=None) -> list[int]:
    """Multiplicities of one tangent line Y = c against all n branches at P1.

    With no c given the reference direction is the canonical root of
    T^n = 1/a, over its splitting extension when irrational.  The n
    directions differ by the rational n-th roots of unity."""
    base_zeta = subgroup_generator(curve.ctx, curve.n)
    if c is None:
        work, c = _site(curve, "infinite-branch")
    else:
        work = curve
    ctx = work.ctx
    zeta = ctx.element(base_zeta) if ctx is not curve.ctx else base_zeta
    out = []
    direction = c
    for _ in range(curve.n):
        s = expand_branch_at_infinity(work, direction)
        shifted = (s - TruncatedSeries.constant(ctx, c, s.prec)).shift(1)
        v = shifted.valuation()
        if v is None:
            raise PrecisionTooLow("indistinguishable branches at this precision")
        out.append(v)
        direction = ctx.mul(direction, zeta)
    return sorted(out)


# ---------------------------------------------------------------------------
# order sequences


@dataclass(frozen=True)
class OrderSequence:
    orders: tuple[int, ...]
    s: int
    point_kind: str

    def __post_init__(self):
        expected = (self.s + 2) * (self.s + 1) // 2 - 2
        if len(self.orders) != expected:
            raise ValueError(f"expected {expected} orders, got {len(self.orders)}")
        if list(self.orders) != sorted(set(self.orders)) or self.orders[0] != 0:
            raise ValueError("orders must be strictly increasing from 0")


def inflection_orders(n: int, s: int) -> tuple[int, ...]:
    """{i + j*n : 0 <= i, j <= s-1, i + j <= s}."""
    return tuple(sorted({i + j * n for i in range(s) for j in range(s)
                         if i + j <= s}))


def branch_orders(n: int, s: int) -> tuple[int, ...]:
    """{i + j*(n+1) - 1 : 0 <= i, j, i + j <= s} minus {-1, s*(n+1) - 1}."""
    vals = {i + j * (n + 1) - 1
            for i in range(s + 1) for j in range(s + 1) if i + j <= s}
    vals -= {-1, s * (n + 1) - 1}
    return tuple(sorted(vals))


def inflection_order_sum(n: int, s: int) -> int:
    return s * (n + 1) * (-6 + (s + 1) * (s + 2)) // 6


def branch_order_sum(n: int, s: int) -> int:
    return 2 - s * (n + 1) + (s * (n + 2) - 3) * (s + 1) * (s + 2) // 6


def inflection_top_order(n: int, s: int) -> int:
    return 1 + (s - 1) * n


def branch_top_order(n: int, s: int) -> int:
    return (s - 1) * (n + 1)


def _pivot_columns(ctx: FieldCtx, rows: list[list], need: int) -> list[int] | None:
    """Columns where the rank of the stacked rows increases; None if fewer
    than `need` pivots exist at this precision."""
    pivots: dict[int, list] = {}
    for row in rows:
        r = list(row)
        for col in sorted(pivots):
            c = r[col]
            if not ctx.is_zero(c):
                pr = pivots[col]
                r = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(r, pr)]
        lead = next((i for i, v in enumerate(r) if not ctx.is_zero(v)), None)
        if lead is None:
            continue
        inv = ctx.inv(r[lead])
        pivots[lead] = [ctx.mul(inv, v) for v in r]
    cols = sorted(pivots)
    return cols if len(cols) >= need else None


def order_sequence(curve: CurveParams, point, s: int) -> OrderSequence:
    """The degree-s order sequence at a special point, by rank pivots.

    `point` is either a SpecialPoint from curve.special_points or one of the
    kind strings "inflection" / "infinite-branch"; with a kind string the
    canonical point is used, moving to the splitting extension when the
    required root is irrational.
    """
    n = curve.n
    if not 2 <= s <= n - 1:
        raise InvalidS(f"s = {s} outside [2, {n - 1}]")
    if curve.p <= s * (n + 1):
        raise SmallCharacteristic(
            f"p = {curve.p} <= s(n+1) = {s * (n + 1)}: outside the verified regime")

    if isinstance(point, SpecialPoint):
        kind, work, site = point.kind, curve, point.tangent_value
    elif point in ("inflection", "infinite-branch"):
        kind = point
        work, site = _site(curve, kind)
    else:
        raise ValueError(f"not a special-point handle: {point!r}")

    need = (s + 2) * (s + 1) // 2 - 2
    L = s * (n + 1) + 2
    for attempt in range(2):
        cols = _order_pivots(work, kind, site, s, L, need)
        if cols is not None:
            return OrderSequence(tuple(cols[:need]), s, kind)
        L *= 2
    raise PrecisionTooLow(f"fewer than {need} pivots found at precision {L // 2}")


def _order_pivots(work: CurveParams, kind: str, site, s: int, L: int, need: int):
    ctx = work.ctx
    series = _expand(work, kind, site, L)
    powers = [TruncatedSeries.constant(ctx, ctx.one, L)]
    for _ in range(s - 1):
        powers.append(powers[-1] * series)
    # the monomials x^i y^j, i, j < s, i + j <= s: x = x(t), y = t at (xi, 0)
    # gives powers[i].shift(j); x = 1/t, y = y(t) at P1 gives powers[j].shift(-i),
    # and the index set is symmetric, so that is powers[i].shift(-j) over it
    sign = 1 if kind == "inflection" else -1
    rows_series = [powers[i].shift(sign * j)
                   for i in range(s) for j in range(s) if i + j <= s]
    e_q = -min(r.offset for r in rows_series)
    shifted = [r.shift(e_q) for r in rows_series]
    if min(r.prec for r in shifted) < L:
        return None
    matrix = [[r.coefficient(e) for e in range(L)] for r in shifted]
    return _pivot_columns(ctx, matrix, need)
