"""Truncated series arithmetic and local expansions at the special points.

A branch through an inflection (xi, 0) is parametrized by t = y, solving
x^n * (a t^n - 1) = t^n - b; a branch over the singular point at infinity
P1 with tangent direction c is parametrized by t = 1/x, solving
y^n * (a - t^n) = 1 - b t^n.

Both equations read U^n * (A0 + An t^n) = B0 + Bn t^n, so the branch is
U = root * G(t^n)^(1/n) with G(s) = (1 + beta s)/(1 + alpha s), alpha =
An/A0 and beta = Bn/B0, and every power U^i = root^i * G(t^n)^(i/n).  The
series G^(1/n) = (1 + beta s)^(1/n) * (1 + alpha s)^(-1/n) is a product of
two binomial series.  For r = i/n with p not dividing n, r is a p-adic
integer, and binom(r, k) mod p is the product of binom(r_j, k_j) over the
base-p digits of r and k (E. Lucas, Amer. J. Math. 1, 1878), so the
coefficients are exact over F_q at every precision.  They are taken at
s -> A0*B0*s, alpha' = An*B0 and beta' = Bn*A0, which asks no inverse.

The degree-s order sequence at a special point is the set of vanishing
orders of the linear combinations of the monomials x^i y^j, i, j < s,
i + j <= s; the row of x^i y^j is root^i * F_1^i(t^n / (A0*B0)) * t^(+-j).
Here F_1 = 1 + f_1 s + ..., f_1 = (beta' - alpha')/n = +-(ab - 1)/n, which
is nonzero on every curve (ab != 1, and p does not divide n).  The matrix of
binom(i, k) is unitriangular, so span{F_1^i : i <= t} = span{(F_1 - 1)^k :
k <= t}, and (F_1 - 1)^k has valuation exactly k: the orders are the closed
forms {i + jn} at an inflection and {i + j(n+1) - 1} less two values over
P1 (Stohr-Voloch, Proc. LMS 52, 1986).  So order_sequence checks the
certificate f_1 != 0 and returns the closed form; no rank is computed.
The contact orders of the tangent lines come from the first nonzero
coefficient of G^(1/n) past the constant.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .curve import CurveParams, SpecialPoint
from .errors import (
    InvalidS,
    NotAnInflection,
    NotATangentDirection,
    PrecisionTooLow,
    SmallCharacteristic,
)
from .ffield import FieldCtx


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

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and (self.ctx, self.offset, self.coeffs)
                == (other.ctx, other.offset, other.coeffs))

    def __repr__(self):
        return f"TruncatedSeries(offset={self.offset}, coeffs={self.coeffs})"


# ---------------------------------------------------------------------------
# branch expansions


def _coefficients(curve: CurveParams, kind: str) -> tuple:
    """(A0, An, B0, Bn) with U^n * (A0 + An t^n) = B0 + Bn t^n on the branch
    of `kind`: x^n (a t^n - 1) = t^n - b at an inflection, y^n (a - t^n) =
    1 - b t^n over P1."""
    ctx, one = curve.ctx, curve.ctx.one
    if kind == "inflection":
        return ctx.neg(one), curve.a, ctx.neg(curve.b), one
    return curve.a, ctx.neg(one), one, ctx.neg(curve.b)


_NOT_A_ROOT = {"inflection": (NotAnInflection, "xi^n != b"),
               "infinite-branch": (NotATangentDirection, "c^n != a^(-1)")}


def _expand(curve: CurveParams, kind: str, root, L: int | None) -> TruncatedSeries:
    """The series U = root * F_1(t^n / (A0*B0)) with U^n * (A0 + An t^n) =
    B0 + Bn t^n, to L terms; the root must solve root^n * A0 = B0.  U solves
    the equation by construction (module docstring), so no residual is taken."""
    ctx, n = curve.ctx, curve.n
    if L is None:
        L = n + 2
    if L < n + 2:
        raise PrecisionTooLow(f"L = {L} < n + 2 = {n + 2}")
    a0, _, b0, _ = _coefficients(curve, kind)
    u, U = ctx.inv(ctx.mul(a0, b0)), [ctx.zero] * L
    U[::n] = [ctx.mul(ctx.mul(root, f), ctx.pow(u, m))
              for m, f in enumerate(_branch_series(curve, kind, root, -(-L // n)))]
    return TruncatedSeries(ctx, 0, U)


def expand_at_inflection(curve: CurveParams, xi, L: int | None = None) -> TruncatedSeries:
    """x(t) = xi + O(t^n) with g(x(t), t) = 0, local parameter t the other
    coordinate.  The same series serves (xi, 0) and (0, xi) by symmetry."""
    return _expand(curve, "inflection", xi, L)


def expand_branch_at_infinity(curve: CurveParams, c, L: int | None = None) -> TruncatedSeries:
    """y(t) = c + O(t^n) with y^n (a - t^n) = 1 - b t^n, t = 1/x; the
    dehomogenized equation at P1 divided by x^n (P2 swaps the roles)."""
    return _expand(curve, "infinite-branch", c, L)


# ---------------------------------------------------------------------------
# the binomial series of the branch, over the base field


def _binomials(p: int, num: int, den: int, count: int) -> list[int]:
    """binom(r, k) mod p for k < count, r = num/den with p not dividing den,
    by Lucas' theorem: the product of binom(r_j, k_j) over the base-p digits,
    with r taken mod p^D > k."""
    size = 1
    while size < count:
        size *= p
    r = num * pow(den, -1, size) % size
    out = []
    for k in range(count):
        c, rest = 1, r
        while k and c:
            c = c * comb(rest % p, k % p) % p
            rest, k = rest // p, k // p
        out.append(c)
    return out


def _branch_series(curve: CurveParams, kind: str, root, count: int) -> list:
    """F_1 to `count` terms, with U = root * F_1(t^n / (A0*B0)) on the branch
    of `kind` for any root of T^n = B0/A0 (a given root must be one):
    F_1 = (1 + beta' s)^(1/n) (1 + alpha' s)^(-1/n)."""
    ctx, n, p = curve.ctx, curve.n, curve.p
    a0, an, b0, bn = _coefficients(curve, kind)
    if root is not None and ctx.mul(ctx.pow(root, n), a0) != b0:
        error, message = _NOT_A_ROOT[kind]
        raise error(message)

    def series(i, x):  # binom(i/n, k) * x^k
        cs = _binomials(p, i, n, count)
        if ctx.m == 1:
            return [c * pow(x, k, p) % p for k, c in enumerate(cs)]
        return [ctx.mul(ctx.element(c), ctx.pow(x, k)) for k, c in enumerate(cs)]

    return _mul_trunc(ctx, series(1, ctx.mul(bn, a0)), series(-1, ctx.mul(an, b0)), count)


def _contact_gap(curve: CurveParams, kind: str, root=None) -> int:
    """v(U - root) on the branch of `kind`, for any root (a given one must
    be a root): U - root = root * (F_1(t^n / (A0*B0)) - 1), so the valuation
    is n * min{m >= 1 : f_m != 0}, read to the default precision n + 2 of the
    expansions, which reaches m = 1."""
    n = curve.n
    f = _branch_series(curve, kind, root, -(-(n + 2) // n))
    m = next((m for m in range(1, len(f)) if not curve.ctx.is_zero(f[m])), None)
    if m is None:
        raise PrecisionTooLow("the branch equals its tangent to full precision")
    return n * m


# ---------------------------------------------------------------------------
# contact orders of tangent lines (the local multiplicity inventory)


def inflection_contact_order(curve: CurveParams, xi=None) -> int:
    """v(x(t) - xi): the intersection multiplicity of the tangent X = xi."""
    return _contact_gap(curve, "inflection", xi)


def branch_contact_order(curve: CurveParams, c=None) -> int:
    """v((y(t) - c) * t): multiplicity of the tangent Y = c on its branch,
    measured projectively (the extra t is the 1/x normalization)."""
    return _contact_gap(curve, "infinite-branch", c) + 1


def tangent_line_branch_intersections(curve: CurveParams, c=None) -> list[int]:
    """Multiplicities of one tangent line Y = c against all n branches at P1.

    The n directions differ by the rational n-th roots of unity, so the
    other n - 1 branches leave the line at once (multiplicity 1) and its
    own branch meets it to its contact order."""
    return [1] * (curve.n - 1) + [branch_contact_order(curve, c)]


# ---------------------------------------------------------------------------
# order sequences


class _OrderSequence(NamedTuple):
    orders: tuple[int, ...]
    s: int
    point_kind: str


class OrderSequence(_OrderSequence):
    __slots__ = ()

    def __new__(cls, orders, s, point_kind):
        expected = (s + 2) * (s + 1) // 2 - 2
        if len(orders) != expected:
            raise ValueError(f"expected {expected} orders, got {len(orders)}")
        if list(orders) != sorted(set(orders)) or orders[0] != 0:
            raise ValueError("orders must be strictly increasing from 0")
        return super().__new__(cls, orders, s, point_kind)


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


def order_sequence(curve: CurveParams, point, s: int) -> OrderSequence:
    """The degree-s order sequence at a special point, from its certificate.

    `point` is either a SpecialPoint from curve.special_points or one of the
    kind strings "inflection" / "infinite-branch"; the orders do not depend
    on the point of the kind, so with a kind string no root is needed, and
    the series stay over the base field even when the root is irrational.
    """
    n = curve.n
    if not 2 <= s <= n - 1:
        raise InvalidS(f"s = {s} outside [2, {n - 1}]")
    if curve.p <= s * (n + 1):
        raise SmallCharacteristic(
            f"p = {curve.p} <= s(n+1) = {s * (n + 1)}: outside the verified regime")

    if isinstance(point, SpecialPoint):
        kind, root = point.kind, point.tangent_value
    elif point in ("inflection", "infinite-branch"):
        kind, root = point, None
    else:
        raise ValueError(f"not a special-point handle: {point!r}")

    # f_1 != 0 is the certificate (module docstring); _contact_gap reads it,
    # refuses a wrong root, and raises PrecisionTooLow when f_1 is zero
    _contact_gap(curve, kind, root)
    orders = inflection_orders(n, s) if kind == "inflection" else branch_orders(n, s)
    return OrderSequence(orders, s, kind)
