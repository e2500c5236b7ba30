"""Slow routes from the definitions, kept as test oracles.

The package counts n-th roots by Euler's criterion and checks every branch
series against U^n * A = B inside the expansion.  These routes recompute
the same facts the long way: by enumerating the field, or by substituting a
point or a series into the curve equation g(x, y) = a*x^n*y^n - x^n - y^n +
b.  They share no code with the routes they check beyond the field and
series arithmetic.

The bound kernels work on integer numerators over fixed denominators.
`w_interval` and `hw_interval` are their `Fraction` views, and
`vtable_rows_fraction` is the k-table as `Fraction` rows, the route that
preceded the integer fields of `harness.vtable_rows`.

The discrete logarithm and Zech tables of a field are built here by field
arithmetic alone, one multiplication per power of the primitive element,
and the canonical modulus by Rabin's test alone on every candidate.

The tangency D of each orbit row is counted here by a u loop over the
representatives r = g^i, i < n, of the cosets of mu_k, g the primitive
element of `subgroup_generator`, the oracle of the prop41 sweep's own pass.

Three small views that only the tests read live here too: the nonzero
elements of a field, the CLI spelling of an element and the diagonal
violations of a prop41 sweep.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from gfcurves.bounds import (
    _SCALE,
    _W_DEN,
    _hw_num,
    _w_num,
    giulietti_bound,
    v_of_k,
    vtilde,
)
from gfcurves.curve import CurveParams
from gfcurves.errors import DomainError
from gfcurves.ffield import (
    FieldCtx,
    _check_root_query,
    _digits,
    poly_is_irreducible,
    subgroup_generator,
)
from gfcurves.localexp import TruncatedSeries


def nonzero_elements(ctx: FieldCtx):
    """The q - 1 nonzero elements of F_q in canonical (encoding) order."""
    return map(ctx.from_encoding, range(1, ctx.q))


def format_element(ctx: FieldCtx, a) -> str:
    """The CLI spelling of an element, which `FieldCtx.parse_element` reads:
    the residue over F_p, "c0,c1,...,c(m-1)" over F_{p^m}."""
    return str(a) if ctx.m == 1 else ",".join(map(str, a))


def diagonal_violations(sweep) -> list:
    """The records of `ChordSweep.violations` on the diagonal a = b."""
    return [rec for rec in sweep.violations if rec[2] == rec[3]]


def tangency_rows(ctx: FieldCtx, n: int) -> list:
    """{c: #{u in mu_k : w = r*u - 1 != 0, 2u - r*u^2 = c}} at every c it
    reaches, 0 included, on row i < n, the coset of r = g^i for the
    primitive element g of F_p."""
    p, g = ctx.p, subgroup_generator(ctx, ctx.p - 1)
    mu = [pow(g, n * j, p) for j in range((p - 1) // n)]
    rows = []
    for r in (pow(g, i, p) for i in range(n)):
        diag = {}
        for u in mu:
            if (r * u - 1) % p:
                c = (2 * u - r * u * u) % p
                diag[c] = diag.get(c, 0) + 1
        rows.append(diag)
    return rows


@functools.cache
def index_by_arithmetic(ctx: FieldCtx) -> tuple[list, list]:
    """(log, zech) of F_q as lists, for the smallest primitive element g:
    log[enc(g^i)] = i with log[0] = -1, and zech[i] = log[enc(g^i + 1)],
    -1 where g^i = -1, for one period i < q - 1.  The powers of g are
    multiplied out one by one with `FieldCtx.mul`, and each g^i + 1 with
    `FieldCtx.add`."""
    q, g = ctx.q, subgroup_generator(ctx, ctx.q - 1)
    powers, x = [], ctx.one
    for _ in range(q - 1):
        powers.append(x)
        x = ctx.mul(x, g)
    log = [-1] * q
    for i, x in enumerate(powers):
        log[ctx.encode(x)] = i
    return log, [log[ctx.encode(ctx.add(x, ctx.one))] for x in powers]


def canonical_modulus_rabin(p: int, m: int) -> tuple:
    """The smallest-encoding monic irreducible of degree m over F_p, by
    Rabin's test on every candidate in encoding order."""
    for enc in range(p**m):
        cand = _digits(enc, p, m) + [1]
        if poly_is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")


def nth_root_count_brute(ctx: FieldCtx, c, n: int) -> int:
    """#{x in F_q : x^n = c} by enumerating the field; refuses what
    `nth_root_count` refuses."""
    _check_root_query(ctx, c, n)
    return sum(1 for x in ctx.elements() if ctx.pow(x, n) == c)


def nth_roots(ctx: FieldCtx, c, n: int) -> list:
    """All x with x^n = c, in canonical order (enumerates the field)."""
    return [x for x in ctx.elements() if ctx.pow(x, n) == c]


def equation_value(curve: CurveParams, x, y):
    """g(x, y) = a*x^n*y^n - x^n - y^n + b."""
    ctx, n = curve.ctx, curve.n
    xn, yn = ctx.pow(x, n), ctx.pow(y, n)
    v = ctx.mul(curve.a, ctx.mul(xn, yn))
    v = ctx.sub(v, xn)
    v = ctx.sub(v, yn)
    return ctx.add(v, curve.b)


def _terms(curve: CurveParams, prec: int):
    """The constants a, b and the monomial t^n as series to precision prec."""
    ctx = curve.ctx
    tn = TruncatedSeries(ctx, curve.n, [ctx.one] + [ctx.zero] * (prec - curve.n - 1))
    return (TruncatedSeries.constant(ctx, curve.a, prec),
            TruncatedSeries.constant(ctx, curve.b, prec), tn)


def inflection_residual(curve: CurveParams, series: TruncatedSeries) -> TruncatedSeries:
    """g(x(t), t) = a*x(t)^n*t^n - x(t)^n - t^n + b for x(t) = series; zero to
    precision for a valid expansion at an inflection."""
    a, b, tn = _terms(curve, series.prec)
    xn = series.pow(curve.n)
    return a * xn * tn - xn - tn + b


def branch_residual(curve: CurveParams, series: TruncatedSeries) -> TruncatedSeries:
    """a*y(t)^n - 1 - t^n*(y(t)^n - b) for y(t) = series, the equation at the
    point at infinity P1 divided by x^n, t = 1/x; zero to precision for a
    valid expansion of a branch over P1."""
    a, b, tn = _terms(curve, series.prec)
    yn = series.pow(curve.n)
    one = TruncatedSeries.constant(curve.ctx, curve.ctx.one, series.prec)
    return a * yn - one - tn * (yn - b)


def w_interval(k) -> tuple[Fraction, Fraction]:
    """Rational enclosure of W(k); k may be an int or a Fraction >= 0."""
    k = Fraction(k)
    if k < 0:
        raise DomainError("k must be nonnegative")
    lo, hi = _w_num(k.numerator, k.denominator)
    return Fraction(lo, _W_DEN), Fraction(hi, _W_DEN)


def hw_interval(q: int, g: int) -> tuple[Fraction, Fraction]:
    """Rational enclosure of q + 1 + 2*g*sqrt(q)."""
    lo = _hw_num(q, g)
    return Fraction(lo, _SCALE), Fraction(lo + 2 * g, _SCALE)


def vtable_rows_fraction(k_min: int, k_max: int):
    """(k, V, Vtilde, W midpoint, giulietti, np, refinement) per integer k,
    as `Fraction`s from the public bound functions and `w_interval`."""
    for k in range(max(2, k_min), k_max + 1):
        v, _ = v_of_k(k, k // 2 + 2)  # t_hi = min(n + 3, k//2 + 5) = k//2 + 5
        vt = vtilde(k)
        w_lo, w_hi = w_interval(k)
        ref = math.floor(vt / 2) if 25 < k < 44 else None
        yield (k, v, vt, (w_lo + w_hi) / 2, giulietti_bound(k), math.floor(w_hi / 2), ref)
