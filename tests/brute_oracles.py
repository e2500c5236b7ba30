"""Slow routes from the definitions, kept as test oracles.

The package counts n-th roots by Euler's criterion and checks every branch
series against U^n * A = B inside the expansion.  These routes recompute
the same facts the long way: by enumerating the field, or by substituting a
point or a series into the curve equation g(x, y) = a*x^n*y^n - x^n - y^n +
b.  They share no code with the routes they check beyond the field and
series arithmetic.
"""

from __future__ import annotations

from gfcurves.curve import CurveParams
from gfcurves.ffield import FieldCtx, _check_root_query
from gfcurves.localexp import TruncatedSeries


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
