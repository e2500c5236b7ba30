"""Upper bounds on the model point count, evaluated exactly.

Everything polynomial or rational is exact.  The one genuinely irrational
bound, the cube-root expression

    W(k) = 3*(sqrt(2)*k)^(2/3) - (103/19)*(sqrt(2)*k)^(1/3) + 13/3,

is enclosed in a rational interval [lo, hi] with hi - lo below 1e-25
(outward rounding, as in R. E. Moore, Interval Analysis, 1966), and
q + 1 + 2g*sqrt(q) likewise.  The enclosures are computed on plain integers
over fixed denominators (`_w_num` over `_W_DEN`, `_hw_num` over `_SCALE`),
and so are the minimisation of f_u and its threshold ladder (`_min_f`,
`_vtilde_num`: a numerator over 6*t*u_den).  The public functions build
their `fractions.Fraction` results once, from those numerators; the k-table
and `verify lemmas` in `harness` read the numerators directly, and `fixed`
and `ratio` format a numerator over its denominator.  Every reported
integer floors the upper endpoint, so a bound is never under-reported.
Floors are applied once, at the outermost step.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import MappingProxyType
from typing import NamedTuple

from .curve import CurveParams
from .errors import DomainError, EmptyFeasibleSet, InvalidS
from .ffield import nth_root_count

class BoundReport(NamedTuple):
    name: str
    value: int | None
    applicable: bool
    reasons: tuple[str, ...] = ()
    intermediates: dict = MappingProxyType({})  # read-only: one default for every report

    def to_jsonable(self) -> dict:
        inter = {}
        for key, v in self.intermediates.items():
            if type(v) is Fraction:
                if v.denominator == 1:
                    inter[key] = int(v)
                elif v.denominator <= 10**9:
                    inter[key] = ratio(v)
                else:  # interval endpoints: print 12 fixed decimals
                    inter[key] = fixed(v, 12)
            else:
                inter[key] = v
        return {
            "name": self.name,
            "value": self.value,
            "applicable": self.applicable,
            "reasons": list(self.reasons),
            "intermediates": inter,
        }


def fixed(x, digits: int, den: int = 1) -> str:
    """x/den rounded half-even to `digits` decimals, e.g. "-0.125000" for 6;
    x is an int or a Fraction, den a positive int."""
    scale, den = 10**digits, den * x.denominator
    units, rem = divmod(x.numerator * scale, den)
    if 2 * rem > den or (2 * rem == den and units & 1):
        units += 1
    whole, frac = divmod(abs(units), scale)
    return f"{'-' if units < 0 else ''}{whole}.{str(frac).zfill(digits)}"


def ratio(x, den: int = 1) -> str:
    """x/den in lowest terms as "num/den", or "num" when it is an integer;
    x is an int or a Fraction, den a positive int."""
    num, den = x.numerator, den * x.denominator
    g = math.gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


# ---------------------------------------------------------------------------
# exact integer / interval primitives


def floor_kth_root(x: int, k: int) -> int:
    """Largest r with r**k <= x, by integer Newton iteration.

    The step N(r) = ((k-1)*r + x // r**(k-1)) // k is the floor of the mean
    of k-1 copies of r and x/r**(k-1), so N(r) >= floor(x^(1/k)) for every
    r > 0 by AM-GM, and N(r) < r while r**k > x.  So after the first step
    the iterates fall to floor(x^(1/k)) and stop at it, the first r with
    N(r) >= r."""
    if x < 0 or k < 1:
        raise DomainError("floor_kth_root needs x >= 0, k >= 1")
    if x < 2 or k == 1:
        return x
    if x.bit_length() <= 1000:  # a float seed, good to about 50 bits
        r = int(x ** (1.0 / k)) + 1
    else:
        r = 1 << ((x.bit_length() + k - 1) // k)
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            return r
        r = nr


_SCALE = 10**30
_W_DEN = 57 * _SCALE**2  # 3 * 19 * 10^60: clears the 103/19 and 13/3 of W
_SQRT2 = math.isqrt(2 * _SCALE**2)  # sqrt(2) in [_SQRT2, _SQRT2 + 1] / _SCALE


def _w_num(num: int, den: int) -> tuple[int, int]:
    """Numerators over _W_DEN of the enclosure of W(num/den), num/den >= 0.

    With c1lo = floor(cbrt(R_lo)) and c1hi = floor(cbrt(R_hi)) + 1, where
    R_lo <= R_hi are floor(sqrt2lo * 10^60 * num/den) and the same with sqrt2hi,
    W lies in [3*c1lo^2 - (103/19)*c1hi + 13/3, 3*c1hi^2 - (103/19)*c1lo + 13/3]
    on the scale 10^30.  For c = c1lo + 1 and d = ceil((R_hi - R_lo)/(3c^2)),
    (c + d)^3 >= c^3 + 3c^2*d > R_hi, so Newton steps from c + d fall to
    floor(cbrt(R_hi)) (see floor_kth_root): one or two, as c + d exceeds
    cbrt(R_hi) by about 2 at most (the mean-value theorem)."""
    m = num * _SCALE**2
    r_lo, r_hi = _SQRT2 * m // den, (_SQRT2 + 1) * m // den
    c1lo = floor_kth_root(r_lo, 3)
    c = c1lo + 1
    r = c - (r_lo - r_hi) // (3 * c * c)  # c + d
    while r * r * r > r_hi:
        r = (2 * r + r_hi // (r * r)) // 3
    c1hi = r + 1
    const = 247 * _SCALE**2
    return (171 * c1lo * c1lo - 309 * c1hi * _SCALE + const,
            171 * c1hi * c1hi - 309 * c1lo * _SCALE + const)


def _hw_num(q: int, g: int) -> int:
    """Numerator over _SCALE of the lower end of the enclosure of
    q + 1 + 2*g*sqrt(q); the upper end is 2*g more."""
    return (q + 1) * _SCALE + 2 * g * math.isqrt(q * _SCALE**2)


# ---------------------------------------------------------------------------
# Hasse-Weil


def hasse_weil(q: int, g: int) -> BoundReport:
    """q + 1 + floor(2*g*sqrt(q)), exact."""
    if g < 0:
        raise DomainError("genus must be nonnegative")
    root = math.isqrt(4 * g * g * q)  # floor(2g sqrt q) = floor(sqrt(4 g^2 q))
    return BoundReport(
        name="hasse_weil",
        value=q + 1 + root,
        applicable=True,
        intermediates={"q": q, "g": g, "floor_2g_sqrt_q": root},
    )


# ---------------------------------------------------------------------------
# the per-degree-s bound


def _sv_ints(q: int, n: int, s: int, n1: int, n2: int) -> tuple[int, ...]:
    """(N, delta, alpha, beta, 3*gamma, 3N*raw) of the degree-s bound, all
    integers: the scan floors raw as 3N*raw // (3N), with no Fraction."""
    N = (s + 2) * (s + 1) // 2 - 3
    delta = 2 * n * (s - 1)
    alpha = 1 + (s - 1) * n - N
    beta = (s - 1) * (n + 1) - N
    gamma3 = 3 * (2 * (n + 1) - s * (4 * n + 3) - N * (N - 1)) \
        + (s * (2 * n + 3) - 3) * (N + 3)
    raw3n = 3 * N * (N - 1) * (n * n - 2 * n) + 3 * delta * (q + N) \
        - 2 * (3 * n1 * alpha + 3 * n2 * beta + n * gamma3)
    return N, delta, alpha, beta, gamma3, raw3n


def sv_raw(q: int, n: int, s: int, n1: int, n2: int) -> dict:
    """The degree-s bound and its ingredients as exact rationals, from the
    field size, curve degree and the two root counts alone; gamma and raw
    are built once, from the integers 3*gamma and 3N*raw of `_sv_ints`."""
    N, delta, alpha, beta, gamma3, raw3n = _sv_ints(q, n, s, n1, n2)
    return {"s": s, "N": N, "delta": delta, "alpha": alpha, "beta": beta,
            "gamma": Fraction(gamma3, 3), "n1": n1, "n2": n2,
            "raw": Fraction(raw3n, 3 * N)}


@functools.lru_cache(maxsize=1)  # one curve's n - 2 degrees s are asked in a row
def _root_counts(curve: CurveParams) -> tuple[int, int]:
    """(n1, n2) = (#{y : y^n = b}, #{x : x^n = 1/a}); 1/a is an n-th power
    exactly when a is, so n2 asks no inverse."""
    n, ctx = curve.n, curve.ctx
    return nth_root_count(ctx, curve.b, n), nth_root_count(ctx, curve.a, n)


def sv_bound(curve: CurveParams, s: int) -> BoundReport:
    """The degree-s linear-series bound, exact rationals, floored once.

    Applicable when the series degree delta = 2n(s-1) is below the
    characteristic, which guarantees Frobenius classicality; otherwise the
    value is still reported but flagged.
    """
    n, q, p = curve.n, curve.q, curve.p
    if not 2 <= s <= n - 1:
        raise InvalidS(f"s = {s} outside [2, {n - 1}]")
    inter = sv_raw(q, n, s, *_root_counts(curve))
    applicable = inter["delta"] < p
    reasons = () if applicable else ("FrobeniusClassicalityUnverified",)
    return BoundReport(
        name=f"sv_s{s}",
        value=math.floor(inter["raw"]),
        applicable=applicable,
        reasons=reasons,
        intermediates=inter,
    )


# ---------------------------------------------------------------------------
# the minimization machinery behind the cube-root bound


def f_u(t, u) -> Fraction:
    """(3t^2 - 23t + 26)/6 + 4(u+3)/t = ((3t^2 - 23t + 26)t + 24(u+3)) / (6t), exact."""
    if t < 6 or u < 2:
        raise DomainError("f_u needs t >= 6 and u >= 2")
    return Fraction((3 * t * t - 23 * t + 26) * t + 24 * (u + 3), 6 * t)


def _f_num(t: int, u_num: int, u_den: int) -> int:
    """f_u(t) for u = u_num/u_den, as a numerator over 6*t*u_den."""
    return (3 * t * t - 23 * t + 26) * t * u_den + 24 * (u_num + 3 * u_den)


def _min_f(u, t_hi: int) -> tuple[int, int]:
    """(num, t) with min f_u = num/(6*t*u_den) over the integers t in [6, t_hi]
    and t its argmin, ties toward the smaller t; the numerators over
    6*t*u_den are compared by cross-multiplying.

    f_u''(t) = 1 + 8(u+3)/t^3 > 0, so f_u is strictly convex and on the
    integers it falls and then rises.  The walk stops at the first t with
    f_u(t) >= f_u(t-1): every later t is larger still, so the stop decides
    the minimum over all of [6, t_hi], and on a tie (possible only between
    the two integers at the turn) it keeps t-1."""
    u_den = u.denominator
    off = 24 * (u.numerator + 3 * u_den)  # _f_num(t) = (3t^2 - 23t + 26)*t*u_den + off
    best_n, best_t = off - 24 * u_den, 6  # (3*36 - 138 + 26)*6 = -24 at t = 6
    for t in range(7, t_hi + 1):
        num = (3 * t * t - 23 * t + 26) * t * u_den + off
        if num * best_t >= best_n * t:
            break
        best_n, best_t = num, t
    return best_n, best_t


def _k12(t0: int) -> int:
    """12 * k_{t0}."""
    return t0 * (t0 + 1) * (3 * t0 - 10) - 36


def k_threshold(t0: int) -> Fraction:
    """k_{t0} = t0(t0+1)(3t0-10)/12 - 3."""
    if t0 < 6:
        raise DomainError("t0 must be >= 6")
    return Fraction(_k12(t0), 12)


def lemma34_check(u, t0: int) -> bool:
    """Return u <= k_{t0}, asserting it coincides with f_u(t0) <= f_u(t0+1)."""
    if u < 2 or t0 < 6:
        raise DomainError("need u >= 2 and t0 >= 6")
    left = u <= k_threshold(t0)
    right = f_u(t0, u) <= f_u(t0 + 1, u)
    if left is not right:
        raise AssertionError(f"monotonicity criterion failed at u={u}, t0={t0}")
    return left


def _vtilde_num(u) -> tuple[int, int]:
    """(num, t) with vtilde(u) = f_u(t) = num/(6*t*u_den), t read off the
    threshold ladder; u is compared with k_t as 12*u against 12*k_t."""
    u_num, u_den = u.numerator, u.denominator
    t = 6
    if 12 * u_num > _k12(6) * u_den:  # u > k_6
        while _k12(t + 1) * u_den <= 12 * u_num:
            t += 1
        t += 1
    return _f_num(t, u_num, u_den), t


def vtilde(u) -> Fraction:
    """min of f_u over all integers t >= 6, via the threshold ladder."""
    if u < 2:
        raise DomainError("u must be >= 2")
    num, t = _vtilde_num(u)
    return Fraction(num, 6 * t * u.denominator)


def v_of_k(k: int, n: int) -> tuple[Fraction, int]:
    """Exact min of f_k over integers t in [6, n+3] with t <= k/2 + 5.

    Ties break toward smaller t.  Returns (value, argmin_t).
    """
    if n < 3:
        raise DomainError("n must be >= 3")
    t_hi = min(n + 3, k // 2 + 5)
    if k < 2 or t_hi < 6:
        raise EmptyFeasibleSet(f"no integer t in [6, {t_hi}]")
    num, t = _min_f(k, t_hi)
    return Fraction(num, 6 * t * k.denominator), t


# ---------------------------------------------------------------------------
# the cube-root bound and the chord bounds derived from it


def _w_applicability(p: int, n: int) -> list[str]:
    reasons = []
    if n < 3:
        reasons.append("DegreeBelowThree")
    if (p - 1) % n or n == p - 1:
        reasons.append("NotProperDivisor")
    if not reasons and 12 * (p - 1) > n * _k12(n + 3):
        reasons.append("ThresholdExceeded")
    return reasons


def w_bound(curve: CurveParams) -> BoundReport:
    """floor(n^2 * W(k)) when n >= 3 is a proper divisor of p-1 and
    p-1 <= n * k_{n+3}; inapplicability is reported, not thrown."""
    n, p = curve.n, curve.p
    if curve.ctx.m != 1:
        return BoundReport("w", None, False, ("NotPrimeField",), {})
    reasons = _w_applicability(p, n)
    k = (p - 1) // n if (p - 1) % n == 0 else Fraction(p - 1, n)
    threshold = n * k_threshold(n + 3) if n >= 3 else None
    if reasons:
        return BoundReport("w", None, False, tuple(reasons),
                           {"k": k, "threshold": threshold})
    lo, hi = _w_num(p - 1, n)
    return BoundReport(
        name="w",
        value=n * n * hi // _W_DEN,
        applicable=True,
        intermediates={"k": k, "threshold": threshold,
                       "raw_lo": Fraction(lo, _W_DEN), "raw_hi": Fraction(hi, _W_DEN)},
    )


def w_scalar_value(p: int, n: int) -> int | None:
    """floor(n^2 * W((p-1)/n)) when the cube-root bound applies, else None."""
    if _w_applicability(p, n):
        return None
    _, hi = _w_num(p - 1, n)
    return n * n * hi // _W_DEN


def giulietti_bound(k: int) -> Fraction:
    """(k+1)/3, exact."""
    if k < 2:
        raise DomainError("k must be >= 2")
    return Fraction(k + 1, 3)


def np_bound_value(k) -> int:
    """floor(W(k)/2): the chord-count bound as a function of k alone."""
    if k < 2:
        raise DomainError("k must be >= 2")
    _, hi = _w_num(k.numerator, k.denominator)
    return hi // (2 * _W_DEN)


def np_bound(p: int, n: int) -> BoundReport:
    """Half the cube-root expression, floored; same applicability test as
    w_bound.  In the window 25 < k < 44 the sharper floor(vtilde(k)/2) is
    reported alongside."""
    reasons = _w_applicability(p, n)
    if reasons:
        k = Fraction(p - 1, n)
        return BoundReport("np", None, False, tuple(reasons), {"k": k})
    k = (p - 1) // n
    lo, hi = _w_num(k, 1)
    refinement = math.floor(vtilde(k) / 2) if 25 < k < 44 else None
    return BoundReport(
        name="np",
        value=hi // (2 * _W_DEN),
        applicable=True,
        intermediates={"k": k, "raw_lo": Fraction(lo, _W_DEN),
                       "raw_hi": Fraction(hi, _W_DEN),
                       "giulietti": giulietti_bound(k),
                       "refinement": refinement},
    )
