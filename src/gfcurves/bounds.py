"""Upper bounds on the model point count, evaluated exactly.

Everything polynomial or rational is exact.  The one genuinely irrational
bound, the cube-root expression

    W(k) = 3*(sqrt(2)*k)^(2/3) - (103/19)*(sqrt(2)*k)^(1/3) + 13/3,

is enclosed in a rational interval [lo, hi] with hi - lo below 1e-25
(outward rounding, as in R. E. Moore, Interval Analysis, 1966), and
q + 1 + 2g*sqrt(q) likewise.  The enclosures are computed on plain integers
over fixed denominators (`_w_num` over `_W_DEN`, `_hw_num` over `_SCALE`),
and so is the minimisation of f_u; the public functions build their
`fractions.Fraction` results once, from those numerators.  Every reported
integer floors the upper endpoint, so a bound is never under-reported.
Floors are applied once, at the outermost step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .curve import CurveParams
from .errors import DomainError, EmptyFeasibleSet, InvalidS
from .ffield import nth_root_count

@dataclass(frozen=True)
class BoundReport:
    name: str
    value: int | None
    applicable: bool
    reasons: tuple[str, ...] = ()
    intermediates: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        inter = {}
        for key, v in self.intermediates.items():
            if isinstance(v, Fraction):
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
    den *= x.denominator
    units, rem = divmod(x.numerator * 10**digits, den)
    if 2 * rem > den or (2 * rem == den and units & 1):
        units += 1
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def ratio(x: Fraction) -> str:
    """x as "num/den", or "num" when x is an integer."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# exact integer / interval primitives


def floor_kth_root(x: int, k: int) -> int:
    """Largest r with r**k <= x, by integer Newton iteration."""
    if x < 0 or k < 1:
        raise DomainError("floor_kth_root needs x >= 0, k >= 1")
    if x < 2 or k == 1:
        return x
    if x.bit_length() <= 1000:  # a float seed, good to about 50 bits
        r = int(x ** (1.0 / k)) + 1
    else:
        r = 1 << ((x.bit_length() + k - 1) // k)
    # one Newton step from any r > 0 lands at or above the root (convexity),
    # and from there the steps decrease to it
    r = ((k - 1) * r + x // r ** (k - 1)) // k
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > x:
        r -= 1
    return r


_SCALE = 10**30
_W_DEN = 57 * _SCALE**2  # 3 * 19 * 10^60: clears the 103/19 and 13/3 of W
_SQRT2 = math.isqrt(2 * _SCALE**2)  # sqrt(2) in [_SQRT2, _SQRT2 + 1] / _SCALE


def _w_num(num: int, den: int) -> tuple[int, int]:
    """Numerators over _W_DEN of the enclosure of W(num/den), num/den >= 0.

    With c1lo = floor(cbrt(sqrt2lo * k)) and c1hi = floor(cbrt(sqrt2hi * k)) + 1
    on the scale 10^30, W lies in
    [3*c1lo^2 - (103/19)*c1hi + 13/3, 3*c1hi^2 - (103/19)*c1lo + 13/3]."""
    c1lo = floor_kth_root(_SQRT2 * num * _SCALE**2 // den, 3)
    c1hi = floor_kth_root((_SQRT2 + 1) * num * _SCALE**2 // den, 3) + 1
    const = 247 * _SCALE**2
    return (171 * c1lo * c1lo - 309 * c1hi * _SCALE + const,
            171 * c1hi * c1hi - 309 * c1lo * _SCALE + const)


def _hw_num(q: int, g: int) -> int:
    """Numerator over _SCALE of the lower end of the enclosure of
    q + 1 + 2*g*sqrt(q); the upper end is 2*g more."""
    return (q + 1) * _SCALE + 2 * g * math.isqrt(q * _SCALE**2)


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


def sv_raw(q: int, n: int, s: int, n1: int, n2: int) -> dict:
    """The degree-s bound and its ingredients as exact rationals, from the
    field size, curve degree and the two root counts alone."""
    N = (s + 2) * (s + 1) // 2 - 3
    delta = 2 * n * (s - 1)
    alpha = 1 + (s - 1) * n - N
    beta = (s - 1) * (n + 1) - N
    gamma = Fraction(2 * (n + 1) - s * (4 * n + 3) - N * (N - 1)) \
        + Fraction((s * (2 * n + 3) - 3) * (N + 3), 3)
    raw = (N - 1) * (n * n - 2 * n) + Fraction(delta * (q + N), N) \
        - 2 * Fraction(n1 * alpha + n2 * beta + n * gamma, N)
    return {"s": s, "N": N, "delta": delta, "alpha": alpha, "beta": beta,
            "gamma": gamma, "n1": n1, "n2": n2, "raw": raw}


def sv_bound(curve: CurveParams, s: int) -> BoundReport:
    """The degree-s linear-series bound, exact rationals, floored once.

    Applicable when the series degree delta = 2n(s-1) is below the
    characteristic, which guarantees Frobenius classicality; otherwise the
    value is still reported but flagged.
    """
    n, q, p = curve.n, curve.q, curve.p
    if not 2 <= s <= n - 1:
        raise InvalidS(f"s = {s} outside [2, {n - 1}]")
    n1 = nth_root_count(curve.ctx, curve.b, n)
    n2 = nth_root_count(curve.ctx, curve.ctx.inv(curve.a), n)
    inter = sv_raw(q, n, s, n1, n2)
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


def _min_f(u, t_hi: int) -> tuple[Fraction, int]:
    """(min, argmin) of f_u over the integers t in [6, t_hi], ties toward the
    smaller t; the numerators over 6*t*u_den are compared by cross-multiplying."""
    u_num, u_den = u.numerator, u.denominator
    best_n, best_t = _f_num(6, u_num, u_den), 6
    for t in range(7, t_hi + 1):
        num = _f_num(t, u_num, u_den)
        if num * best_t < best_n * t:
            best_n, best_t = num, t
    return Fraction(best_n, 6 * best_t * u_den), best_t


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


def vtilde(u) -> Fraction:
    """min of f_u over all integers t >= 6, via the threshold ladder; u is
    compared with k_t as 12*u against 12*k_t."""
    if u < 2:
        raise DomainError("u must be >= 2")
    u_num, u_den = u.numerator, u.denominator
    t = 6
    if 12 * u_num > _k12(6) * u_den:  # u > k_6
        while _k12(t + 1) * u_den <= 12 * u_num:
            t += 1
        t += 1
    return Fraction(_f_num(t, u_num, u_den), 6 * t * u_den)


def v_of_k(k: int, n: int) -> tuple[Fraction, int]:
    """Exact min of f_k over integers t in [6, n+3] with t <= k/2 + 5.

    Ties break toward smaller t.  Returns (value, argmin_t).
    """
    if n < 3:
        raise DomainError("n must be >= 3")
    t_hi = min(n + 3, k // 2 + 5)
    if k < 2 or t_hi < 6:
        raise EmptyFeasibleSet(f"no integer t in [6, {t_hi}]")
    return _min_f(k, t_hi)


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


# ---------------------------------------------------------------------------
# diagnostic for the domination constant


def minimal_domination_constant(t0_max: int = 120) -> dict:
    """Smallest lambda making 3(√2 u)^(2/3) - (103/19)(√2 u)^(1/3) + lambda
    dominate vtilde on the checkpoint family u = k_{t0} and on the integers
    u in [2, k_6).  Reports the sup alongside the two closed-form candidates
    13/3 and (103/19)*sqrt(2) - 10/3, which agree to three decimals."""
    required_lo = required_hi = Fraction(0)
    witness = None
    us = [k_threshold(t0) for t0 in range(6, t0_max + 1)]
    us += [Fraction(u) for u in range(2, 25)]
    for u in us:
        base_lo, base_hi = w_interval(u)
        # strip the constant: lambda must cover vtilde(u) - (W(u) - 13/3)
        need_lo = vtilde(u) - (base_hi - Fraction(13, 3))
        need_hi = vtilde(u) - (base_lo - Fraction(13, 3))
        if need_hi > required_hi:
            required_lo, required_hi, witness = need_lo, need_hi, u
    cand_lo = Fraction(103 * _SQRT2, 19 * _SCALE) - Fraction(10, 3)
    cand_hi = Fraction(103 * (_SQRT2 + 1), 19 * _SCALE) - Fraction(10, 3)
    return {
        "required_lambda_lo": required_lo,
        "required_lambda_hi": required_hi,
        "witness_u": witness,
        "stated_constant": Fraction(13, 3),
        "candidate_sqrt2_form_lo": cand_lo,
        "candidate_sqrt2_form_hi": cand_hi,
        "stated_dominates": required_hi <= Fraction(13, 3),
    }
