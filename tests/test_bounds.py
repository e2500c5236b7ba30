import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest

from gfcurves import harness as H
from gfcurves.bounds import (
    f_u,
    fixed,
    floor_kth_root,
    giulietti_bound,
    hasse_weil,
    hw_interval,
    k_threshold,
    lemma34_check,
    minimal_domination_constant,
    np_bound,
    np_bound_value,
    ratio,
    sv_bound,
    v_of_k,
    vtilde,
    w_bound,
    w_interval,
    w_scalar_value,
)
from gfcurves.curve import make_curve
from gfcurves.errors import DomainError, EmptyFeasibleSet, InvalidS
from gfcurves.ffield import make_field


def w_decimal(k, prec=50):
    """Independent oracle for W(k) via the decimal module."""
    getcontext().prec = prec
    x = Decimal(2).sqrt() * Decimal(k)
    c1 = x ** (Decimal(1) / 3)
    return 3 * c1 * c1 - Decimal(103) / 19 * c1 + Decimal(13) / 3


# -- the Fraction route: the interval and minimisation formulas as they were
# written before the bound layer moved onto scaled integers, kept here as a
# second route that the integer kernel must match exactly


_SCALE = 10**30


def _newton_cbrt(x):
    """floor(x^(1/3)) by integer Newton iteration from a power-of-two seed."""
    if x < 2:
        return x
    r = 1 << ((x.bit_length() + 2) // 3)
    while True:
        nr = (2 * r + x // (r * r)) // 3
        if nr >= r:
            break
        r = nr
    while r**3 > x:
        r -= 1
    return r


def _sqrt_interval_fraction(x):
    lo = math.isqrt(x * _SCALE * _SCALE)
    return Fraction(lo, _SCALE), Fraction(lo + 1, _SCALE)


def _cbrt_interval_fraction(r):
    scaled = r * _SCALE**3
    lo = _newton_cbrt(scaled.numerator // scaled.denominator)
    return Fraction(lo, _SCALE), Fraction(lo + 1, _SCALE)


def w_interval_fraction(k):
    k = Fraction(k)
    s2lo, s2hi = _sqrt_interval_fraction(2)
    c1lo, _ = _cbrt_interval_fraction(s2lo * k)
    _, c1hi = _cbrt_interval_fraction(s2hi * k)
    coef, lam = Fraction(103, 19), Fraction(13, 3)
    return (3 * c1lo * c1lo - coef * c1hi + lam,
            3 * c1hi * c1hi - coef * c1lo + lam)


def hw_interval_fraction(q, g):
    slo, shi = _sqrt_interval_fraction(q)
    return q + 1 + 2 * g * slo, q + 1 + 2 * g * shi


def f_u_fraction(t, u):
    t, u = Fraction(t), Fraction(u)
    return Fraction(3 * t * t - 23 * t + 26, 6) + 4 * (u + 3) / t


def k_threshold_fraction(t0):
    return Fraction(t0 * (t0 + 1) * (3 * t0 - 10), 12) - 3


def vtilde_fraction(u):
    u = Fraction(u)
    if u <= k_threshold_fraction(6):
        return f_u_fraction(6, u)
    t0 = 6
    while k_threshold_fraction(t0 + 1) <= u:
        t0 += 1
    return f_u_fraction(t0 + 1, u)


def fixed_fraction(x, digits):
    units = round(Fraction(x) * 10**digits)
    sign = "-" if units < 0 else ""
    whole, frac = divmod(abs(units), 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def _figure1_ks(n_max):
    """Every (p, n) at which figure1 evaluates W((p-1)/n), n in [3, n_max]."""
    top = max(n * k_threshold_fraction(n + 3) for n in range(3, n_max + 1))
    primes = [p for p in range(2, math.floor(top) + 2)
              if all(p % d for d in range(2, math.isqrt(p) + 1))]
    return [(p, n) for n in range(3, n_max + 1) for p in primes
            if n < p - 1 <= n * k_threshold_fraction(n + 3)]


def test_integer_kernel_equals_fraction_route_on_integer_k():
    for k in list(range(2, 2001)) + [Fraction(7, 2), Fraction(100, 3), Fraction(145, 3)]:
        lo, hi = w_interval_fraction(k)
        assert w_interval(k) == (lo, hi)
        assert np_bound_value(k) == math.floor(hi / 2)


def test_integer_kernel_equals_fraction_route_on_figure1_grid():
    cells = list(H.figure1_cells(3, 16))
    assert [(c.p, c.n) for c in cells] == _figure1_ks(16)
    for cell in cells:
        p, n = cell.p, cell.n
        g = (n - 1) ** 2
        w_lo, w_hi = w_interval_fraction(Fraction(p - 1, n))
        hw_lo, hw_hi = hw_interval_fraction(p, g)
        assert w_interval(Fraction(p - 1, n)) == (w_lo, w_hi)
        assert hw_interval(p, g) == (hw_lo, hw_hi)
        lo = hw_lo / (2 * n * n) - w_hi / 2
        hi = hw_hi / (2 * n * n) - w_lo / 2
        assert cell.delta == (lo + hi) / 2
        if (p - 1) % n == 0 and n < p - 1:
            assert w_scalar_value(p, n) == math.floor(n * n * w_hi)


def test_f_u_and_vtilde_equal_fraction_route():
    us = list(range(2, 601)) + [k_threshold_fraction(t) for t in range(6, 40)] \
        + [Fraction(7, 2), Fraction(145, 3) + Fraction(1, 10**9)]
    for u in us:
        for t in range(6, 30):
            assert f_u(t, u) == f_u_fraction(t, u)
        brute = min(f_u_fraction(t, u) for t in range(6, 60))
        assert vtilde(u) == vtilde_fraction(u) == brute


def test_v_of_k_equals_fraction_brute_force_min():
    for n in range(3, 31):
        for k in range(2, 201):
            t_hi = min(n + 3, math.floor(Fraction(k, 2) + 5))
            values = [f_u_fraction(t, k) for t in range(6, t_hi + 1)]
            best = min(values)
            assert v_of_k(k, n) == (best, 6 + values.index(best))


# -- output formatting ----------------------------------------------------------


def test_fixed_rounds_half_even():
    assert fixed(Fraction(1, 8), 2) == "0.12"
    assert fixed(Fraction(3, 8), 2) == "0.38"
    assert fixed(Fraction(-1, 8), 2) == "-0.12"
    assert fixed(Fraction(-1, 1000), 2) == "0.00"
    assert fixed(Fraction(-7, 2), 6) == "-3.500000"
    assert fixed(5, 3) == "5.000"


def test_fixed_integer_numerator_and_denominator():
    # half-even ties at both signs, on the sixth decimal
    assert fixed(-5, 6, 2 * 10**6) == "-0.000002"
    assert fixed(15, 6, 2 * 10**6) == "0.000008"
    assert fixed(-15, 6, 2 * 10**6) == "-0.000008"
    assert fixed(5, 6, 2 * 10**6) == "0.000002"
    assert fixed(-1, 6, 2 * 10**6) == "0.000000"
    # a denominator far above 10^60, on a tie and just off it
    den = 4 * 57 * 10**60 * 30**2
    assert fixed(den + den // (2 * 10**6), 6, den) == "1.000000"
    assert fixed(den + den // (2 * 10**6) + 1, 6, den) == "1.000001"
    assert fixed(-3 * den - den // (2 * 10**6), 6, den) == "-3.000000"
    assert fixed(Fraction(1, 3), 6, 10**70) == "0.000000"
    rnd = random.Random(11)
    for _ in range(5000):
        den = rnd.randrange(1, 10**rnd.randrange(1, 90))
        num = rnd.randrange(-10**95, 10**95) // rnd.randrange(1, 10**rnd.randrange(1, 90))
        digits = rnd.choice((0, 2, 6, 12))
        want = fixed_fraction(Fraction(num, den), digits)
        assert fixed(num, digits, den) == want
        assert fixed(Fraction(num, den), digits) == want


def test_ratio_formats_integers_bare():
    assert ratio(Fraction(370, 3)) == "370/3"
    assert ratio(Fraction(-4, 6)) == "-2/3"
    assert ratio(Fraction(12, 4)) == "3"


# -- integer roots ------------------------------------------------------------


def test_floor_kth_root_exhaustive_small():
    for x in range(0, 2000):
        for k in (2, 3, 5):
            r = floor_kth_root(x, k)
            assert r**k <= x < (r + 1) ** k


def test_floor_kth_root_large():
    for x in (10**60 + 123456789, 7**91, 2**200 - 1):
        r = floor_kth_root(x, 3)
        assert r**3 <= x < (r + 1) ** 3


def test_floor_kth_root_random_both_seeds():
    # up to 1000 bits the Newton iteration starts from a float seed, above
    # that from a power of two; perfect powers and their neighbours included
    rnd = random.Random(7)
    for _ in range(3000):
        k = rnd.choice((2, 3, 5, 7))
        x = rnd.getrandbits(rnd.randrange(1, 1400))
        base = rnd.getrandbits(rnd.randrange(1, 300))
        for y in (x, base**k - 1, base**k, base**k + 1):
            if y >= 0:
                r = floor_kth_root(y, k)
                assert r**k <= y < (r + 1) ** k


# -- hasse_weil ----------------------------------------------------------------


def test_hasse_weil_examples():
    assert math.isqrt(4 * 16 * 13) == 28  # floor(2*4*sqrt(13))
    assert hasse_weil(13, 4).value == 42
    assert hasse_weil(49, 0).value == 50
    assert hasse_weil(25, 1).value == 36


def test_hw_interval_brackets_value():
    for q, g in [(13, 4), (131, 100), (9, 4)]:
        lo, hi = hw_interval(q, g)
        true = q + 1 + 2 * g * math.sqrt(q)
        assert float(lo) <= true <= float(hi) + 1e-12
        assert hi - lo < Fraction(1, 10**20)


# -- sv_bound ------------------------------------------------------------------


def test_sv_bound_worked_example():
    curve = make_curve(make_field(31), 5, 2, 3)
    rep = sv_bound(curve, 2)
    inter = rep.intermediates
    assert (inter["N"], inter["delta"]) == (3, 10)
    assert (inter["alpha"], inter["beta"], inter["gamma"]) == (3, 3, 6)
    assert (inter["n1"], inter["n2"]) == (0, 0)
    assert inter["raw"] == 30 + Fraction(340, 3) - 20
    assert rep.value == 123
    assert rep.applicable  # delta = 10 < 31


def test_sv_bound_s_range():
    curve = make_curve(make_field(31), 5, 2, 3)
    with pytest.raises(InvalidS):
        sv_bound(curve, 5)
    with pytest.raises(InvalidS):
        sv_bound(curve, 1)


def test_sv_bound_classicality_flag():
    curve = make_curve(make_field(11), 5, 10, 7)
    assert sv_bound(curve, 2).applicable  # delta = 10 < 11
    rep = sv_bound(curve, 3)  # delta = 20 >= 11
    assert not rep.applicable
    assert rep.reasons == ("FrobeniusClassicalityUnverified",)


def test_sv_bound_value_reproducible_from_intermediates():
    for (p, n, a, b, s) in [(31, 5, 2, 3, 2), (31, 5, 2, 3, 3), (61, 6, 5, 4, 2),
                            (43, 7, 3, 5, 4)]:
        curve = make_curve(make_field(p), n, a, b)
        rep = sv_bound(curve, s)
        i = rep.intermediates
        raw = (i["N"] - 1) * (n * n - 2 * n) + Fraction(i["delta"] * (p + i["N"]), i["N"]) \
            - 2 * Fraction(i["n1"] * i["alpha"] + i["n2"] * i["beta"] + n * i["gamma"], i["N"])
        assert raw == i["raw"] and math.floor(raw) == rep.value


# -- f_u / k_threshold / lemma ladder ------------------------------------------


def test_f_u_examples():
    assert f_u(6, 25) == 18
    assert f_u(7, 25) == 18  # equality witnesses the ladder at u = k_6
    assert f_u(6, 2) == Fraction(8, 3)
    with pytest.raises(DomainError):
        f_u(5, 25)
    with pytest.raises(DomainError):
        f_u(6, 1)


def test_k_threshold_examples():
    assert k_threshold(6) == 25
    assert k_threshold(7) == Fraction(145, 3)
    # rewriting at n = 3: (n+3)(n+4)(3n-1)/12 - 3 = k_6
    n = 3
    assert Fraction((n + 3) * (n + 4) * (3 * n - 1), 12) - 3 == k_threshold(n + 3)


def test_lemma34_examples():
    assert lemma34_check(25, 6) is True
    assert f_u(6, 26) == Fraction(112, 6)
    assert f_u(7, 26) == Fraction(12, 6) + Fraction(116, 7)
    assert lemma34_check(26, 6) is False
    assert lemma34_check(2, 100) is True


def test_vtilde_piecewise_matches_brute_force_sample():
    for u in list(range(2, 120)) + [500, 1234, 4999]:
        brute = min(f_u(t, u) for t in range(6, 300))
        assert vtilde(u) == brute


def test_v_of_k_examples():
    val, argmin = v_of_k(25, 8)
    assert val == 18 and argmin == 6  # tie with t = 7 broken low
    val, argmin = v_of_k(2, 5)
    assert (val, argmin) == (Fraction(8, 3), 6)  # only t = 6 feasible
    with pytest.raises(EmptyFeasibleSet):
        v_of_k(1, 5)


def test_v_of_k_equals_vtilde_inside_threshold():
    for n in range(3, 51):
        cap = n * k_threshold(n + 3)
        for k in range(2, 501):
            if k > cap / n:
                continue
            assert v_of_k(k, n)[0] == vtilde(k)


# -- the cube-root bound ---------------------------------------------------------


def test_w_interval_tight_and_correct():
    for k in (2, 6, 24, 26, 44, 1000, Fraction(7, 2)):
        lo, hi = w_interval(k)
        assert hi - lo < Fraction(1, 10**20)
        true = w_decimal(Fraction(k).numerator) if Fraction(k).denominator == 1 else None
        if true is not None:
            assert Decimal(lo.numerator) / lo.denominator <= true
            assert true <= Decimal(hi.numerator) / hi.denominator


def test_w_bound_prime_field_example():
    # p = 73, n = 3, k = 24: threshold 3*25 = 75 >= 72; 9*W(24) = 164.072...
    curve = make_curve(make_field(73), 3, 2, 3)
    rep = w_bound(curve)
    assert rep.applicable
    assert rep.value == 164
    assert rep.intermediates["k"] == 24
    assert rep.intermediates["threshold"] == 75


def test_w_bound_applicability():
    assert w_bound(make_curve(make_field(31), 5, 2, 3)).applicable  # 405 >= 30
    rep = w_bound(make_curve(make_field(7), 6, 3, 3))
    assert not rep.applicable and "NotProperDivisor" in rep.reasons
    rep = w_bound(make_curve(make_field(13), 2, 2, 3))
    assert not rep.applicable and "DegreeBelowThree" in rep.reasons
    ctx9 = make_field(3, 2)
    rep = w_bound(make_curve(ctx9, 4, ctx9.element([1, 1]), ctx9.element([0, 1])))
    assert not rep.applicable and "NotPrimeField" in rep.reasons


def test_giulietti_examples():
    assert giulietti_bound(44) == 15
    assert giulietti_bound(2) == 1
    assert giulietti_bound(23) == 8
    with pytest.raises(DomainError):
        giulietti_bound(1)


def test_np_bound_crossover_example():
    assert np_bound_value(44) == 14  # floor(14.979...) beats giulietti's 15
    rep = np_bound(89, 2)  # k = 44, but n = 2 is below the theorem's range
    assert not rep.applicable
    rep = np_bound(79, 3)  # k = 26 exceeds k_6 = 25: threshold fails
    assert not rep.applicable and "ThresholdExceeded" in rep.reasons


def test_np_bound_refinement_window():
    # p = 157, n = 6: k = 26 sits in the window 25 < k < 44
    assert k_threshold(9) == Fraction(9 * 10 * 17, 12) - 3
    rep = np_bound(157, 6)
    assert rep.applicable
    assert vtilde(26) == Fraction(130, 7)
    assert rep.intermediates["refinement"] == 9
    assert rep.value == 9  # floor(W(26)/2) = floor(9.739...)


def test_np_bound_outside_window_has_no_refinement():
    rep = np_bound(31, 5)  # k = 6
    assert rep.applicable and rep.intermediates["refinement"] is None


# -- domination diagnostic --------------------------------------------------------


def test_stated_domination_constant_is_sound_but_not_minimal():
    diag = minimal_domination_constant(t0_max=80)
    assert diag["stated_dominates"]
    assert diag["required_lambda_hi"] <= Fraction(13, 3)
    # the sqrt(2) closed form is about 4.3332, below 13/3 = 4.3333...
    assert diag["candidate_sqrt2_form_hi"] < Fraction(13, 3)
    assert diag["candidate_sqrt2_form_lo"] > Fraction(433, 100)
