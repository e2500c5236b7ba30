import json

import pytest

from gfcurves.curve import (
    CountReport,
    _affine_points,
    class_tables,
    count_points,
    count_points_fast,
    equation_value,
    make_curve,
    smoothness_scan,
    special_points,
)
from gfcurves.errors import DegenerateParams, DegreeTooSmall, IncompatibleOrder
from gfcurves.ffield import make_field


def brute_report(p, n, a, b):
    """Oracle: counts straight from the defining equation, no shared code."""
    affine = off_axes = off_diag = 0
    for x in range(p):
        for y in range(p):
            v = (a * pow(x, n, p) * pow(y, n, p) - pow(x, n, p) - pow(y, n, p) + b) % p
            if v == 0:
                affine += 1
                if x and y:
                    off_axes += 1
                    if x != y:
                        off_diag += 1
    n1 = sum(1 for t in range(p) if pow(t, n, p) == b % p)
    n2 = sum(1 for t in range(p) if (pow(t, n, p) * a - 1) % p == 0)
    return affine, off_axes, off_diag, n1, n2


# -- construction -------------------------------------------------------------


def test_make_curve_valid():
    f13 = make_field(13)
    c = make_curve(f13, 3, 2, 3)
    assert c.g == 4 and c.k == 4


def test_make_curve_rejects_ab_equal_one():
    f13 = make_field(13)
    with pytest.raises(DegenerateParams):
        make_curve(f13, 3, 2, 7)  # 2*7 = 14 = 1 mod 13


def test_make_curve_rejects_zero_params():
    f13 = make_field(13)
    with pytest.raises(DegenerateParams):
        make_curve(f13, 3, 0, 3)
    with pytest.raises(DegenerateParams):
        make_curve(f13, 3, 3, 0)


def test_make_curve_rejects_bad_degree():
    f13 = make_field(13)
    with pytest.raises(IncompatibleOrder):
        make_curve(f13, 5, 2, 3)
    with pytest.raises(DegreeTooSmall):
        make_curve(f13, 1, 2, 3)


# -- counting ------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,n",
    [(7, 2), (7, 3), (11, 5), (13, 2), (13, 3), (13, 4), (31, 5), (31, 6)],
)
def test_counts_match_brute_force(p, n):
    ctx = make_field(p)
    for a in range(1, min(p, 6)):
        for b in range(1, p):
            if a * b % p in (0, 1):
                continue
            curve = make_curve(ctx, n, a, b)
            expected = brute_report(p, n, a, b)
            for rep in (count_points(curve), count_points_fast(curve)):
                got = (rep.affine_total, rep.off_axes, rep.off_axes_off_diag,
                       rep.n1, rep.n2)
                assert got == expected
                assert rep.branches_at_infinity_rational == 2 * rep.n2
                assert rep.model_total == rep.affine_total + 2 * rep.n2


def test_counts_match_on_extension_fields():
    for (p, m, n) in [(3, 2, 2), (3, 2, 4), (5, 2, 3), (5, 2, 4), (3, 3, 2)]:
        ctx = make_field(p, m)
        samples = 0
        for ea in range(1, ctx.q):
            for eb in range(1, ctx.q):
                a, b = ctx.from_encoding(ea), ctx.from_encoding(eb)
                if ctx.mul(a, b) == ctx.one:
                    continue
                curve = make_curve(ctx, n, a, b)
                assert count_points(curve) == count_points_fast(curve)
                samples += 1
                if samples >= 6:
                    break
            if samples >= 6:
                break


def test_branches_at_infinity_examples():
    f11 = make_field(11)
    # 10^-1 = 10 is a fifth power mod 11 (x^5 is 1 or -1), so 5 directions
    assert [x for x in range(11) if pow(x, 5, 11) == 10] == [2, 6, 7, 8, 10]
    rep = count_points_fast(make_curve(f11, 5, 10, 7))
    assert rep.branches_at_infinity_rational == 10
    # 3^-1 = 4 is not a fifth power mod 11
    assert [x for x in range(11) if pow(x, 5, 11) == 4] == []
    rep = count_points_fast(make_curve(f11, 5, 3, 7))
    assert rep.branches_at_infinity_rational == 0


def test_n1_n2_take_values_zero_or_n():
    ctx = make_field(31)
    for n in (2, 3, 5, 6):
        for a in range(1, 8):
            for b in range(1, 31):
                if a * b % 31 in (0, 1):
                    continue
                rep = count_points_fast(make_curve(ctx, n, a, b))
                assert rep.n1 in (0, n) and rep.n2 in (0, n)
                assert rep.off_axes_off_diag <= rep.off_axes <= rep.affine_total


def test_count_report_serializes_flat_json():
    rep = count_points_fast(make_curve(make_field(13), 3, 6, 2))
    data = json.loads(rep.to_json())
    assert list(data) == [
        "affine_total",
        "off_axes",
        "off_axes_off_diag",
        "n1",
        "n2",
        "branches_at_infinity_rational",
        "model_total",
    ]


# -- symmetries ----------------------------------------------------------------


def test_swap_symmetry_of_equation():
    ctx = make_field(13)
    curve = make_curve(ctx, 3, 2, 3)
    for x in range(13):
        for y in range(13):
            assert equation_value(curve, x, y) == equation_value(curve, y, x)


def test_parameter_swap_preserves_off_axes():
    # (x, y) -> (1/x, 1/y) matches off-axes points of (a,b) with those of (b,a)
    ctx = make_field(31)
    for n in (2, 3, 5):
        for a in range(1, 10):
            for b in range(1, 31):
                if a * b % 31 in (0, 1):
                    continue
                r1 = count_points_fast(make_curve(ctx, n, a, b))
                r2 = count_points_fast(make_curve(ctx, n, b, a))
                assert r1.off_axes == r2.off_axes
                assert r1.off_axes_off_diag == r2.off_axes_off_diag


# -- special points --------------------------------------------------------------


def test_special_points_inflections_example():
    f11 = make_field(11)
    curve = make_curve(f11, 5, 10, 1)
    pts = special_points(curve)
    xs = sorted(sp.point[0] for sp in pts
                if sp.kind == "inflection" and sp.tangent_axis == "X")
    assert xs == [1, 3, 4, 5, 9]  # the fifth roots of 1 mod 11
    for sp in pts:
        if sp.kind == "inflection":
            assert equation_value(curve, *sp.point) == 0


def test_special_points_counts():
    for (p, n, a, b) in [(13, 3, 2, 2), (13, 3, 6, 2), (11, 5, 10, 7), (31, 5, 2, 3)]:
        curve = make_curve(make_field(p), n, a, b)
        rep = count_points_fast(curve)
        pts = special_points(curve)
        assert sum(1 for s in pts if s.kind == "inflection") == 2 * rep.n1
        assert sum(1 for s in pts if s.kind == "infinite-branch") == 2 * rep.n2


def test_no_rational_inflections_when_b_not_power():
    curve = make_curve(make_field(13), 3, 2, 2)  # 2 is not a cube mod 13
    assert [s for s in special_points(curve) if s.kind == "inflection"] == []


def test_no_rational_inflections_when_b_not_power_extension_field():
    ctx = make_field(5, 2)
    a, b = ctx.element([2, 1]), ctx.element([1, 1])  # 1 + T is not a cube in F_25
    assert [x for x in ctx.elements() if ctx.pow(x, 3) == b] == []
    curve = make_curve(ctx, 3, a, b)
    pts = special_points(curve)
    assert [s for s in pts if s.kind == "inflection"] == []
    directions = [c for c in ctx.elements() if ctx.mul(a, ctx.pow(c, 3)) == ctx.one]
    assert sorted(s.tangent_value for s in pts) == sorted(directions * 2)


# -- the class walk ------------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(7, 1), (13, 1), (3, 2), (5, 2), (3, 3)])
def test_affine_points_equal_brute_force_solution_set(p, m):
    # every (a, b) over the prime fields; over F_{p^m} every b against the
    # first three a, so the exhaustive check stays cheap.  The oracle solves
    # y^n * (a*x^n - 1) = x^n - b point by point, with no class tables.
    ctx = make_field(p, m)
    els = list(ctx.elements())
    nonzero = els[1:]
    for n in range(2, ctx.q):
        if (ctx.q - 1) % n:
            continue
        t = class_tables(ctx, n)
        xn = [(x, ctx.pow(x, n)) for x in els]
        for a in nonzero if m == 1 else nonzero[:3]:
            lead = [(x, ctx.sub(ctx.mul(a, v), ctx.one), v) for x, v in xn]
            for b in nonzero:
                if ctx.mul(a, b) == ctx.one:
                    continue
                rows = [(x, ax, ctx.sub(v, b)) for x, ax, v in lead]
                brute = {(x, y) for x, ax, bx in rows for y, w in xn
                         if ctx.mul(ax, w) == bx}
                points = list(_affine_points(make_curve(ctx, n, a, b), t))
                assert len(points) == len(set(points))
                assert set(points) == brute


# -- smoothness -------------------------------------------------------------------


@pytest.mark.parametrize("p,n,a,b", [(13, 3, 2, 3), (11, 5, 10, 7), (31, 6, 4, 9)])
def test_smoothness_scan_clean(p, n, a, b):
    curve = make_curve(make_field(p), n, a, b)
    rep = smoothness_scan(curve)
    assert rep.clean
    assert rep.points_checked == count_points_fast(curve).affine_total


def test_smoothness_scan_extension_field():
    ctx = make_field(5, 2)
    curve = make_curve(ctx, 3, ctx.element([2, 1]), ctx.element([1, 3]))
    rep = smoothness_scan(curve)
    assert rep.clean
    assert rep.points_checked == count_points_fast(curve).affine_total


def test_model_total_respects_hasse_weil_on_extension_fields():
    import math

    for (p, m, n) in [(3, 2, 2), (3, 2, 4), (5, 2, 3), (5, 2, 6), (3, 4, 5)]:
        ctx = make_field(p, m)
        q, g = ctx.q, (n - 1) ** 2
        hw = q + 1 + math.isqrt(4 * g * g * q)
        count = 0
        for ea in range(1, ctx.q):
            for eb in range(1, ctx.q):
                a, b = ctx.from_encoding(ea), ctx.from_encoding(eb)
                if ctx.mul(a, b) == ctx.one:
                    continue
                rep = count_points_fast(make_curve(ctx, n, a, b))
                assert rep.model_total <= hw
                count += 1
                if count >= 25:
                    break
            if count >= 25:
                break
