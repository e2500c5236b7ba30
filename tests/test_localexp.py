import contextlib
import hashlib
import io
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcurves import cli, localexp
from gfcurves.curve import SpecialPoint, make_curve, special_points
from gfcurves.harness import _class_representatives, primes_up_to
from gfcurves.errors import (
    InvalidS,
    NotAnInflection,
    NotATangentDirection,
    PrecisionTooLow,
    SmallCharacteristic,
)
from gfcurves.ffield import FieldCtx, is_prime, make_field, nth_root_count
from gfcurves.localexp import (
    TruncatedSeries,
    branch_contact_order,
    branch_order_sum,
    branch_orders,
    branch_top_order,
    expand_at_inflection,
    expand_branch_at_infinity,
    inflection_contact_order,
    inflection_order_sum,
    inflection_orders,
    inflection_top_order,
    order_sequence,
    tangent_line_branch_intersections,
)
from brute_oracles import branch_residual, inflection_residual, nonzero_elements, nth_roots
from splitting_oracle import (
    binomial_rows,
    block_pivots,
    embedding,
    full_matrix_pivots,
    newton_lift,
    site,
)


# -- series ring ---------------------------------------------------------------


def test_series_mul_truncation_rules():
    ctx = make_field(13)
    a = TruncatedSeries(ctx, 0, [1, 2, 3])        # prec 3
    b = TruncatedSeries(ctx, 1, [4, 5])           # valuation 1, prec 3
    prod = a * b
    assert prod.offset == 1
    assert prod.prec == 3  # min(pa + vb, pb + va) = min(3+1, 3+0)
    # (1 + 2t + 3t^2) * (4t + 5t^2) = 4t + 13t^2 + O(t^3) = 4t mod 13
    assert prod.coefficient(1) == 4
    assert prod.coefficient(2) == 0
    with pytest.raises(PrecisionTooLow):
        prod.coefficient(3)


def test_series_normalizes_leading_zeros():
    ctx = make_field(13)
    s = TruncatedSeries(ctx, 0, [0, 0, 5, 1])
    assert s.offset == 2 and s.coeffs == [5, 1] and s.prec == 4
    z = TruncatedSeries(ctx, 0, [0, 0, 0])
    assert z.is_zero() and z.valuation() is None and z.prec == 3


def test_series_coefficient_precision_guard():
    ctx = make_field(13)
    s = TruncatedSeries(ctx, 0, [1, 2])
    with pytest.raises(PrecisionTooLow):
        s.coefficient(2)
    assert s.shift(3).coefficient(1) == 0  # below the valuation: known zero


# -- expansions -----------------------------------------------------------------


CASES = [(13, 3, 2, 1), (13, 3, 6, 2), (11, 5, 10, 7), (31, 5, 2, 3), (29, 7, 3, 4)]


@pytest.mark.parametrize("p,n,a,b", CASES)
def test_inflection_expansion_residual_and_contact(p, n, a, b):
    curve = make_curve(make_field(p), n, a, b)
    roots = nth_roots(curve.ctx, curve.b, n)
    if roots:
        xi = roots[0]
        s = expand_at_inflection(curve, xi, L=n + 4)
        assert inflection_residual(curve, s).is_zero()
        diff = s - TruncatedSeries.constant(curve.ctx, xi, s.prec)
        assert diff.valuation() == n
    # no site given: read off the base-field series, rational root or not
    assert inflection_contact_order(curve) == n


@pytest.mark.parametrize("p,n,a,b", CASES)
def test_branch_expansion_residual_and_contact(p, n, a, b):
    curve = make_curve(make_field(p), n, a, b)
    roots = nth_roots(curve.ctx, curve.ctx.inv(curve.a), n)
    if roots:
        c = roots[0]
        s = expand_branch_at_infinity(curve, c, L=n + 4)
        assert branch_residual(curve, s).is_zero()
        diff = s - TruncatedSeries.constant(curve.ctx, c, s.prec)
        assert diff.valuation() == n
        assert diff.shift(1).valuation() == n + 1
    assert branch_contact_order(curve) == n + 1


@st.composite
def canonical_sites(draw):
    """(curve, kind, L): p prime with a degree 3 <= n <= 8 dividing p - 1,
    a*b outside {0, 1}, and a precision L >= n + 2."""
    p = draw(st.sampled_from([p for p in range(7, 400) if is_prime(p)
                              and any((p - 1) % n == 0 for n in range(3, 9))]))
    n = draw(st.sampled_from([n for n in range(3, 9) if (p - 1) % n == 0 and n <= p - 2]))
    a = draw(st.integers(1, p - 1))
    b = draw(st.integers(1, p - 1).filter(lambda b: a * b % p != 1))
    kind = draw(st.sampled_from(["inflection", "infinite-branch"]))
    return make_curve(make_field(p), n, a, b), kind, draw(st.integers(n + 2, 3 * n))


@settings(max_examples=150, deadline=None, database=None)
@given(canonical_sites())
def test_expansion_residual_vanishes_at_canonical_site(case):
    # the canonical site may be a splitting extension F_{p^d}, d | n
    curve, kind, L = case
    work, root = site(curve, kind)
    assert work.ctx.pow(root, curve.n) == (work.b if kind == "inflection"
                                           else work.ctx.inv(work.a))
    if kind == "inflection":
        series = expand_at_inflection(work, root, L=L)
        residual, contact = inflection_residual(work, series), 0
    else:
        series = expand_branch_at_infinity(work, root, L=L)
        residual, contact = branch_residual(work, series), 1
    assert series.prec == L and residual.is_zero() and residual.prec == L
    gap = series - TruncatedSeries.constant(work.ctx, root, L)
    assert gap.shift(contact).valuation() == curve.n + contact
    # the base-field contact order, with or without the root, matches the series
    order = inflection_contact_order if kind == "inflection" else branch_contact_order
    assert order(curve) == order(work, root) == gap.shift(contact).valuation()


@pytest.mark.parametrize("p,m", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_expansions_in_small_characteristic(p, m):
    # every degree n | q - 1, at L = 2np + 3 > n(p - 1): the series divides
    # by no k, so it holds where k reaches p; checked on the curve equation
    ctx = make_field(p, m)
    firsts = list(nonzero_elements(ctx))[:3]
    checked = 0
    for n in (n for n in range(2, ctx.q) if (ctx.q - 1) % n == 0):
        L = 2 * n * p + 3
        for a in firsts:
            for b in firsts:
                if ctx.mul(a, b) == ctx.one:
                    continue
                curve = make_curve(ctx, n, a, b)
                for roots, expand, residual in (
                        (nth_roots(ctx, b, n), expand_at_inflection, inflection_residual),
                        (nth_roots(ctx, ctx.inv(a), n), expand_branch_at_infinity,
                         branch_residual)):
                    if roots:
                        series = expand(curve, roots[0], L=L)
                        assert series.prec == L and residual(curve, series).is_zero()
                        checked += 1
    assert checked > 0


@pytest.mark.parametrize("p,n,a,b", CASES)
def test_tangent_line_meets_branches_with_total_2n(p, n, a, b):
    curve = make_curve(make_field(p), n, a, b)
    mults = tangent_line_branch_intersections(curve)
    assert mults == [1] * (n - 1) + [n + 1]
    assert sum(mults) == 2 * n
    # when every direction is rational, check every tangent line
    roots = nth_roots(curve.ctx, curve.ctx.inv(curve.a), n)
    for c in roots:
        mults = tangent_line_branch_intersections(curve, c)
        assert sum(mults) == 2 * n


def test_expansion_stability_under_higher_precision():
    curve = make_curve(make_field(13), 3, 2, 1)
    lo = expand_at_inflection(curve, 1, L=8)
    hi = expand_at_inflection(curve, 1, L=11)
    assert [hi.coefficient(e) for e in range(8)] == \
           [lo.coefficient(e) for e in range(8)]


def test_expansion_guards():
    curve = make_curve(make_field(13), 3, 2, 1)
    with pytest.raises(NotAnInflection):
        expand_at_inflection(curve, 2)  # 2^3 = 8 != 1
    with pytest.raises(NotATangentDirection):
        expand_branch_at_infinity(curve, 1)  # 1 != 2^-1
    with pytest.raises(PrecisionTooLow):
        expand_at_inflection(curve, 1, L=3)


# -- order sequences ---------------------------------------------------------------


def test_order_sequence_formulas_small_cases():
    assert inflection_orders(5, 2) == (0, 1, 5, 6)
    assert branch_orders(5, 2) == (0, 1, 5, 6)
    assert inflection_orders(5, 3) == (0, 1, 2, 5, 6, 7, 10, 11)
    assert len(inflection_orders(5, 3)) == 8  # N + 1 with N = C(5,2) - 3 = 7


def test_order_sequence_pivots_match_formula_f31():
    curve = make_curve(make_field(31), 5, 2, 3)
    seq = order_sequence(curve, "inflection", 2)
    assert seq.orders == (0, 1, 5, 6)
    seq = order_sequence(curve, "infinite-branch", 2)
    assert seq.orders == (0, 1, 5, 6)
    seq = order_sequence(curve, "inflection", 3)
    assert seq.orders == (0, 1, 2, 5, 6, 7, 10, 11)


@pytest.mark.parametrize("p,n,a,b", [(31, 5, 2, 3), (13, 3, 2, 1), (29, 7, 3, 4),
                                     (43, 6, 2, 5)])
def test_order_sequence_pivots_match_formula_grid(p, n, a, b):
    curve = make_curve(make_field(p), n, a, b)
    for s in range(2, n):
        if p <= s * (n + 1):
            continue
        infl = order_sequence(curve, "inflection", s)
        assert infl.orders == inflection_orders(n, s)
        br = order_sequence(curve, "infinite-branch", s)
        assert br.orders == branch_orders(n, s)
        # closed forms for the top order and the order sum
        assert infl.orders[-1] == inflection_top_order(n, s)
        assert br.orders[-1] == branch_top_order(n, s)
        assert sum(infl.orders) == inflection_order_sum(n, s)
        assert sum(br.orders) == branch_order_sum(n, s)
        assert infl.orders[:2] == (0, 1) and br.orders[:2] == (0, 1)


def test_order_sequence_accepts_special_point_handles():
    curve = make_curve(make_field(31), 5, 2, 1)  # b = 1: rational inflections
    pts = special_points(curve)
    infl = [sp for sp in pts if sp.kind == "inflection"]
    assert infl
    for sp in infl[:2]:
        assert order_sequence(curve, sp, 2).orders == inflection_orders(5, 2)


def test_order_sequence_symmetric_between_axes_and_centers():
    ctx = make_field(31)
    curve = make_curve(ctx, 5, 9, 1)  # 9 = 3^-1... any valid params
    pts = special_points(curve)
    by_kind = {}
    for sp in pts:
        seq = order_sequence(curve, sp, 3)
        by_kind.setdefault(sp.kind, set()).add(seq.orders)
    for kind, seqs in by_kind.items():
        assert len(seqs) == 1  # every site of one kind gives one sequence


def test_order_sequence_memory_does_not_grow_with_n():
    # the branch equation is four coefficients: one dense list of its n + 1
    # terms would take 80 MB at n = 10^7
    n = 10**7
    curve = make_curve(make_field(3 * n + 1), n, 2, 3)
    tracemalloc.start()
    try:
        seqs = [order_sequence(curve, kind, 2).orders
                for kind in ("inflection", "infinite-branch")]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seqs == [(0, 1, n, n + 1), (0, 1, n, n + 1)]
    assert peak < 1 << 20


def test_order_sequence_guards():
    curve = make_curve(make_field(31), 5, 2, 3)
    with pytest.raises(InvalidS):
        order_sequence(curve, "inflection", 5)
    with pytest.raises(InvalidS):
        order_sequence(curve, "inflection", 1)
    small = make_curve(make_field(7), 3, 2, 3)
    with pytest.raises(SmallCharacteristic):
        order_sequence(small, "inflection", 2)  # 7 <= 2*4
    # a handle whose tangent value is no root is refused by the shared series
    with pytest.raises(NotAnInflection):
        order_sequence(curve, SpecialPoint("inflection", "affine", (1, 0), "X", 1), 2)
    with pytest.raises(NotATangentDirection):
        order_sequence(curve, SpecialPoint("infinite-branch", "P1", None, "Y", 1), 2)


# -- the binomial coefficients of the branch series ----------------------------------


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_lucas_binomials_equal_exact_binomials(p):
    # binom(i/n, k) as an exact fraction, reduced mod p; k runs past p, where
    # the falling factorial over k! has p in its denominator
    for n in [n for n in range(1, 12) if n % p][:5]:
        for i in range(-6, 7):
            r, exact, c = Fraction(i, n), [], Fraction(1)
            for k in range(60):
                exact.append(c.numerator * pow(c.denominator, -1, p) % p)
                c = c * (r - k) / (k + 1)
            assert localexp._binomials(p, i, n, 60) == exact


# -- the binomial series against the Newton lift on the splitting field ------------


@st.composite
def binomial_cases(draw):
    """(curve, kind, L): p < 60 prime with a degree 3 <= n <= 8 dividing
    p - 1, b and 1/a often non-n-th powers (an extension site), and
    n + 2 <= L <= 3np, past n(p - 1), where a falling factorial over k! would
    divide by p."""
    n = draw(st.integers(3, 8))
    p = draw(st.sampled_from([p for p in range(5, 60) if is_prime(p) and (p - 1) % n == 0]))
    a = draw(st.integers(1, p - 1))
    b = draw(st.integers(1, p - 1).filter(lambda b: a * b % p != 1))
    kind = draw(st.sampled_from(["inflection", "infinite-branch"]))
    L = draw(st.integers(n + 2, 3 * n * p))
    return make_curve(make_field(p), n, a, b), kind, L


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(binomial_cases())
def test_binomial_series_equals_newton_lift_at_splitting_site(case):
    # U = root * G(t^n)^(1/n): the base-field binomial series, carried to the
    # site and scaled by its root, is the Newton lift there, coefficient by
    # coefficient; the package's rows take s -> A0*B0*s, so their coefficient
    # m carries (A0*B0)^m.  The draw is fixed, so the test's time is too
    curve, kind, L = case
    n, p = curve.n, curve.p
    work, root = site(curve, kind)
    ctx = work.ctx
    lift = newton_lift(work, kind, root, L)
    a0, _, b0, _ = localexp._coefficients(curve, kind)
    u = pow(a0 * b0, -1, p)
    for series, scale in ((binomial_rows(curve, kind, -(-L // n), 1)[1], 1),
                          (localexp._branch_series(curve, kind, None, -(-L // n)), u)):
        expected = [ctx.zero] * L
        for m, f in enumerate(series):
            expected[n * m] = ctx.mul(root, ctx.element(f * pow(scale, m, p)))
        assert lift == expected


def test_block_pivots_equal_full_matrix_pivots_on_verify_orders_cases():
    # every (p, n, s, curve, kind) case of `verify orders`: the closed form
    # that `order_sequence` returns on its certificate is the pivots of the
    # dense matrix of the lift on the splitting field, and those of the
    # per-block elimination of the binomial rows at L and at 2L
    cases = 0
    for p in primes_up_to(100):
        for n in (3, 4, 5, 6, 7):
            if (p - 1) % n or n >= p - 1:
                continue
            for a, b in _class_representatives(p, n, 2):
                curve = make_curve(make_field(p), n, a, b)
                for s in range(2, n):
                    if p <= s * (n + 1):
                        continue
                    L = s * (n + 1) + 2
                    for kind in ("inflection", "infinite-branch"):
                        cases += 1
                        orders = order_sequence(curve, kind, s).orders
                        assert orders == tuple(full_matrix_pivots(curve, kind, s, L))
                        for L2 in (L, 2 * L):
                            assert orders == tuple(block_pivots(curve, kind, s, L2))
    assert cases == 672


def _no_root_curve(p, n):
    """The first curve over F_{p^2}, with a and then b first in encoding
    order among the non-constants, on which neither b nor 1/a has a root of
    T^n - c in F_{p^2} and both have one in F_{p^4}."""
    ctx = make_field(p, 2)

    def splits_at_degree_2(c):
        return not nth_root_count(ctx, c, n) and ctx.pow(c, (ctx.q**2 - 1) // n) == ctx.one

    pool = [ctx.from_encoding(e) for e in range(p, ctx.q)]
    a = next(a for a in pool if splits_at_degree_2(ctx.inv(a)))
    b = next(b for b in pool if ctx.mul(a, b) != ctx.one and splits_at_degree_2(b))
    return make_curve(ctx, n, a, b)


def test_extension_base_field_without_a_root_equals_the_embedded_lift():
    # F_{p^2} with no root of T^n - c: the splitting field is K = F_{p^4},
    # q^2 <= 279,841, holding F_{p^2} by iota.  The base-field orders are the
    # pivots of the dense matrix of the Newton lift over K and of the
    # per-block elimination at L and 2L, and the base-field series F_1, its
    # coefficient m divided by (A0*B0)^m, mapped through iota and scaled by
    # the root, is that lift
    cases = 0
    for p, n in [(13, 4), (19, 4), (19, 6), (19, 8), (23, 4), (23, 8)]:
        curve = _no_root_curve(p, n)
        F = curve.ctx
        for kind in ("inflection", "infinite-branch"):
            work, root = site(curve, kind)
            iota, K = embedding(F, work.ctx), work.ctx
            assert K.q == F.q ** 2
            a0, _, b0, _ = localexp._coefficients(curve, kind)
            u = F.inv(F.mul(a0, b0))
            for s in range(2, n):
                if p <= s * (n + 1):
                    continue
                L = s * (n + 1) + 2
                orders = order_sequence(curve, kind, s).orders
                assert orders == tuple(full_matrix_pivots(curve, kind, s, L))
                for L2 in (L, 2 * L):
                    assert orders == tuple(block_pivots(curve, kind, s, L2))
                expected = [K.zero] * L
                for m, f in enumerate(localexp._branch_series(curve, kind, None, -(-L // n))):
                    expected[n * m] = K.mul(root, iota(F.mul(f, F.pow(u, m))))
                assert newton_lift(work, kind, root, L) == expected
                cases += 1
    assert cases == 16


def test_order_sequence_rests_on_its_certificate(monkeypatch):
    # the closed form is returned only on f_1 != 0: a series forged to
    # F_1 = 1 + 0*s + s^2 is refused at both kinds, and `orders` exits 2
    # with nothing on stdout
    curve = make_curve(make_field(31), 5, 2, 3)
    ctx = curve.ctx
    monkeypatch.setattr(localexp, "_branch_series", lambda curve, kind, root, count:
                        [ctx.one, ctx.zero] + [ctx.one] * (count - 2))
    for kind in ("inflection", "infinite-branch"):
        with pytest.raises(PrecisionTooLow):
            order_sequence(curve, kind, 2)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["orders", "--p", "31", "--n", "5", "--a", "2", "--b", "3",
                             "--s", "2", "--point", kind]) == 2
        assert out.getvalue() == ""
        assert "Traceback" not in err.getvalue()


def test_orders_over_an_extension_field_ask_no_inverse(monkeypatch):
    # the bytes of `orders` over F_{11^2}, at both special points, as computed
    # with the inverses of the per-block route, now without one
    def refuse(self, a):
        raise AssertionError("orders asked for an inverse")

    monkeypatch.setattr(FieldCtx, "inv", refuse)
    for point in ("inflection", "infinite-branch"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(["orders", "--p", "11", "--m", "2", "--n", "3", "--a", "1,1",
                             "--b", "2,1", "--s", "2", "--point", point]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() \
            == "b2c87a8e8df89f1aae3a452739c6c9056c5115fb52aea8edc915046ae97bdb0e"
