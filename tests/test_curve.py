import functools
import gc
import json
import random
import tracemalloc
from array import array

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gfcurves import curve as C
from gfcurves.curve import (
    CountReport,
    count_points,
    count_points_fast,
    make_curve,
    orbit_counts,
    smoothness_scan,
    special_points,
)
from gfcurves.errors import DegenerateParams, DegreeTooSmall, IncompatibleOrder
from gfcurves.ffield import make_field, subgroup_generator
from gfcurves.harness import admissible_degrees, primes_up_to, scan_task
from brute_oracles import equation_value, index_by_arithmetic
from test_ffield import inverse_recurrence, prime_powers


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


# -- the n-th-power questions against enumeration -------------------------------


def _enumerated_tables(p, n):
    """Oracle: the n-th-power data of F_p built by enumerating the field: the
    power list, then the root counts and preimage lists in one pass, and the
    inverse recurrence."""
    power = [pow(x, n, p) for x in range(p)]
    root_count, preimages = [0] * p, [[] for _ in range(p)]
    for x in range(p):
        root_count[power[x]] += 1
        preimages[power[x]].append(x)
    nonzero = [v for v in range(1, p) if root_count[v]]
    return root_count, nonzero, preimages, inverse_recurrence(p)


def _assert_roots_equal_enumeration(ctx, n, preimages):
    """special_points lists the roots of b (the inflections) and of 1/a (the
    branch directions) in canonical order.  Each v != 0 is asked once, on
    the curve (a, b) = (1/w, v) of a pair of neighbours v != w of F_q^*."""
    els = [ctx.from_encoding(e) for e in range(1, ctx.q)]
    for v, w in zip(els[::2], els[1::2] + els[:1]):
        pts = special_points(make_curve(ctx, n, ctx.inv(w), v))
        assert [s.tangent_value for s in pts if s.center == "affine" and s.tangent_axis == "X"] \
            == preimages[v]
        assert [s.tangent_value for s in pts if s.center == "P1"] == preimages[w]


def test_index_tables_equal_enumeration_to_400():
    # the roots, and mu_k of the orbit pass as a set and as the coset of r = 1
    for p in primes_up_to(400):
        for n in admissible_degrees(p):
            ctx, (_, nonzero, preimages, _) = make_field(p), _enumerated_tables(p, n)
            _assert_roots_equal_enumeration(ctx, n, preimages)
            orbits = orbit_counts(ctx, n)
            assert {s for _, s in orbits.coset[1:]} == set(nonzero)
            assert [c for c in range(1, p) if orbits.coset[c][0] == 0] == nonzero


def test_scan_columns_equal_enumeration_to_199():
    # the n1 column of every scan row, and the inverses the scan skips: c = 1/r
    # on the row of r, b = 1/a in the b list of a (p <= 199, the default
    # range of verify prop41; the columns read mu_k, checked to 400 above)
    for p in primes_up_to(199):
        for n in admissible_degrees(p):
            root_count, _, _, inv = _enumerated_tables(p, n)
            orbits = orbit_counts(make_field(p), n)
            rows, _, fields = scan_task(p, n, None)
            for a, s, tails, bs in rows:
                assert list(bs) == [*range(1, inv[a]), *range(inv[a] + 1, p)]
                if s == 1:  # a = r_i: the tails of row i by c
                    hist = orbits.rows[orbits.coset[a][0]]
                    assert [c for c, t in enumerate(tails) if t is None] == [0, inv[a]]
                    assert all(fields[t][1] == n * n * h + 2 * root_count[c]
                               for c, (t, h) in enumerate(zip(tails, hist)) if t)


# the 16 primes of the benchmark's query pool, each at the smallest, the
# middle and the largest divisor n <= 24 of p - 1
POOL_PRIMES = (941, 2833, 4691, 6569, 8443, 10313, 12211, 14071, 15971, 17827,
               19697, 21569, 23473, 25321, 27191, 29077)


@pytest.mark.parametrize("p", POOL_PRIMES)
def test_index_tables_equal_enumeration_on_pool_primes(p):
    # no sweep runs on these primes, so the roots are the n-th-power data
    # left to check there
    degrees = [n for n in admissible_degrees(p) if n <= 24]
    for n in sorted({degrees[0], degrees[len(degrees) // 2], degrees[-1]}):
        _assert_roots_equal_enumeration(make_field(p), n, _enumerated_tables(p, n)[2])


def _enumerated_extension_preimages(ctx, n):
    """Oracle: the preimage lists of x -> x^n on F_{p^m}, keyed by element,
    from x^n by repeated squaring for every x in canonical order."""
    preimages = {x: [] for x in ctx.elements()}
    for x in ctx.elements():
        preimages[ctx.pow(x, n)].append(x)
    return preimages


def test_extension_tables_equal_enumeration_to_400():
    # the sweeps and their inverses run over prime fields only
    fields = [(p, m) for p, m, _ in prime_powers(400) if m > 1]
    assert (2, 8) in fields and (3, 5) in fields and (7, 3) in fields
    for p, m in fields:
        ctx = make_field(p, m)
        for n in range(2, ctx.q):
            if (ctx.q - 1) % n == 0:
                _assert_roots_equal_enumeration(ctx, n, _enumerated_extension_preimages(ctx, n))


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([(p, m) for p, m, _ in prime_powers(400)]))
@example((2, 1))
@example((2, 6))
@example((2, 9))  # p - 1 = 1: the walk is the whole period, with no scaling
@example((3, 4))
@example((5, 3))
@example((31, 2))  # 29 scalings of a 32-long walk
@example((61, 2))
@example((131071, 1))  # 2^17 - 1: logs above 65535 and the -1 entries need signed 32 bits
@example((5, 3, (4, 1, 0, 1)))  # not the canonical modulus (1, 1, 0, 1)
@example((2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1)))  # x^8+x^4+x^3+x^2+1, not the canonical one
def test_index_and_zech_tables_match_field_arithmetic(field):
    # log on every field and zech on every F_{p^m}, m > 1 (the only fields
    # that build one), against the powers of g multiplied out one by one
    ctx = make_field(*field)
    q, (log, zech) = ctx.q, index_by_arithmetic(ctx)
    assert C._index(ctx).tolist() == log
    assert sorted(log) == list(range(-1, q - 1)) and log[0] == -1
    if ctx.m > 1:
        assert C._zech(ctx).tolist() == zech
        # g^i + 1 = 0 only at g^i = -1: i = (q-1)/2 for odd q, i = 0 for even q
        assert [i for i, z in enumerate(zech) if z == -1] == [(q - 1) // 2 if q % 2 else 0]


# the prime fields to 61 and every F_{p^m}, m > 1, with q <= 343
COUNT_FIELDS = ([(p, 1) for p in primes_up_to(61)]
                + [(p, m) for p, m, _ in prime_powers(343) if m > 1])


@st.composite
def field_curves(draw):
    """(p, m, n, a, b) by encodings, with n | q - 1, n >= 2 and a*b != 1."""
    p, m = draw(st.sampled_from([f for f in COUNT_FIELDS if f != (2, 1)]))
    q = p**m
    n = draw(st.sampled_from([d for d in range(2, q) if (q - 1) % d == 0]))
    return p, m, n, draw(st.integers(1, q - 1)), draw(st.integers(1, q - 1))


@settings(max_examples=25, deadline=None, database=None, derandomize=True)
@given(field_curves())
@example((2, 4, 3, 2, 7))
@example((2, 5, 31, 5, 20))
@example((3, 4, 5, 4, 70))
@example((3, 2, 2, 5, 3))
def test_count_points_fast_equals_double_loop(case):
    p, m, n, ea, eb = case
    ctx = make_field(p, m)
    a, b = ctx.from_encoding(ea), ctx.from_encoding(eb)
    assume(ctx.mul(a, b) != ctx.one)
    curve = make_curve(ctx, n, a, b)
    assert count_points_fast(curve) == count_points(curve)


def per_class_cell(ctx, n, a, b):
    """Oracle: the per-class loop that `curve_cell` ran before its bulk count,
    over the Zech windows of two periods, by encodings, on the tables of
    `index_by_arithmetic`."""
    log, zech = index_by_arithmetic(ctx)
    order = ctx.q - 1
    h = order // 2 if ctx.p > 2 else 0
    sa, sb, zech = (log[a] - h) % order, (-log[b] - h) % order, zech * 2
    total = diag = refined = 0
    for lu, w, v in zip(range(0, order, n), zech[sa:sa + order:n], zech[sb:sb + order:n]):
        if w < 0:
            continue
        if v < 0:
            total += 1
        elif (lc := log[b] + v - w) % n == 0:
            total += n
            if (lc - lu) % order == 0:
                diag += 1
            else:
                refined += n
    n1 = n if log[b] % n == 0 else 0  # the x = 0 row has y^n = b
    affine = n1 + n * total
    return C.CurveCell(affine, affine - 2 * n1 - n * diag, diag, n * refined)


def test_curve_cell_equals_per_class_loop_on_extension_fields():
    # every valid (n, a, b) over every F_{p^m}, m > 1, q <= 64; the prime
    # fields are pinned to an inverse-table pass in test_orbits.py
    fields = [(p, m) for p, m, _ in prime_powers(64) if m > 1]
    assert fields == [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]
    for p, m in fields:
        ctx = make_field(p, m)
        q, log = ctx.q, index_by_arithmetic(ctx)[0]
        for n in range(2, q):
            if (q - 1) % n:
                continue
            for a in range(1, q):
                for b in range(1, q):
                    if (log[a] + log[b]) % (q - 1):  # a*b != 1
                        assert C.curve_cell(ctx, n, a, b) == per_class_cell(ctx, n, a, b)


def curve_pairs(ctx, n, count=None):
    """(a, b) by encodings with a*b != 1: every pair when count is None, else
    count seeded pairs over F_p, the i-th with log a = i and log b = i // n
    mod n, so that n^2 pairs meet every pair of residues."""
    q, log = ctx.q, index_by_arithmetic(ctx)[0]
    if count is None:
        return [(a, b) for a in range(1, q) for b in range(1, q) if (log[a] + log[b]) % (q - 1)]
    assert ctx.m == 1
    rng, g, pairs = random.Random(q * n), subgroup_generator(ctx, q - 1), []
    while len(pairs) < count:
        i = len(pairs)
        la, lb = (n * rng.randrange((q - 1) // n) + r for r in (i % n, i // n % n))
        if (la + lb) % (q - 1):
            pairs.append((pow(g, la, q), pow(g, lb, q)))
    return pairs


@pytest.mark.parametrize("p,m,n", [(2, 8, 51), (2, 8, 85), (3, 4, 40), (941, 1, 47),
                                   (12211, 1, 55)])
def test_curve_cell_equals_per_class_loop_past_the_cut(p, m, n):
    # the q <= 64 pin above has n > 32 only at k = 1 (F_49, n = 48 and F_64,
    # n = 63); these reach the k reads of ind[ls - l] at k = 5, 3 and 2, for
    # p = 2 and odd p, every pair, and over F_p at k = 20 and 222, 2,000
    # seeded pairs each
    ctx = make_field(p, m)
    assert n > 32 and (ctx.q - 1) // n >= 2
    for a, b in curve_pairs(ctx, n, None if m > 1 else 2000):
        assert C.curve_cell(ctx, n, a, b) == per_class_cell(ctx, n, a, b)


@pytest.mark.parametrize("p,m,n", [(65537, 1, 2), (65537, 1, 4), (65537, 1, 8), (65537, 1, 16),
                                   (65537, 1, 32), (3, 4, 16), (7, 2, 16)])
def test_curve_cell_equals_per_class_loop_at_n_dividing_32(p, m, n):
    # F_65537 counts on the bit planes of log: max(64, n^2) seeded pairs
    # meet every pair of residues (log a, log b) mod n, so every pattern of
    # the low bits of log a the planes are matched against, with and
    # without n | log b.  F_81 and F_49 read the Zech column, every pair
    ctx = make_field(p, m)
    pairs = curve_pairs(ctx, n, None if m > 1 else max(64, n * n))
    log = index_by_arithmetic(ctx)[0]
    assert len({(log[a] % n, log[b] % n) for a, b in pairs}) == n * n
    for a, b in pairs:
        assert C.curve_cell(ctx, n, a, b) == per_class_cell(ctx, n, a, b)


def orbit_pairs(ctx, n):
    """(a, b) over F_p with a*b != 1: a the least element of each coset of
    mu_k and b every element.  (x, y) -> (t*x, t*y) maps the curve (a, b)
    onto (t^n*a, b/t^n), which keeps log a and log b mod n and 1 - ab, so
    these pairs meet every torus orbit of curves."""
    p, log = ctx.p, index_by_arithmetic(ctx)[0]
    reps = [next(a for a in range(1, p) if log[a] % n == r) for r in range(n)]
    return [(a, b) for a in reps for b in range(1, p) if a * b % p != 1]


def value_order_cases(p_max, n_route):
    """(ctx, n, pairs) over F_p, p <= p_max, for the n with n_route(n):
    every pair for p <= 61, every torus orbit above."""
    for p in primes_up_to(p_max):
        ctx = make_field(p)
        for n in range(2, p):
            if (p - 1) % n == 0 and n_route(n):
                yield ctx, n, curve_pairs(ctx, n) if p <= 61 else orbit_pairs(ctx, n)


def test_bit_plane_route_equals_per_class_loop_to_400():
    # every n | 32 over F_p counts on the bit planes of log (every pair to
    # 400 would be 6.75 million cells, the orbits are 132,000)
    reached = set()
    for ctx, n, pairs in value_order_cases(400, lambda n: 32 % n == 0):
        reached.add((ctx.p, n))
        for a, b in pairs:
            assert C.curve_cell(ctx, n, a, b) == per_class_cell(ctx, n, a, b)
    assert {(3, 2), (17, 16), (97, 32), (257, 32), (397, 4)} <= reached


def test_residue_route_equals_per_class_loop_to_211():
    # n < _WALK_MIN_N not dividing 32 counts on the residues of log mod n
    reached = set()
    for ctx, n, pairs in value_order_cases(211, lambda n: 32 % n and n < C._WALK_MIN_N):
        reached.add((ctx.p, n))
        for a, b in pairs:
            assert C.curve_cell(ctx, n, a, b) == per_class_cell(ctx, n, a, b)
    assert {(7, 3), (7, 6), (11, 5), (29, 7), (199, 9), (211, 7)} <= reached


def test_coset_walk_drops_the_mark_at_log_0():
    # a in mu_k (n | log a) puts v = 1 first in the walk of a*mu_k, whose
    # log(v - 1) is the mark log[0] = -1: at every n the walk serves to 400,
    # the cut at n = 32 and the reads past it included, every such a with
    # every b for p <= 101, and a = 1, the orbit of every such a, above
    reached = set()
    for p in primes_up_to(400):
        ctx = make_field(p)
        log = index_by_arithmetic(ctx)[0]
        for n in admissible_degrees(p):
            if 32 % n and n >= C._WALK_MIN_N:
                reached.add((p, n))
                for a in [a for a in range(1, p) if log[a] % n == 0] if p <= 101 else [1]:
                    for b in range(1, p):
                        if a * b % p != 1:
                            assert C.curve_cell(ctx, n, a, b) == per_class_cell(ctx, n, a, b)
    assert {(61, 10), (97, 48), (397, 198)} <= reached


def test_bit_plane_route_peak_memory():
    # the planes of F_65537 are built from one 4q-byte copy of log and q-byte
    # planes of its low bytes, about 5.4q bytes at the peak of the first
    # cell; later cells hold a few p-bit ints, about 1.1q (the translate
    # route this replaced peaked at about 5.2q on every cell)
    ctx = make_field(65537)
    C._index(ctx)
    C._planes.cache_clear()
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            cell = C.curve_cell(ctx, 2, 3, 5)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert cell == per_class_cell(ctx, 2, 3, 5)
    assert peaks[0] <= 5.5 * ctx.q and peaks[1] <= 1.25 * ctx.q


def test_index_walk_runs_once_per_prime(monkeypatch):
    walks, uncached = [], C._index.__wrapped__

    def walk(ctx):
        walks.append(ctx.q)
        return uncached(ctx)

    monkeypatch.setattr(C, "_index", functools.cache(walk))
    ctx, ext = make_field(2833), make_field(7, 3)
    for field, degrees, b in ((ctx, (2, 12, 24), 3), (ext, (2, 9, 19), ext.element([1, 1]))):
        for n in degrees:  # divisors of q - 1
            curve = make_curve(field, n, 2, b)
            count_points_fast(curve)
            special_points(curve)
            smoothness_scan(curve)
    orbit_counts(ctx, 24)
    assert walks == [2833, 343]  # no table per degree n


def test_cached_index_retains_4_bytes_per_element():
    # log is packed into an array of 4-byte C ints, and an array grows by
    # a sixteenth over what it holds; the list it is built in (a slot and
    # an int object per element, about 48 bytes) or a 64-bit typecode would
    # exceed that; and a collection visits every slot of a list, but of an
    # array only its type.  Over F_p no Zech table is kept
    ctx = make_field(29077)
    subgroup_generator(ctx, ctx.q - 1)  # cached with the field, not the index
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = C._index.__wrapped__(ctx)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(index) == ctx.q
    assert retained <= (4 + 4 / 16) * ctx.q + 256
    assert gc.get_referents(index) == [array]


# -- smoothness -------------------------------------------------------------------


@functools.cache
def _arithmetic(ctx):
    """The elements of F_q in canonical order, and its mul and sub tables by
    encoding."""
    els = [ctx.from_encoding(e) for e in range(ctx.q)]
    return (els, [[ctx.encode(ctx.mul(x, y)) for y in els] for x in els],
            [[ctx.encode(ctx.sub(x, y)) for y in els] for x in els])


def brute_smoothness(ctx, n):
    """Oracle: the per-point gradient route over F_q, by encodings, with no
    index.  For fixed (n, a) every (x, y) lies on exactly one curve, the one
    with b = x^n + y^n - a*x^n*y^n, so one pass over F_q^2 enumerates the
    solution set of every b.  At each point g_X = n*x^(n-1)*(a*y^n - 1) and
    g_Y = n*y^(n-1)*(a*x^n - 1) come from field arithmetic.  Yields, for
    each a != 0, a and the point count and singular-point count of each b."""
    (els, mul, sub), enc = _arithmetic(ctx), ctx.encode
    xn = [enc(ctx.pow(x, n)) for x in els]
    grad = [enc(ctx.mul(ctx.element(n), ctx.pow(x, n - 1))) for x in els]  # n*x^(n-1)
    for ea in range(1, ctx.q):
        lead = [sub[mul[ea][v]][1] for v in xn]  # a*x^n - 1
        count, singular = [0] * ctx.q, [0] * ctx.q
        for x in range(ctx.q):
            X, ax, gx = xn[x], lead[x], grad[x]
            for y in range(ctx.q):
                b = sub[X][mul[xn[y]][ax]]
                count[b] += 1
                if mul[gx][lead[y]] == 0 and mul[grad[y]][ax] == 0:
                    singular[b] += 1
        yield els[ea], count, singular


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


@pytest.mark.parametrize("p,m", [(p, m) for p, m, q in prime_powers(49) if q > 2])
def test_affine_points_equal_brute_force_solution_set(p, m):
    # every valid (a, b) over F_q, q <= 49: smoothness_scan reports as many
    # affine points as the brute solution set holds, and none of them is
    # singular
    ctx = make_field(p, m)
    q = ctx.q
    for n in range(2, q):
        if (q - 1) % n:
            continue
        for a, count, singular in brute_smoothness(ctx, n):
            for eb in range(1, q):
                b = ctx.from_encoding(eb)
                if ctx.mul(a, b) == ctx.one:
                    continue
                curve = make_curve(ctx, n, a, b)
                rep = smoothness_scan(curve)
                assert rep.clean and singular[eb] == 0
                assert rep.points_checked == count[eb] == count_points_fast(curve).affine_total


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
