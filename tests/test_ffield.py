import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfcurves import ffield
from gfcurves.curve import _index
from gfcurves.errors import (
    CompositeCharacteristic,
    IncompatibleOrder,
    ReducibleModulus,
    ZeroInput,
)
from gfcurves.ffield import (
    FieldCtx,
    make_field,
    min_splitting_degree,
    nth_root_count,
    nth_root_count_brute,
    nth_root_extension,
    nth_roots,
    subgroup_generator,
)


def inverse_recurrence(p):
    """inv[x] = x^-1 mod p for x in [1, p), inv[0] = 0, in O(p), from
    p = (p // x) * x + p % x."""
    inv = [0] * p
    if p > 1:
        inv[1] = 1
    for x in range(2, p):
        inv[x] = (p - p // x) * inv[p % x] % p
    return inv


def brute_has_root(coeffs, p):
    """Oracle: does the polynomial (little-endian coeffs) vanish on F_p?"""
    return any(
        sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p == 0
        for x in range(p)
    )


def prime_powers(limit):
    out = []
    for p in range(2, limit + 1):
        if not ffield.is_prime(p):
            continue
        q = p
        m = 1
        while q <= limit:
            out.append((p, m, q))
            q *= p
            m += 1
    return out


# -- construction -----------------------------------------------------------


def test_make_prime_field():
    f13 = make_field(13)
    assert (f13.p, f13.m, f13.q) == (13, 1, 13)
    assert f13.element(20) == 7


def test_make_extension_field_with_given_modulus():
    # T^2 + 1 has no root mod 3 (degree 2, so rootless means irreducible)
    assert not brute_has_root([1, 0, 1], 3)
    f9 = make_field(3, 2, modulus=[1, 0, 1])
    assert f9.q == 9
    assert f9.modulus == (1, 0, 1)


def test_composite_characteristic_rejected():
    with pytest.raises(CompositeCharacteristic):
        make_field(4)


def test_reducible_modulus_rejected():
    # T^2 + 1 = (T+1)^2 mod 2
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, modulus=[1, 0, 1])


def test_canonical_modulus_is_smallest_irreducible():
    # mod 3: encoding 0 gives T^2 (reducible), encoding 1 gives T^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)
    # mod 2: T^2, T^2+1=(T+1)^2, T^2+T=T(T+1) all reducible; T^2+T+1 is next
    assert make_field(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize("p,m", [(2, 3), (3, 3), (5, 2), (7, 2), (11, 2), (3, 4)])
def test_canonical_modulus_is_irreducible_by_brute_force(p, m):
    ctx = make_field(p, m)
    mod = list(ctx.modulus)
    if m <= 3:
        # degree <= 3: irreducible iff rootless
        assert not brute_has_root(mod, p)
    # and no smaller monic candidate is irreducible
    enc = sum(c * p**i for i, c in enumerate(mod[:m]))
    for smaller in range(enc):
        lower, e = [], smaller
        for _ in range(m):
            lower.append(e % p)
            e //= p
        assert not ffield.poly_is_irreducible(lower + [1], p)


# -- field axioms ------------------------------------------------------------


@pytest.mark.parametrize("p,m", [(13, 1), (3, 2), (2, 3), (5, 2)])
def test_field_axioms_exhaustive(p, m):
    ctx = make_field(p, m)
    els = list(ctx.elements())
    one, zero = ctx.one, ctx.zero
    for a in els:
        assert ctx.add(a, zero) == a
        assert ctx.mul(a, one) == a
        assert ctx.add(a, ctx.neg(a)) == zero
        if a != zero:
            assert ctx.mul(a, ctx.inv(a)) == one
            assert ctx.pow(a, ctx.q - 1) == one
    for a in els[:8]:
        for b in els[:8]:
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in els[:8]:
                left = ctx.mul(a, ctx.add(b, c))
                right = ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                assert left == right


@st.composite
def extension_elements(draw):
    """A random F_{p^m}, q < 2*10^6, with three random elements of it and an
    exponent."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 31, 101, 1009]))
    m = draw(st.integers(1, max(m for m in range(1, 21) if p**m < 2 * 10**6)))
    ctx = make_field(p, m)
    a, b, c = (ctx.from_encoding(draw(st.integers(0, ctx.q - 1))) for _ in range(3))
    return ctx, a, b, c, draw(st.integers(0, 40))


@settings(max_examples=150, deadline=None, database=None)
@given(extension_elements())
def test_field_axioms_random_extension_fields(case):
    ctx, a, b, c, e = case
    add, mul = ctx.add, ctx.mul
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
    assert mul(a, b) == mul(b, a) and add(a, ctx.neg(a)) == ctx.zero
    power = ctx.one
    for _ in range(e):
        power = mul(power, a)
    assert ctx.pow(a, e) == power
    assert ctx.pow(a, ctx.q) == a  # Lagrange, and Frobenius over F_p
    if a != ctx.zero:
        assert mul(a, ctx.inv(a)) == ctx.one
        assert ctx.inv(ctx.inv(a)) == a
        assert ctx.pow(a, -e) == ctx.inv(power)
        assert ctx.div(mul(b, a), a) == b


def test_inverse_fermat_vs_euclid_agree():
    # m > 1 uses extended Euclid; compare against Fermat exponentiation
    for (p, m) in [(3, 2), (5, 2), (2, 4), (7, 2)]:
        ctx = make_field(p, m)
        for a in ctx.nonzero_elements():
            assert ctx.inv(a) == ctx.pow(a, ctx.q - 2)
    # m = 1 uses Fermat; compare against the batch Euclid-style recurrence
    # and against the inverse list of the discrete-log index table
    for p in (13, 31):
        ctx = make_field(p)
        table, index_inv = inverse_recurrence(p), _index(ctx)[2]
        assert index_inv[0] == 0
        for a in range(1, p):
            assert ctx.inv(a) == table[a] == index_inv[a]


def test_element_encoding_roundtrip():
    ctx = make_field(3, 3)
    for e in range(ctx.q):
        assert ctx.encode(ctx.from_encoding(e)) == e


def test_element_rendering():
    f13 = make_field(13)
    assert f13.format_element(7) == "7"
    f9 = make_field(3, 2)
    a = f9.element([2, 1])
    assert f9.format_element(a) == "2,1"
    assert f9.parse_element("2,1") == a


# -- nth_root_count ----------------------------------------------------------


def test_nth_root_count_examples():
    f13 = make_field(13)
    # oracle: exhaustive cube loop over F_13
    cubes_of_1 = [x for x in range(13) if pow(x, 3, 13) == 1]
    assert cubes_of_1 == [1, 3, 9]
    assert nth_root_count(f13, 1, 3) == 3
    assert [x for x in range(13) if pow(x, 3, 13) == 2] == []
    assert nth_root_count(f13, 2, 3) == 0

    f11 = make_field(11)
    fifth_roots_of_10 = [x for x in range(11) if pow(x, 5, 11) == 10]
    assert len(fifth_roots_of_10) == 5
    assert nth_root_count(f11, 10, 5) == 5


def test_nth_root_count_errors():
    f13 = make_field(13)
    with pytest.raises(ZeroInput):
        nth_root_count(f13, 0, 3)
    with pytest.raises(IncompatibleOrder):
        nth_root_count(f13, 2, 5)


def test_nth_root_count_matches_brute_force_small_fields():
    for (p, m, q) in prime_powers(49):
        ctx = make_field(p, m)
        for n in range(1, q):
            if (q - 1) % n:
                continue
            for c in ctx.nonzero_elements():
                assert nth_root_count(ctx, c, n) == nth_root_count_brute(ctx, c, n)


def test_nth_root_count_sums_to_group_order():
    for (p, m, q) in prime_powers(49):
        ctx = make_field(p, m)
        for n in range(1, q):
            if (q - 1) % n:
                continue
            total = sum(nth_root_count(ctx, c, n) for c in ctx.nonzero_elements())
            assert total == q - 1


def test_nth_roots_listing():
    f11 = make_field(11)
    assert nth_roots(f11, 1, 5) == [1, 3, 4, 5, 9]


# -- subgroup_generator ------------------------------------------------------


def test_subgroup_generator_examples():
    f13 = make_field(13)
    g = subgroup_generator(f13, 4)
    assert g == 5
    assert pow(5, 2, 13) == 12 and pow(5, 4, 13) == 1  # order exactly 4
    assert subgroup_generator(f13, 1) == 1
    with pytest.raises(IncompatibleOrder):
        subgroup_generator(f13, 5)


def test_subgroup_generator_order_property():
    for (p, m, q) in prime_powers(64):
        ctx = make_field(p, m)
        for k in range(1, q):
            if (q - 1) % k:
                continue
            g = subgroup_generator(ctx, k)
            assert ctx.pow(g, k) == ctx.one
            for d in range(1, k):
                if k % d == 0:
                    assert ctx.pow(g, d) != ctx.one


# -- splitting fields --------------------------------------------------------


def test_min_splitting_degree_rational_case():
    f13 = make_field(13)
    # 5 is a cube mod 13 (7^3 = 343 = 5)
    assert pow(7, 3, 13) == 5
    assert min_splitting_degree(f13, 5, 3) == 1
    ctx, root = nth_root_extension(f13, 5, 3)
    assert ctx is f13 and root == 7  # smallest of {7, 8, 11}


def test_nth_root_extension_irrational_case():
    f13 = make_field(13)
    # 2 is not a cube mod 13; the class of 2 has full order 3 in F*/F*^3
    d = min_splitting_degree(f13, 2, 3)
    assert d == 3
    ctx, root = nth_root_extension(f13, 2, 3)
    assert ctx.m == 3
    assert ctx.pow(root, 3) == ctx.element(2)


@pytest.mark.parametrize("p,n", [(13, 3), (13, 4), (11, 5), (31, 5), (29, 7)])
def test_nth_root_extension_all_roots_by_unity_shift(p, n):
    base = make_field(p)
    zeta = subgroup_generator(base, n)
    for c in list(base.nonzero_elements())[:6]:
        ctx, root = nth_root_extension(base, c, n)
        zeta2 = ctx.element(zeta) if ctx is not base else zeta
        c2 = ctx.element(c) if ctx is not base else c
        roots = set()
        r = root
        for _ in range(n):
            assert ctx.pow(r, n) == c2
            roots.add(r)
            r = ctx.mul(r, zeta2)
        assert len(roots) == n  # all n roots, pairwise distinct


def test_splitting_degree_divides_n():
    for p, n in [(13, 3), (13, 6), (31, 5), (31, 6), (29, 4), (43, 7)]:
        base = make_field(p)
        for c in base.nonzero_elements():
            d = min_splitting_degree(base, c, n)
            assert n % d == 0
