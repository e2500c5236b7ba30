import random

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
    nth_root_count,
    subgroup_generator,
)
from gfcurves.harness import primes_up_to
from brute_oracles import (
    canonical_modulus_rabin,
    format_element,
    nonzero_elements,
    nth_root_count_brute,
    nth_roots,
)
from splitting_oracle import (
    _pdivmod,
    _pmul,
    _zip_pad,
    embedding,
    inv_euclid,
    min_splitting_degree,
    nth_root_extension,
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


# psi_1 .. psi_13 of OEIS A014233: the least strong pseudoprime to each of the
# first i prime bases at once (Sorenson and Webster, Math. Comp. 86 (2017),
# for psi_12 and psi_13)
A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461,
           3317044064679887385961981)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def strong_probable_prime(n, w):
    """n passes the Miller-Rabin round to base w."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    x = pow(w, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def test_is_prime_is_false_or_refused_on_every_strong_pseudoprime_of_a014233():
    # each psi_i passes the first i bases and is composite: a later base, or
    # a factor, witnesses it
    assert 399165290221 * 798330580441 == A014233[11]
    assert 1287836182261 * 2575672364521 == A014233[12]
    for i, psi in enumerate(A014233, start=1):
        assert all(strong_probable_prime(psi, w) for w in PRIME_BASES[:i])
        assert not all(strong_probable_prime(psi, w) for w in PRIME_BASES)
        if psi < ffield._MR_BOUND:
            assert ffield.is_prime(psi) is False
    # base 41 is the first to reject psi_12; psi_13 passes all 13 bases the
    # test uses, so it and everything above it are refused, not answered
    assert [w for w in PRIME_BASES if not strong_probable_prime(A014233[11], w)][0] == 41
    assert ffield._MR_BOUND == A014233[12]
    for n in (A014233[12], A014233[12] + 2, 2**127 - 1):
        with pytest.raises(ValueError, match="undecided"):
            ffield.is_prime(n)
    with pytest.raises(ValueError, match="undecided"):
        make_field(2**127 - 1)


def test_is_prime_equals_sieve_below_200000():
    # bases 2 (n < psi_1 = 2047) and 2, 3 (n < psi_2 = 1373653) only
    assert [n for n in range(200_000) if ffield.is_prime(n)] == primes_up_to(199_999)


def test_is_prime_on_carmichael_numbers_and_large_primes():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265):
        assert not ffield.is_prime(n)
    # Mersenne primes, the largest primes below 2^64 and 2^79, and the
    # largest prime below psi_13
    for n in (2**31 - 1, 2**61 - 1, 2**64 - 59, 2**79 - 67, A014233[12] - 168):
        assert ffield.is_prime(n)
    assert not any(ffield.is_prime(n) for n in range(A014233[12] - 167, A014233[12]))
    assert make_field(2**61 - 1).q == 2**61 - 1


def test_reducible_modulus_rejected():
    # T^2 + 1 = (T+1)^2 mod 2
    with pytest.raises(ReducibleModulus):
        make_field(2, 2, modulus=[1, 0, 1])


def test_canonical_modulus_is_smallest_irreducible():
    # mod 3: encoding 0 gives T^2 (reducible), encoding 1 gives T^2 + 1
    assert make_field(3, 2).modulus == (1, 0, 1)
    # mod 2: T^2, T^2+1=(T+1)^2, T^2+T=T(T+1) all reducible; T^2+T+1 is next
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_canonical_modulus_search_runs_once_per_field(monkeypatch):
    # a second make_field(p, m) reuses the search: no irreducibility test,
    # and a fresh context equal to the first
    tested = []
    real = ffield.poly_is_irreducible
    monkeypatch.setattr(ffield, "poly_is_irreducible",
                        lambda f, p: tested.append(f) or real(f, p))
    ffield._canonical_modulus.cache_clear()
    first = make_field(7, 3)
    assert tested == [[2, 0, 0, 1]]  # T^3 and T^3 + 1 have roots and are sieved
    tested.clear()
    second = make_field(7, 3)
    assert tested == [] and second == first and second is not first


def test_canonical_modulus_sieve_equals_rabin_search_to_400():
    # candidates with a root in F_p are skipped before Rabin's test; the
    # search that runs Rabin's test on every candidate returns the same
    fields = [(p, m) for p, m, _ in prime_powers(400) if m > 1]
    assert (2, 8) in fields and (3, 5) in fields and (19, 2) in fields
    for p, m in fields:
        assert ffield._canonical_modulus.__wrapped__(p, m) == canonical_modulus_rabin(p, m)


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


def moebius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


def monic_polynomials(p, m):
    """Every monic polynomial of degree m over F_p, little-endian."""
    for enc in range(p**m):
        lower, e = [], enc
        for _ in range(m):
            e, c = divmod(e, p)
            lower.append(c)
        yield tuple(lower + [1])


@pytest.mark.parametrize("p,m_max", [(2, 8), (3, 5), (5, 4), (7, 3), (11, 3)])
def test_poly_is_irreducible_on_every_monic_polynomial(p, m_max):
    # the irreducibles of degree m are the monic polynomials that are no
    # product of an irreducible of degree d <= m/2 with a monic polynomial of
    # degree m - d (the products taken by the list kernel of the oracle), and
    # there are (1/m) sum_{d | m} mu(d) p^(m/d) of them (Gauss)
    irreducible = {}
    for m in range(1, m_max + 1):
        reducible = {tuple(_pmul(list(g), list(h), p))
                     for d in range(1, m // 2 + 1)
                     for g in irreducible[d] for h in monic_polynomials(p, m - d)}
        irreducible[m] = [f for f in monic_polynomials(p, m) if f not in reducible]
        assert [f for f in monic_polynomials(p, m)
                if ffield.poly_is_irreducible(list(f), p)] == irreducible[m]
        gauss = sum(moebius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
        assert len(irreducible[m]) * m == gauss


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
        assert mul(mul(b, a), ctx.inv(a)) == b


def test_inverse_fermat_vs_euclid_agree():
    # the inverse is Fermat's a^(q-2) for every m; for m > 1 compare it with
    # extended Euclid on the polynomial representation, on every nonzero
    # element of four small fields and 200 seeded elements of two large ones
    for (p, m) in [(3, 2), (5, 2), (2, 4), (7, 2)]:
        ctx = make_field(p, m)
        for a in nonzero_elements(ctx):
            assert ctx.inv(a) == inv_euclid(ctx, a)
    rng = random.Random(24)
    for (p, m) in [(2, 16), (3, 10)]:
        ctx = make_field(p, m)
        for e in (rng.randrange(1, ctx.q) for _ in range(200)):
            a = ctx.from_encoding(e)
            assert ctx.inv(a) == inv_euclid(ctx, a)
    # over F_p compare against the batch Euclid-style recurrence
    # and against the inverse read off the discrete-log index, g^(-log a)
    for p in (13, 31):
        ctx = make_field(p)
        table, log, g = inverse_recurrence(p), _index(ctx), subgroup_generator(ctx, p - 1)
        for a in range(1, p):
            assert ctx.inv(a) == table[a] == pow(g, p - 1 - log[a], p)


def test_element_encoding_roundtrip():
    ctx = make_field(3, 3)
    for e in range(ctx.q):
        assert ctx.encode(ctx.from_encoding(e)) == e


def test_element_rendering():
    f13 = make_field(13)
    assert format_element(f13, 7) == "7"
    f9 = make_field(3, 2)
    a = f9.element([2, 1])
    assert format_element(f9, a) == "2,1"
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
            for c in nonzero_elements(ctx):
                assert nth_root_count(ctx, c, n) == nth_root_count_brute(ctx, c, n)


def test_nth_root_count_sums_to_group_order():
    for (p, m, q) in prime_powers(49):
        ctx = make_field(p, m)
        for n in range(1, q):
            if (q - 1) % n:
                continue
            total = sum(nth_root_count(ctx, c, n) for c in nonzero_elements(ctx))
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


def scanned_subgroup_generator(ctx, k):
    """Oracle: the smallest element of order k by scanning the field in
    canonical order, the route subgroup_generator took before it read the
    powers of a primitive element."""
    radicals = ffield.prime_factors(k)
    for x in nonzero_elements(ctx):
        if ctx.pow(x, k) == ctx.one and all(ctx.pow(x, k // r) != ctx.one for r in radicals):
            return x


def test_subgroup_generator_equals_scan_to_400():
    fields = prime_powers(400)
    assert (2, 8, 256) in fields and (3, 5, 243) in fields and (19, 2, 361) in fields
    for p, m, q in fields:
        ctx = make_field(p, m)
        for k in range(1, q):
            if (q - 1) % k == 0:
                assert subgroup_generator(ctx, k) == scanned_subgroup_generator(ctx, k)


def multiplicative_order(ctx, x):
    y, order = x, 1
    while y != ctx.one:
        y, order = ctx.mul(y, x), order + 1
    return order


def test_primitive_element_equals_brute_search_to_1000():
    # the search skips the constants of F_{p^m}, m > 1, whose orders divide
    # p - 1; the brute search walks the powers of every nonzero element
    fields = prime_powers(1000)
    assert (2, 9, 512) in fields and (31, 2, 961) in fields and (3, 6, 729) in fields
    for p, m, q in fields:
        ctx = make_field(p, m)
        brute = next(x for x in nonzero_elements(ctx) if multiplicative_order(ctx, x) == q - 1)
        assert ffield._primitive_element(ctx) == brute


# -- splitting fields (the oracle of the base-field order route) ---------------


def test_min_splitting_degree_rational_case():
    f13 = make_field(13)
    # 5 is a cube mod 13 (7^3 = 343 = 5)
    assert pow(7, 3, 13) == 5
    assert min_splitting_degree(f13, 5, 3) == 1
    ctx, root = nth_root_extension(f13, 5, 3)
    assert ctx is f13 and root == 7  # smallest of {7, 8, 11}


def test_nth_root_extension_irrational_case():
    # 2 is not a cube mod 13 (the class of 2 has full order 3 in F*/F*^3),
    # and T is no cube in F_{2^2}, no fourth power in F_{3^2} and no square
    # in F_{5^2}: the root lies in F_{q^d}, where its n-th power is the
    # image of c
    for p, m, n, c, d in [(13, 1, 3, 2, 3), (2, 2, 3, (0, 1), 3), (3, 2, 4, (0, 1), 2),
                          (5, 2, 2, (0, 1), 2)]:
        base = make_field(p, m)
        assert min_splitting_degree(base, c, n) == d
        ctx, root = nth_root_extension(base, c, n)
        assert ctx.q == base.q**d
        assert ctx.pow(root, n) == embedding(base, ctx)(c)


@pytest.mark.parametrize("p,m,d", [(2, 2, 3), (3, 2, 2), (5, 2, 2), (3, 3, 2)])
def test_embedding_is_an_injective_ring_map(p, m, d):
    # iota: F_{p^m} -> F_{p^(m d)}, both with canonical moduli, keeps 1, sums
    # and products and sends distinct elements apart
    base, big = make_field(p, m), make_field(p, m * d)
    iota = embedding(base, big)
    elems = list(base.elements())
    images = [iota(x) for x in elems]
    assert iota(base.one) == big.one and len(set(images)) == base.q
    for x, ix in zip(elems, images):
        for y, iy in zip(elems[::3], images[::3]):
            assert iota(base.add(x, y)) == big.add(ix, iy)
            assert iota(base.mul(x, y)) == big.mul(ix, iy)


@pytest.mark.parametrize("p,n", [(13, 3), (13, 4), (11, 5), (31, 5), (29, 7)])
def test_nth_root_extension_all_roots_by_unity_shift(p, n):
    base = make_field(p)
    zeta = subgroup_generator(base, n)
    for c in list(nonzero_elements(base))[:6]:
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


def test_rational_root_from_linear_factors_is_smallest_root():
    # d = 1 over F_p: the root comes from the linear factors of T^n - c, and
    # must be the smallest root that enumerating the field finds
    cases = 0
    for p in [p for p in range(2, 100) if ffield.is_prime(p)]:
        base = make_field(p)
        for n in range(2, p - 1):
            if (p - 1) % n:
                continue
            for c in range(1, p):
                if min_splitting_degree(base, c, n) != 1:
                    continue
                assert nth_root_extension(base, c, n) == (base, nth_roots(base, c, n)[0])
                cases += 1
    assert cases == 1158


@settings(max_examples=200, deadline=None, database=None)
@given(st.sampled_from([2, 3, 5, 7, 13, 101]), st.lists(st.integers(0, 10**6), max_size=12),
       st.lists(st.integers(0, 10**6), max_size=6))
def test_pdivmod_is_euclidean_division(p, f, g):
    f = [c % p for c in f]
    g = [c % p for c in g] + [1]
    quo, rem = _pdivmod(f, g, p)
    assert len(rem) < len(g) and (not rem or rem[-1])
    recomposed = [(x + y) % p for x, y in _zip_pad(_pmul(quo, g, p), rem)]
    assert ffield._ptrim(recomposed) == ffield._ptrim(f[:])


def test_splitting_degree_divides_n():
    for p, n in [(13, 3), (13, 6), (31, 5), (31, 6), (29, 4), (43, 7)]:
        base = make_field(p)
        for c in nonzero_elements(base):
            d = min_splitting_degree(base, c, n)
            assert n % d == 0
