"""The Newton lift, splitting extensions, the full-matrix pivot route and the
per-block pivot route, kept as test oracles.

The package computes the branch series, the order sequences and the contact
orders over the base field from the binomial series of the branch.  The
route that preceded it lifted the branch by Newton doubling on the smallest
extension holding a root of T^n - c and read the orders off the pivots of
one dense coefficient matrix.  This file is the home of that lift and of
that route, so that the tests can pin the binomial series to them.  The
package computes no rank: it returns the closed-form order sequence on its
certificate f_1 != 0.  The tests pin that answer to the pivots of the dense
matrix and to `block_pivots`, which eliminates each block of that matrix on
its own, with an inverse per pivot, on rows built from the true alpha =
An/A0 and beta = Bn/B0.

Over a prime base field the splitting extension is F_p[T]/(h) for a factor
h of T^n - c.  Over F_q, q = p^m, it is K = F_{p^(m*d)} with its canonical
modulus, and F_q enters K by the embedding sum c_i T^i -> sum c_i theta^i
for a root theta in K of the modulus of F_q; the root of T^n - c is read
off the discrete-log index of K.

The dense polynomial arithmetic over F_p on int lists (`_pmul`, `_pdivmod`,
`_pgcd`, `_ppowmod`) and the extended Euclid inverse `inv_euclid` live here
too: the package reduces products only in `FieldCtx.mul`, and these
kernels, which share none of its code, are the oracle of that ring
arithmetic.
"""

from __future__ import annotations

from gfcurves.curve import CurveParams, _index, make_curve
from gfcurves.ffield import (
    FieldCtx,
    _check_root_query,
    _digits,
    _poly_encoding,
    _ptrim,
    make_field,
    subgroup_generator,
)
from gfcurves.localexp import (
    TruncatedSeries,
    _binomials,
    _coefficients,
    _mul_trunc,
    _pow_trunc,
)

from brute_oracles import nth_roots

# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (little-endian int lists, no trailing 0)


def _pdivmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of f by a monic g."""
    rem, dg = f[:], len(g) - 1
    quo = [0] * max(len(f) - dg, 0)
    for off in range(len(quo) - 1, -1, -1):
        c = quo[off] = rem.pop()
        if c:
            for i in range(dg):
                rem[off + i] = (rem[off + i] - c * g[i]) % p
    return quo, _ptrim(rem)


def _pmod(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by g (g monic)."""
    return _pdivmod(f, g, p)[1]


def _pmul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _ptrim(out)


def _pmulmod(f, g, mod, p):
    return _pmod(_pmul(f, g, p), mod, p)


def _ppowmod(f, e: int, mod, p):
    r = [1]
    f = _pmod(f[:], mod, p)
    while e:
        if e & 1:
            r = _pmulmod(r, f, mod, p)
        f = _pmulmod(f, f, mod, p)
        e >>= 1
    return r


def _pgcd(f, g, p):
    """Monic gcd."""
    f, g = _ptrim(f[:]), _ptrim(g[:])
    while g:
        lead_inv = pow(g[-1], p - 2, p)
        gm = [c * lead_inv % p for c in g]
        f, g = g, _pmod(f, gm, p)
    if f:
        lead_inv = pow(f[-1], p - 2, p)
        f = [c * lead_inv % p for c in f]
    return f


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def inv_euclid(ctx: FieldCtx, a):
    """The inverse of a nonzero a in F_{p^m}, m > 1, by extended Euclid on
    its polynomial representation."""
    p = ctx.p
    r0, r1 = list(ctx.modulus), _ptrim(list(a))
    s0, s1 = [], [1]
    while r1:
        lead_inv = pow(r1[-1], p - 2, p)
        quo, rem = _pdivmod(r0, [c * lead_inv % p for c in r1], p)
        quo = [c * lead_inv % p for c in quo]
        r0, r1 = r1, rem
        s0, s1 = s1, _ptrim([(x - y) % p
                             for x, y in _zip_pad(s0, _pmul(quo, s1, p))])
    # r0 = gcd (a unit since the modulus is irreducible)
    c_inv = pow(r0[0], p - 2, p)
    s0 = [c * c_inv % p for c in s0]
    s0 = _pmod(s0, list(ctx.modulus), p)
    s0 += [0] * (ctx.m - len(s0))
    return tuple(s0)


# ---------------------------------------------------------------------------


# T^n - c with n | p-1 has all its roots proportional by rational n-th roots
# of unity, so its irreducible factors over F_p share one degree d and a
# single factor is enough to reach every root.


def _inv_trunc(ctx: FieldCtx, A: list, L: int) -> list:
    """Inverse of a unit power series to L terms."""
    c0 = ctx.inv(A[0])
    out = [c0] + [ctx.zero] * (L - 1)
    for k in range(1, L):
        acc = ctx.zero
        for i in range(1, min(k, len(A) - 1) + 1):
            ai = A[i]
            if not ctx.is_zero(ai):
                acc = ctx.add(acc, ctx.mul(ai, out[k - i]))
        out[k] = ctx.neg(ctx.mul(c0, acc))
    return out


def _solve_unit_power(ctx: FieldCtx, A: list, B: list, n: int, u0, L: int) -> list:
    """U with U^n * A = B mod t^L and U(0) = u0, by Newton doubling."""
    U = [u0]
    prec = 1
    while prec < L:
        prec = min(2 * prec, L)
        U = U + [ctx.zero] * (prec - len(U))
        Un1 = _pow_trunc(ctx, U, n - 1, prec)
        Un = _mul_trunc(ctx, Un1, U, prec)
        F = [ctx.sub(x, y) for x, y in zip(_mul_trunc(ctx, Un, A, prec), B[:prec])]
        Fp = _mul_trunc(ctx, [ctx.mul(ctx.element(n), v) for v in Un1], A, prec)
        corr = _mul_trunc(ctx, F, _inv_trunc(ctx, Fp, prec), prec)
        U = [ctx.sub(x, y) for x, y in zip(U, corr)]
    Un = _pow_trunc(ctx, U, n, L)
    res = [ctx.sub(x, y) for x, y in zip(_mul_trunc(ctx, Un, A, L), B[:L])]
    if any(not ctx.is_zero(v) for v in res):
        raise AssertionError("Newton lift failed to cancel the residual")
    return U


def newton_lift(curve: CurveParams, kind: str, root, L: int) -> list:
    """The branch of `kind` through `root`, to L > n terms, by Newton doubling
    on the dense A = A0 + An t^n and B = B0 + Bn t^n."""
    ctx, n = curve.ctx, curve.n
    a0, an, b0, bn = _coefficients(curve, kind)
    A, B = [a0] + [ctx.zero] * (L - 1), [b0] + [ctx.zero] * (L - 1)
    A[n], B[n] = an, bn
    return _solve_unit_power(ctx, A, B, n, root, L)


def min_splitting_degree(ctx: FieldCtx, c, n: int) -> int:
    """Smallest d with c an n-th power in F_{q^d} (equivalently: where
    T^n - c has a root).  With z = c^((q-1)/n) in mu_n and q = 1 (mod n),
    c^((q^d-1)/n) = z^((q^d-1)/(q-1)) = z^d, since (q^d-1)/(q-1) = 1 + q
    + ... + q^(d-1) = d (mod n): d is the order of z, a divisor of n."""
    _check_root_query(ctx, c, n)
    z = x = ctx.pow(c, (ctx.q - 1) // n)
    d = 1
    while x != ctx.one:
        x, d = ctx.mul(x, z), d + 1
    return d


def _factor_binomial(p: int, n: int, c0: int, d: int) -> list[list[int]]:
    """All monic irreducible factors of T^n - c0 over F_p, sorted by
    coefficient encoding.  Every factor has degree d (precomputed)."""
    f = [(-c0) % p] + [0] * (n - 1) + [1]
    if d == n:
        return [f]
    work, done = [f], []
    # Deterministic equal-degree splitting: sweep candidate polynomials u in
    # encoding order; u^((p^d-1)/2) mod h is +-1 on each irreducible factor h,
    # and distinct factors disagree for some u of degree < n.
    exponent = (p**d - 1) // 2
    enc = p  # skip constants: they cannot separate factors
    while work:
        u = _ptrim(_digits(enc, p, n + 1))
        enc += 1
        if len(u) - 1 >= n:
            raise AssertionError("equal-degree split failed to terminate")
        next_work = []
        for h in work:
            g0 = _pgcd(u, h, p)
            if 0 < len(g0) - 1 < len(h) - 1:
                pieces = [g0, _pquo_exact(h, g0, p)]
            else:
                w = _ppowmod(u, exponent, h, p)
                w1 = _ptrim([(a - b) % p for a, b in _zip_pad(w, [1])])
                g = _pgcd(w1, h, p)
                if 0 < len(g) - 1 < len(h) - 1:
                    pieces = [g, _pquo_exact(h, g, p)]
                else:
                    next_work.append(h)
                    continue
            for piece in pieces:
                (done if len(piece) - 1 == d else next_work).append(piece)
        work = next_work
    done.sort(key=lambda h: _poly_encoding(tuple(h[:-1]), p))
    return done


def _pquo_exact(f, g, p):
    """Exact quotient f / g for monic g dividing f."""
    quo, rem = _pdivmod(f, g, p)
    if rem:
        raise AssertionError("not an exact division")
    return quo


def embedding(ctx: FieldCtx, K: FieldCtx):
    """The map iota: F_q -> K, sum c_i T^i -> sum c_i theta^i, for theta the
    first root of the modulus of F_q among the copy g^(j (|K| - 1)/(q - 1)),
    j < q - 1, of F_q^* in K, for g the primitive element of K (any root
    gives a field embedding; m divides the degree of K).  Over a prime base
    field iota is K.element."""
    if ctx.m == 1:
        return K.element

    def value(poly, x):  # Horner, highest coefficient first
        acc = K.zero
        for c in reversed(poly):
            acc = K.add(K.mul(acc, x), K.element(c))
        return acc

    h, theta = K.pow(subgroup_generator(K, K.q - 1), (K.q - 1) // (ctx.q - 1)), K.one
    while not K.is_zero(value(ctx.modulus, theta)):
        theta = K.mul(theta, h)
    return lambda a: value(a, theta)


def nth_root_extension(ctx: FieldCtx, c, n: int):
    """(ctx2, root) with root^n = c, over the smallest extension of ctx.

    For d = 1 the context is returned unchanged with the smallest rational
    root: over F_p it is read off the linear factors T - r of T^n - c, over
    an extension base field the field is enumerated.  Otherwise, over F_p,
    the returned context is F_p[T]/(h) for the canonically smallest
    irreducible factor h of T^n - c, and the root is the class of T; over
    F_{p^m} it is the canonical F_{p^(m*d)}, holding F_q by `embedding`, and
    the root is g^(log(c) / n) from its index, for g the primitive element.
    """
    d = min_splitting_degree(ctx, c, n)
    if ctx.m != 1:
        if d == 1:
            return ctx, nth_roots(ctx, c, n)[0]
        K = make_field(ctx.p, ctx.m * d)
        image = embedding(ctx, K)(c)
        root = K.pow(subgroup_generator(K, K.q - 1), _index(K)[0][K.encode(image)] // n)
        if K.pow(root, n) != image:
            raise AssertionError("the index of the splitting field yields no root")
        return K, root
    factors = _factor_binomial(ctx.p, n, c, d)
    if d == 1:
        return ctx, min(-h[0] % ctx.p for h in factors)
    h = factors[0]
    ctx2 = make_field(ctx.p, d, modulus=h)
    root = ctx2.element([0, 1])
    if ctx2.pow(root, n) != ctx2.element(c):
        raise AssertionError("factor of T^n - c does not yield a root")
    return ctx2, root


def site(curve: CurveParams, kind: str):
    """(curve', root) over the smallest field containing a root of T^n = b
    at an inflection, of T^n = 1/a on the branches over P1; curve' is the
    image of curve under `embedding`."""
    ctx, n = curve.ctx, curve.n
    c = curve.b if kind == "inflection" else ctx.inv(curve.a)
    ctx2, root = nth_root_extension(ctx, c, n)
    if ctx2 is not ctx:
        iota = embedding(ctx, ctx2)
        curve = make_curve(ctx2, n, iota(curve.a), iota(curve.b))
    return curve, root


def _pivot_columns(ctx: FieldCtx, rows: list[list]) -> list[int]:
    """Columns where the rank of the stacked rows increases."""
    pivots: dict[int, list] = {}
    for row in rows:
        r = list(row)
        for col in sorted(pivots):
            c = r[col]
            if not ctx.is_zero(c):
                pr = pivots[col]
                r = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(r, pr)]
        lead = next((i for i, v in enumerate(r) if not ctx.is_zero(v)), None)
        if lead is None:
            continue
        inv = ctx.inv(r[lead])
        pivots[lead] = [ctx.mul(inv, v) for v in r]
    return sorted(pivots)


def binomial_rows(curve: CurveParams, kind: str, count: int, top: int) -> list[list]:
    """[F_0, .., F_top] to `count` terms, F_i = (1 + beta s)^(i/n) *
    (1 + alpha s)^(-i/n) with alpha = An/A0 and beta = Bn/B0, each from its
    own pair of binomial series."""
    ctx, n = curve.ctx, curve.n
    a0, an, b0, bn = _coefficients(curve, kind)
    alpha, beta = ctx.mul(an, ctx.inv(a0)), ctx.mul(bn, ctx.inv(b0))

    def series(i, x):
        return [ctx.mul(ctx.element(c), ctx.pow(x, k))
                for k, c in enumerate(_binomials(ctx.p, i, n, count))]

    return [_mul_trunc(ctx, series(i, beta), series(-i, alpha), count)
            for i in range(top + 1)]


def block_pivots(curve: CurveParams, kind: str, s: int, L: int) -> list[int]:
    """The pivot columns below L of the monomials x^i y^j, one elimination
    per block: block j stacks the binomial rows F_0 .. F_min(s-1, s-j) cut
    to its width and puts its pivots on the columns n*m + j (inflection) or
    n*m + s - 1 - j."""
    n = curve.n
    powers = binomial_rows(curve, kind, -(-L // n), s - 1)
    cols = []
    for j in range(s):
        base = j if kind == "inflection" else s - 1 - j
        width = -(-(L - base) // n)
        block = [powers[i][:width] for i in range(min(s - 1, s - j) + 1)]
        cols += [n * m + base for m in _pivot_columns(curve.ctx, block)]
    return sorted(cols)


def full_matrix_pivots(curve: CurveParams, kind: str, s: int, L: int) -> list[int]:
    """Pivot columns of the dense matrix of the monomials x^i y^j (i, j < s,
    i + j <= s), each expanded to L terms by the Newton lift at the
    canonical site."""
    work, root = site(curve, kind)
    ctx = work.ctx
    series = TruncatedSeries(ctx, 0, newton_lift(work, kind, root, L))
    powers = [TruncatedSeries.constant(ctx, ctx.one, L)]
    for _ in range(s - 1):
        powers.append(powers[-1] * series)
    # the monomials x^i y^j: x = x(t), y = t at (xi, 0) gives powers[i].shift(j);
    # x = 1/t, y = y(t) at P1 gives powers[j].shift(-i), and the index set is
    # symmetric, so that is powers[i].shift(-j) over it
    sign = 1 if kind == "inflection" else -1
    rows_series = [powers[i].shift(sign * j)
                   for i in range(s) for j in range(s) if i + j <= s]
    e_q = -min(r.offset for r in rows_series)
    shifted = [r.shift(e_q) for r in rows_series]
    assert min(r.prec for r in shifted) >= L
    return _pivot_columns(ctx, [[r.coefficient(e) for e in range(L)] for r in shifted])
