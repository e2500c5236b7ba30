"""Exact arithmetic in prime fields F_p and extension fields F_{p^m}.

Elements of F_p are plain Python ints in [0, p).  Elements of F_{p^m} with
m > 1 are length-m tuples of ints: the coefficients, constant term first, of
the canonical representative modulo the field modulus.  Every operation
returns elements in this reduced form, so equality is structural and elements
are hashable.

The canonical ordering of elements is by integer encoding
sum(c_i * p**i); the canonical modulus of F_{p^m} is the monic irreducible
whose non-leading coefficients have the smallest encoding.  All derived
output is therefore reproducible byte for byte.
"""

from __future__ import annotations

from .errors import (
    CompositeCharacteristic,
    IncompatibleOrder,
    ReducibleModulus,
    ZeroInput,
)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n below 3.3e24."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (intended for n <= q - 1)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def inverse_table(p: int) -> list[int]:
    """inv[x] = x^-1 mod p for x in [1, p), inv[0] = 0, in O(p)."""
    inv = [0] * p
    if p > 1:
        inv[1] = 1
    for x in range(2, p):
        inv[x] = (p - p // x) * inv[p % x] % p
    return inv


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (little-endian int lists, no trailing 0)

def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmod(f: list[int], g: list[int], p: int) -> list[int]:
    """Remainder of f by g (g monic)."""
    f = f[:]
    dg = len(g) - 1
    while len(f) - 1 >= dg and f:
        c = f[-1]
        if c:
            off = len(f) - 1 - dg
            for i in range(dg):
                f[off + i] = (f[off + i] - c * g[i]) % p
        f.pop()
    return _ptrim(f)


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


def poly_is_irreducible(f: list[int], p: int) -> bool:
    """Rabin test: x^(p^d) = x mod f, and gcd(x^(p^(d/r)) - x, f) = 1."""
    f = _ptrim(f[:])
    d = len(f) - 1
    if d < 1:
        return False
    if d == 1:
        return True
    x = [0, 1]
    frob = [x[:]]  # frob[i] = x^(p^i) mod f
    cur = x[:]
    for _ in range(d):
        cur = _ppowmod(cur, p, f, p)
        frob.append(cur)
    if _ptrim([(a - b) % p for a, b in _zip_pad(frob[d], x)]):
        return False
    for r in prime_factors(d):
        diff = [(a - b) % p for a, b in _zip_pad(frob[d // r], x)]
        if len(_pgcd(diff, f, p)) - 1 != 0:
            return False
    return True


def _zip_pad(a: list[int], b: list[int]):
    n = max(len(a), len(b))
    return zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))


def _poly_encoding(lower: tuple[int, ...], p: int) -> int:
    return sum(c * p**i for i, c in enumerate(lower))


# ---------------------------------------------------------------------------


class FieldCtx:
    """An explicit model of F_{p^m}: characteristic, modulus, element ops.

    Immutable after construction; safe to share across workers.  Use
    :func:`make_field` rather than calling this directly.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        if m == 1:
            self.zero = 0
            self.one = 1
        else:
            self.zero = (0,) * m
            self.one = (1,) + (0,) * (m - 1)
            # reduction rows: T^(m+j) mod modulus, j = 0 .. m-2
            rows = []
            cur = [(-modulus[i]) % p for i in range(m)]  # T^m
            rows.append(tuple(cur))
            for _ in range(m - 2):
                c_top = cur[-1]
                cur = [0] + cur[:-1]  # multiply by T, fold T^m via rows[0]
                if c_top:
                    cur = [(v + c_top * t) % p for v, t in zip(cur, rows[0])]
                rows.append(tuple(cur))
            self._red = rows

    # -- construction ------------------------------------------------------

    def element(self, v):
        """Coerce an int (constant) or coefficient sequence to an element."""
        if isinstance(v, int):
            if self.m == 1:
                return v % self.p
            return (v % self.p,) + (0,) * (self.m - 1)
        coeffs = [int(c) % self.p for c in v]
        if len(coeffs) > self.m:
            raise ValueError(f"too many coefficients for degree-{self.m} field")
        coeffs += [0] * (self.m - len(coeffs))
        if self.m == 1:
            return coeffs[0]
        return tuple(coeffs)

    def from_encoding(self, e: int):
        if not 0 <= e < self.q:
            raise ValueError("encoding out of range")
        if self.m == 1:
            return e
        out = []
        for _ in range(self.m):
            out.append(e % self.p)
            e //= self.p
        return tuple(out)

    def encode(self, a) -> int:
        if self.m == 1:
            return a
        return sum(c * self.p**i for i, c in enumerate(a))

    def elements(self):
        """All q elements in canonical (encoding) order."""
        for e in range(self.q):
            yield self.from_encoding(e)

    def nonzero_elements(self):
        for e in range(1, self.q):
            yield self.from_encoding(e)

    # -- arithmetic ---------------------------------------------------------

    def is_zero(self, a) -> bool:
        return a == self.zero

    def add(self, a, b):
        if self.m == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        if self.m == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.m == 1:
            return -a % self.p
        return tuple(-x % self.p for x in a)

    def mul(self, a, b):
        p = self.p
        if self.m == 1:
            return a * b % p
        m = self.m
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:m]
        for j in range(m - 2, -1, -1):
            c = prod[m + j] % p
            if c:
                row = self._red[j]
                for i in range(m):
                    out[i] += c * row[i]
        return tuple(v % p for v in out)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)  # Fermat
        return self._inv_euclid(a)

    def _inv_euclid(self, a):
        """Extended Euclid on the polynomial representation (m > 1)."""
        p = self.p
        r0, r1 = list(self.modulus), _ptrim(list(a))
        s0, s1 = [], [1]
        while r1:
            lead_inv = pow(r1[-1], p - 2, p)
            r1m = [c * lead_inv % p for c in r1]
            # quotient of r0 by monic r1m
            quo = [0] * (len(r0) - len(r1m) + 1) if len(r0) >= len(r1m) else []
            rem = r0[:]
            while rem and len(rem) >= len(r1m):
                c = rem[-1]
                off = len(rem) - len(r1m)
                quo[off] = c
                if c:
                    for i in range(len(r1m)):
                        rem[off + i] = (rem[off + i] - c * r1m[i]) % p
                rem.pop()
            quo = [c * lead_inv % p for c in quo]
            r0, r1 = r1, _ptrim(rem)
            s0, s1 = s1, _ptrim([(x - y) % p
                                 for x, y in _zip_pad(s0, _pmul(quo, s1, p))])
        # r0 = gcd (a unit since the modulus is irreducible)
        c_inv = pow(r0[0], p - 2, p)
        s0 = [c * c_inv % p for c in s0]
        s0 = _pmod(s0, list(self.modulus), p)
        s0 += [0] * (self.m - len(s0))
        return tuple(s0)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.m == 1:
            return pow(a, e, self.p)
        r = self.one
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    # -- rendering -----------------------------------------------------------

    def format_element(self, a) -> str:
        """Prime-field: decimal residue.  Extension: "c0,c1,...,c(m-1)"."""
        if self.m == 1:
            return str(a)
        return ",".join(str(c) for c in a)

    def parse_element(self, s: str):
        parts = [int(t) for t in s.split(",")]
        if self.m == 1 and len(parts) == 1:
            return self.element(parts[0])
        return self.element(parts)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.m, self.modulus) == (other.p, other.m, other.modulus))

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        if self.m == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.m} (mod {list(self.modulus)})"


def make_field(p: int, m: int = 1, modulus=None) -> FieldCtx:
    """Build F_{p^m} with a verified-irreducible modulus.

    When `modulus` is omitted and m > 1, the canonical (smallest-encoding)
    monic irreducible of degree m is chosen, so repeated runs agree exactly.
    """
    if not is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        if modulus is not None:
            mod = _ptrim([int(c) % p for c in modulus])
            if len(mod) - 1 != 1 or mod[-1] != 1:
                raise ValueError("modulus for m = 1 must be monic of degree 1")
        return FieldCtx(p, 1, (0, 1))
    if modulus is not None:
        mod = [int(c) % p for c in modulus]
        if len(_ptrim(mod[:])) - 1 != m or mod[m] != 1:
            raise ValueError(f"modulus must be monic of degree {m}")
        if not poly_is_irreducible(mod, p):
            raise ReducibleModulus(f"{mod} factors over F_{p}")
        return FieldCtx(p, m, tuple(mod[: m + 1]))
    for enc in range(p**m):
        lower = []
        e = enc
        for _ in range(m):
            lower.append(e % p)
            e //= p
        cand = lower + [1]
        if poly_is_irreducible(cand, p):
            return FieldCtx(p, m, tuple(cand))
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# multiplicative-group queries


def nth_root_count(ctx: FieldCtx, c, n: int) -> int:
    """#{x in F_q : x^n = c} for c != 0 and n | q-1.

    Equals n when c^((q-1)/n) = 1 and 0 otherwise; the exhaustive companion
    :func:`nth_root_count_brute` exists so the criterion itself is testable.
    """
    if ctx.is_zero(c):
        raise ZeroInput("c must be nonzero")
    if n < 1 or (ctx.q - 1) % n:
        raise IncompatibleOrder(f"{n} does not divide q-1 = {ctx.q - 1}")
    return n if ctx.pow(c, (ctx.q - 1) // n) == ctx.one else 0


def nth_root_count_brute(ctx: FieldCtx, c, n: int) -> int:
    """Exhaustive-loop slow path of :func:`nth_root_count`."""
    if ctx.is_zero(c):
        raise ZeroInput("c must be nonzero")
    if n < 1 or (ctx.q - 1) % n:
        raise IncompatibleOrder(f"{n} does not divide q-1 = {ctx.q - 1}")
    return sum(1 for x in ctx.elements() if ctx.pow(x, n) == c)


def nth_roots(ctx: FieldCtx, c, n: int) -> list:
    """All x with x^n = c, in canonical order (enumerates the field)."""
    return [x for x in ctx.elements() if ctx.pow(x, n) == c]


def subgroup_generator(ctx: FieldCtx, k: int):
    """The smallest element (canonical order) of multiplicative order k."""
    if k < 1 or (ctx.q - 1) % k:
        raise IncompatibleOrder(f"{k} does not divide q-1 = {ctx.q - 1}")
    radicals = prime_factors(k)
    for x in ctx.nonzero_elements():
        if ctx.pow(x, k) != ctx.one:
            continue
        if all(ctx.pow(x, k // r) != ctx.one for r in radicals):
            return x
    raise AssertionError("cyclic group must contain an element of each divisor order")


# ---------------------------------------------------------------------------
# splitting-field helpers (prime base field)
#
# T^n - c with n | p-1 has all its roots proportional by rational n-th roots
# of unity, so its irreducible factors over F_p share one degree d and a
# single factor is enough to reach every root.


def min_splitting_degree(ctx: FieldCtx, c, n: int) -> int:
    """Smallest d with c an n-th power in F_{q^d} (equivalently: where
    T^n - c has a root).  Always a divisor of n here since n | q-1."""
    if ctx.is_zero(c):
        raise ZeroInput("c must be nonzero")
    if n < 1 or (ctx.q - 1) % n:
        raise IncompatibleOrder(f"{n} does not divide q-1 = {ctx.q - 1}")
    for d in range(1, n + 1):
        if ctx.pow(c, (ctx.q**d - 1) // n) == ctx.one:
            return d
    raise AssertionError("splitting degree must divide n")


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
        enc_digits = []
        e = enc
        while e:
            enc_digits.append(e % p)
            e //= p
        u = _ptrim(enc_digits)
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
    rem = f[:]
    quo = [0] * (len(f) - len(g) + 1)
    while rem and len(rem) >= len(g):
        c = rem[-1]
        off = len(rem) - len(g)
        quo[off] = c
        if c:
            for i in range(len(g)):
                rem[off + i] = (rem[off + i] - c * g[i]) % p
        rem.pop()
    if _ptrim(rem):
        raise AssertionError("not an exact division")
    return quo


def nth_root_extension(ctx: FieldCtx, c, n: int):
    """(ctx2, root) with root^n = c, over the smallest extension of ctx.

    For d = 1 the context is returned unchanged with the smallest rational
    root.  Otherwise (prime base field only) the returned context is
    F_p[T]/(h) for the canonically smallest irreducible factor h of T^n - c,
    and the root is the class of T.
    """
    d = min_splitting_degree(ctx, c, n)
    if d == 1:
        roots = nth_roots(ctx, c, n)
        return ctx, roots[0]
    if ctx.m != 1:
        raise ValueError("splitting extensions only over prime base fields")
    h = _factor_binomial(ctx.p, n, c, d)[0]
    ctx2 = make_field(ctx.p, d, modulus=h)
    root = ctx2.element([0, 1])
    if ctx2.pow(root, n) != ctx2.element(c):
        raise AssertionError("factor of T^n - c does not yield a root")
    return ctx2, root
