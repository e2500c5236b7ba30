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

`FieldCtx.mul` is the one product modulo a modulus.  The inverse is Fermat's
a^(q-2), and, as the reduction rows hold for any monic f, Rabin's test (M. O.
Rabin, SIAM J. Comput. 9, 1980) runs in the ring R = F_p[T]/(f), deg f = m:
f is irreducible iff T^(p^m) = T in R and h = T^(p^(m/r)) - T has
h^(p^m - 1) = 1 for every prime r | m.  Once T^(p^m) = T, f divides the
squarefree T^(p^m) - T, so R is a product of fields F_{p^d}, d | m, and
h^(p^m - 1) = 1 exactly when h is a unit of R, that is when gcd(h, f) = 1.
The unit test alone decides (a factor of degree d < m passes it only when
p^(v_p(m)+1) | d, and such degrees cannot sum to m); T^(p^m) = T is the
cheaper first filter, which rejects most reducible f.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right

from .errors import (
    CompositeCharacteristic,
    IncompatibleOrder,
    ReducibleModulus,
    ZeroInput,
)

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,  # A014233
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051, 318665857834031151167461,
           3317044064679887385961981)
_MR_BOUND = _MR_PSI[-1]


def is_prime(n: int) -> bool:
    """Trial division by the 13 bases, then deterministic Miller-Rabin on the
    first t for the least t with n < psi_t, the least strong pseudoprime to
    the first t prime bases (OEIS A014233; psi_12, psi_13: J. Sorenson and
    J. Webster, Math. Comp. 86 (2017)).  n >= psi_13 is refused with a
    ValueError: no fixed base set is proven there."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is undecided: the Miller-Rabin bases "
                         f"2..41 are proven exact only below {_MR_BOUND}")
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for w in _MR_WITNESSES[:bisect_right(_MR_PSI, n) + 1]:
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


def _ptrim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def poly_is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for a monic f of degree m in the ring F_p[T]/(f): T^(p^m)
    = T, and T^(p^(m/r)) - T is a unit for every prime r | m."""
    f = _ptrim(f[:])
    m = len(f) - 1
    if m < 2:
        return m == 1
    ring = FieldCtx(p, m, tuple(f))
    frob = [ring.element([0, 1])]  # frob[i] = T^(p^i)
    for _ in range(m):
        frob.append(ring.pow(frob[-1], p))
    return frob[m] == frob[0] and all(
        ring.pow(ring.sub(frob[m // r], frob[0]), ring.q - 1) == ring.one
        for r in prime_factors(m))


def _poly_encoding(lower: tuple[int, ...], p: int) -> int:
    return sum(c * p**i for i, c in enumerate(lower))


def _digits(e: int, p: int, m: int) -> list[int]:
    """The m lowest base-p digits of e, least significant first."""
    out = []
    for _ in range(m):
        e, r = divmod(e, p)
        out.append(r)
    return out


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
        return e if self.m == 1 else tuple(_digits(e, self.p, self.m))

    def encode(self, a) -> int:
        return a if self.m == 1 else _poly_encoding(a, self.p)

    def elements(self):
        """All q elements in canonical (encoding) order."""
        for e in range(self.q):
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
        return self.pow(a, self.q - 2)  # Fermat: a^(q-1) = 1

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

    # -- parsing -------------------------------------------------------------

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
    return FieldCtx(p, m, _canonical_modulus(p, m))


@functools.cache
def _canonical_modulus(p: int, m: int) -> tuple:
    """The smallest-encoding monic irreducible of degree m over F_p, found
    once per (p, m).  A candidate with a root in F_p has a linear factor and
    is skipped before Rabin's test, which decides every other one.  The
    encodings run over blocks of p that share c_1, ..., c_(m-1), and f =
    T^m + ... + c_1*T + c_0 has a root exactly when -c_0 is a value of
    f - c_0 on F_p, one set of p values per block."""
    for upper in range(p ** (m - 1)):
        tail = _digits(upper, p, m - 1) + [1]  # c_1 .. c_m
        values = set()
        for x in range(p):
            v = 0
            for c in reversed(tail):
                v = (v * x + c) % p
            values.add(v * x % p)
        for c0 in range(p):
            if -c0 % p not in values and poly_is_irreducible([c0, *tail], p):
                return (c0, *tail)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# multiplicative-group queries


def _check_root_query(ctx: FieldCtx, c, n: int) -> None:
    """Reject c = 0 and an n that does not divide q-1."""
    if ctx.is_zero(c):
        raise ZeroInput("c must be nonzero")
    if n < 1 or (ctx.q - 1) % n:
        raise IncompatibleOrder(f"{n} does not divide q-1 = {ctx.q - 1}")


def nth_root_count(ctx: FieldCtx, c, n: int) -> int:
    """#{x in F_q : x^n = c} for c != 0 and n | q-1.

    Equals n when c^((q-1)/n) = 1 and 0 otherwise (Euler's criterion).
    """
    _check_root_query(ctx, c, n)
    return n if ctx.pow(c, (ctx.q - 1) // n) == ctx.one else 0


@functools.cache
def _primitive_element(ctx: FieldCtx):
    """The smallest element (canonical order) of order q-1.  Cached per field.
    For m > 1 the search starts at encoding p: a constant's order divides p-1."""
    radicals = prime_factors(ctx.q - 1)
    candidates = map(ctx.from_encoding, range(1 if ctx.m == 1 else ctx.p, ctx.q))
    return next(x for x in candidates
                if all(ctx.pow(x, (ctx.q - 1) // r) != ctx.one for r in radicals))


def subgroup_generator(ctx: FieldCtx, k: int):
    """The smallest element (canonical order) of multiplicative order k: the
    least h^j, gcd(j, k) = 1, for h = g^((q-1)/k) and the primitive element
    g, in O(k) beyond the cached g."""
    q = ctx.q
    if k < 1 or (q - 1) % k:
        raise IncompatibleOrder(f"{k} does not divide q-1 = {q - 1}")
    g = _primitive_element(ctx)
    if k == q - 1:
        return g
    h, x, gens = ctx.pow(g, (q - 1) // k), ctx.one, []
    for j in range(1, k + 1):
        x = ctx.mul(x, h)
        if math.gcd(j, k) == 1:
            gens.append(x)
    return min(gens, key=ctx.encode)

