"""The plane curve g(X,Y) = a*X^n*Y^n - X^n - Y^n + b over F_q.

Validated parameters, exact point counts on the affine curve and on the
nonsingular model, the inventory of special points (inflections on the axes
and rational branches over the two singular points at infinity), and the
smoothness of the affine curve.

Two counting routes are provided.  `count_points` is the plain exhaustive
double loop over F_q x F_q.  `count_points_fast` collapses the loop over the
n-th power classes: writing u = x^n, the equation becomes
y^n = c_u = (u - b)/(a*u - 1), so each of the (q-1)/n nonzero classes
contributes n * #roots.  Both are exact; the test suite pins them equal.
The per-curve counts (`count_points_fast`, `curve_cell`) rest on the
cyclotomic-number identity (1 - a*u)(1 - a*c_u) = 1 - ab, which makes the
class count one set of logs met with its own reflection.
`smoothness_scan` counts the same cell: no affine point is singular, by
the proof in its docstring.  The scan, and the records the prop41 sweep
prints, read `orbit_counts`, which counts one curve per torus orbit of
(a, b) from pair histograms over mu_k, each the folded sum of k coset
columns shifted as lanes of one int, and is pinned to `count_points_fast`
in the tests.

Every field F_q has one index, log on encodings, from one walk over the
powers of its smallest primitive element g, kept packed as `array('i')`.
Over F_{p^m}, p odd, the walk multiplies out only (q-1)/(p-1) powers and
scales them by F_p^*; over F_{2^m} it steps x -> g*x by XOR of per-byte
tables.  c_u is an n-th power exactly when n | log c_u, so nothing is
inverted.  Over F_p, x -> x + 1 is a rotation of the encoding order, and
`curve_cell` reads log alone: on its bit planes for n | 32, on its
residues mod n for small n, and at the coset of a, walked, otherwise.
Over F_{p^m}, m > 1, it is not, and the logs of 1 - a*u are read off the
Zech logarithm zech[i] = log(g^i + 1), kept for these fields only.  Every
n-th-power question reads the same index and g: mu_k is the powers of g^n
and the n roots of v are g^(log v / n + j*k), j < n; no table is kept per
degree n.  No index is built for q above `MAX_TABLE_Q` (`FieldTooLarge`).
"""

from __future__ import annotations

import functools
import json
import struct
import sys
from array import array
from itertools import islice
from operator import itemgetter
from typing import NamedTuple

from .errors import DegenerateParams, DegreeTooSmall, FieldTooLarge, IncompatibleOrder
from .ffield import FieldCtx, nth_root_count, subgroup_generator


class CurveParams(NamedTuple):
    """Validated (field, n, a, b) with the derived genus and k = (q-1)/n."""

    ctx: FieldCtx
    n: int
    a: object
    b: object
    g: int
    k: int

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def q(self) -> int:
        return self.ctx.q


class CountReport(NamedTuple):
    """Exact point counts; model_total counts points of the nonsingular model."""

    affine_total: int
    off_axes: int
    off_axes_off_diag: int
    n1: int
    n2: int
    branches_at_infinity_rational: int
    model_total: int

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=False)


class SpecialPoint(NamedTuple):
    kind: str           # "inflection" | "infinite-branch"
    center: str         # "affine" | "P1" | "P2"
    point: tuple | None  # (x, y) for inflections, None at infinity
    tangent_axis: str   # "X" or "Y": the tangent line is axis = tangent_value
    tangent_value: object


def make_curve(ctx: FieldCtx, n: int, a, b) -> CurveParams:
    """Validate parameters and derive genus (n-1)^2 and k = (q-1)/n."""
    if n < 2:
        raise DegreeTooSmall(f"n = {n} < 2")
    if (ctx.q - 1) % n:
        raise IncompatibleOrder(f"n = {n} does not divide q-1 = {ctx.q - 1}")
    a = ctx.element(a) if isinstance(a, (int, list)) else a
    b = ctx.element(b) if isinstance(b, (int, list)) else b
    if ctx.is_zero(a) or ctx.is_zero(b) or ctx.mul(a, b) == ctx.one:
        raise DegenerateParams("need a != 0, b != 0 and a*b != 1")
    return CurveParams(ctx=ctx, n=n, a=a, b=b, g=(n - 1) ** 2, k=(ctx.q - 1) // n)


# ---------------------------------------------------------------------------
# the index of F_q

MAX_TABLE_Q = 2**22  # the largest q whose O(q) index is built


def check_table_size(q: int) -> None:
    """Raise FieldTooLarge, before anything is allocated, when q is above
    MAX_TABLE_Q: the index of F_q takes O(q) memory."""
    if q > MAX_TABLE_Q:
        raise FieldTooLarge(f"q = {q} is above the class-table limit {MAX_TABLE_Q}")


@functools.cache
def _index(ctx: FieldCtx) -> array:
    """log of F_q for its smallest primitive element g: log[enc(g^i)] = i
    for i < q - 1, and log[0] = -1.  Over F_p the walk covers half the
    period: g^(i + h) = -g^i for h = (p-1)/2, so each step writes log[x] = i
    and log[p - x] = i + h.  Over F_{p^m} only the first N = (q-1)/(p-1)
    powers are multiplied out: gamma = g^N is a constant that generates
    F_p^*, so g^(i + jN) = gamma^j * g^i, and each later block of N
    encodings is the previous one mapped through enc(x) -> enc(gamma * x);
    these encodings are a local of the build.  Over F_{2^m} there is no
    F_p^* to scale by, and x -> g*x is F_2-linear on encodings, so each step
    is enc(g*x) = XOR over the bytes j of enc(x) of t_j[byte j], with t_j
    spanned by the m encodings enc(g*T^i).  The table is built as a list,
    whose stores are CPython's fastest, and packed once into `array('i')`:
    about 4 bytes per element retained, not 48, and no slot for a garbage
    collection to visit.  Cached per field."""
    check_table_size(ctx.q)
    q, p = ctx.q, ctx.p
    g = subgroup_generator(ctx, q - 1)
    x, log = ctx.one, [-1] * q
    if ctx.m == 1:
        h = (q - 1) // 2
        log[1] = 0  # over F_2, h = 0 and the walk is empty
        for i in range(h):
            log[x] = i
            log[p - x] = i + h
            x = x * g % p
    elif p == 2:  # t[j][v] = enc(g * y) for enc(y) = v << 8j
        t = [[0], [0], [0]]  # m <= 22 by MAX_TABLE_Q: three bytes
        for i in range(ctx.m):
            c = ctx.encode(ctx.mul(g, ctx.element([0] * i + [1])))  # enc(g * T^i)
            t[i // 8] += [e ^ c for e in t[i // 8]]
        (t0, t1, t2), e = t, 1
        for i in range(q - 1):
            log[e] = i
            e = t0[e & 255] ^ t1[e >> 8 & 255] ^ t2[e >> 16]
    else:
        block = []
        for _ in range((q - 1) // (p - 1)):
            block.append(ctx.encode(x))
            x = ctx.mul(x, g)
        exp = block[:]
        scale = [0]  # x = gamma; scale[e] = enc(gamma * y) for e = enc(y), digit by digit
        for t in range(ctx.m):
            scale = [e + d * x[0] % p * p**t for d in range(p) for e in scale]
        for _ in range(p - 2):
            block = list(map(scale.__getitem__, block))
            exp += block
        for i, e in enumerate(exp):
            log[e] = i
    return _packed(log)


@functools.cache
def _zech(ctx: FieldCtx) -> array:
    """The Zech logarithm of F_{p^m}, m > 1: zech[i] = log(g^i + 1) for one
    period i < q - 1, -1 where g^i = -1.  zech[log x] = log(x + 1) is read
    off log and its shift by one, enc(x + 1) being e + 1, or e + 1 - p when
    the constant digit of e is p - 1, so no power of g is kept.  Over F_p
    no Zech table is built: x -> x + 1 is a rotation of the encoding order
    there, and `curve_cell` reads log alone.  Cached per field."""
    log, p = _index(ctx), ctx.p
    succ = log[1:] + log[:1]
    succ[p - 1::p] = log[::p]
    zech = [-1] * (ctx.q - 1)  # zech[log x] = log(x + 1) for every x != 0
    for i, z in zip(islice(log, 1, None), islice(succ, 1, None)):
        zech[i] = z
    del succ
    return _packed(zech)


_CHUNK = struct.Struct("1024i")
_ITEM = array("i").itemsize
# offset of byte j, least significant first, in a packed entry
_BYTE = range(_ITEM) if sys.byteorder == "little" else range(_ITEM - 1, -1, -1)


def _packed(table: list) -> array:
    """table as array('i'), 1024 entries per `struct.pack`: at q = 29077
    half the time of array('i', table), which cost `queries` about 6% more
    per round, and no q-long argument tuple."""
    out, full = array("i"), len(table) - len(table) % 1024
    for s in range(0, full, 1024):
        out.frombytes(_CHUNK.pack(*table[s:s + 1024]))
    out.fromlist(table[full:])
    return out


_DIGIT = [(b"0" * 2**b + b"1" * 2**b) * 2**(7 - b) for b in range(5)]  # byte -> "0"/"1" of bit b


@functools.cache
def _planes(ctx: FieldCtx) -> tuple[list, list]:
    """The bit planes of log over F_p, p odd, as p-bit ints: bit y of P[b]
    is bit b of log[y], and bit y of R[b] is bit b of log[(1 - y) mod p],
    for b < min(5, v_2(p - 1)).  Bit b < 8 of log[y] is bit b of its low
    byte, so one `translate` of the p low bytes spells a plane in "0" and
    "1", and int(_, 2) packs it, digit j at bit p - 1 - j: P's digits are
    the low bytes reversed, and R's are them rotated by two, as bit y =
    p - 1 - j has 1 - y = j + 2 - p.  Cached per field, p/4 bytes per
    bit, and built with the first cell of the field whatever its n, as the
    Zech table was: a field's later cells are then warm for every n."""
    p = ctx.p
    low = bytearray(_index(ctx))[_BYTE[0]::_ITEM]
    rev, turned = low[::-1], low[2:] + low[:2]
    bits = range(min(5, ((p - 1) & (1 - p)).bit_length() - 1))
    return ([int(rev.translate(_DIGIT[b]), 2) for b in bits],
            [int(turned.translate(_DIGIT[b]), 2) for b in bits])


# ---------------------------------------------------------------------------
# counts on the torus orbits of (a, b)
#
# (x, y) -> (t*x, t*y) maps the curve (a, b) onto the curve (t^n*a, b/t^n) and
# keeps the axes, X = Y and the vertex tangents in place, so every count below
# depends only on the coset of a modulo mu_k = (F_p^*)^n and on a*b.


class CurveCell(NamedTuple):
    affine_total: int
    restricted: int   # N_p: off the axes and off X = Y
    tangency: int     # D = #{u in mu_k : a*u^2 - 2u + b = 0}
    refined: int      # off the axes with x^n != y^n: n^2*(hits - D)


class OrbitCounts(NamedTuple):
    reps: list   # r_i, the least element of the i-th coset of mu_k
    coset: list  # a -> (i, s) with a = r_i * s, s in mu_k (index 0 unused)
    rows: list   # rows[i][c] = #{(u, v) in mu_k^2 : w = r_i*u - 1 != 0, u - v*w = c}


_WALK_MIN_N = 10  # the least n not dividing 32 whose F_p cells walk the coset


def curve_cell(ctx: FieldCtx, n: int, a: int, b: int) -> CurveCell:
    """The orbit counts of one curve (a, b), a*b != 1, given by encodings.

    A class u in mu_k with a*u != 1 has n^2 points with x^n = u when c_u =
    (u - b)/(a*u - 1) is in mu_k; u = b (c_u = 0) has the n1 points y = 0.
    As (1 - a*u)(1 - a*c_u) = 1 - ab = s and v -> 1 - a*v is one to one,
    c_u is in mu_k exactly when x = 1 - a*u and s/x both lie in X = {1 - v
    : v in a*mu_k, v != 1}, and c_u = u exactly when x^2 = s.  So hits =
    #{x in X : s/x in X} and diag = #{x in X : x^2 = s}.

    Over F_p with n | 32 or n < _WALK_MIN_N they are counted in value
    order.  Put y = 1 - x.  Then x is in X when y != 0, 1 and log y = log a
    mod n, and s/x is when 1 - s/x = (1 - y - s)/(1 - y) is in a*mu_k:
    y != 1 - s and log(1 - y - s) - log(1 - y) = log a mod n.  With A and
    B the indicators of the two tests over all y, hits = #(A & B) off the
    cells y = 0, 1 and 1 - s, where a log is -1; x^2 = s at x = +-r for
    r^2 = s, so diag = A[1 - r] + A[1 + r] (never cell 0 or 1, as s != 0,
    1), and 0 when log s is odd.  For n = 2^e dividing p - 1 a log mod n
    is its low e bits, and both tests are bitwise on the planes of log
    (`_pair_planes`); otherwise they are bytewise on the residues of log
    mod n (`_pair_residues`).

    Otherwise hits is counted on logs: l = log x runs over L = log X, and
    s/x is in X exactly when ls - l is in L, ls = log s, so the count is
    one set of logs met with its own reflection.  Over F_{p^m} L is the
    column zech[(log a + h) % n::n], h = log(-1), less its -1 (v = 1, when
    n | log a).  Over F_p the coset is walked from g^(log a mod n), and the
    logs are gathered as log(v - 1) = log(1 - v) + h: L + h meets its
    reflection in as many pairs, as 2h = q - 1, and holds ls/2 or ls/2 + h
    as often as L does.  v = 1, first in the walk when n | log a, gathers
    the mark log[0] = -1 and is dropped.  With one byte per log, ind[l] =
    [l in L], hits = #{l in L : ind[ls - l]} is read one of two ways: for
    n <= 32 as the popcount of one big-int AND of ind with ind reversed and
    rotated by ls + 1, O(q) byte work in C; for larger n, where k is small,
    as k reads ind[ls - l], which beat the AND from about n = 40 on at every
    q timed (941 to 55441).  diag is ind[ls/2] + ind[ls/2 + h] for odd p
    (0 when ls is odd) and ind[ls * 2^-1] = ind[ls * q/2 mod q - 1] for p =
    2."""
    log, order = _index(ctx), ctx.q - 1
    la, lb = log[a], log[b]
    h = order // 2 if ctx.p > 2 else 0  # log(-1)
    if ctx.m == 1:
        p, g = ctx.p, subgroup_generator(ctx, order)
        _planes(ctx)  # the cold start of the field, with log, for a cell of any n
        s = (1 - a * b) % p
        ls = log[s]
        if 32 % n == 0 or n < _WALK_MIN_N:
            r = 0 if ls % 2 else pow(g, ls // 2, p)  # r^2 = s
            roots = ((1 - r) % p, (1 + r) % p) if r else ()
            pairs = _pair_planes if 32 % n == 0 else _pair_residues
            return _cell(n, *pairs(ctx, n, la, s, roots), lb)
        k = order // n
        t, coset = pow(g, n, p), [pow(g, la % n, p)]
        while len(coset) < k:  # coset[i] = g^(la % n) * t^i, doubled per pass
            coset += [v * t % p for v in coset[:k - len(coset)]]
            t = t * t % p
        shifted = log[-1:] + log  # shifted[v] = log(v - 1)
        logs = itemgetter(*coset)(shifted) if k > 1 else (shifted[coset[0]],)
        if la % n == 0:
            logs = logs[1:]
    else:
        zech = _zech(ctx)
        ls = zech[(la + lb + h) % order]  # log(1 - ab)
        logs = zech[(la + h) % n::n]  # log(1 - a*u), u in mu_k
        if la % n == 0:
            del logs[h // n]  # zech[h] = -1: u = 1/a
    ind = bytearray(order)
    for lv in logs:
        ind[lv] = 1
    if n <= 32:  # bit 8l of the AND is ind[l] & ind[(ls - l) % order]
        d = ls + 1
        hits = (int.from_bytes(ind, "little")
                & int.from_bytes(ind[d:] + ind[:d], "big")).bit_count()
    else:  # a negative index wraps mod q - 1
        hits = sum([ind[ls - l] for l in logs])
    if ctx.p == 2:
        diag = ind[ls * (ctx.q // 2) % order]
    else:
        diag = 0 if ls % 2 else ind[ls // 2] + ind[ls // 2 + h]
    return _cell(n, hits, diag, lb)


def _cell(n: int, hits: int, diag: int, lb: int) -> CurveCell:
    """The CurveCell of hits and diag, for lb = log b."""
    n1 = n if lb % n == 0 else 0  # the x = 0 row has y^n = b
    return CurveCell(n * n * hits + 2 * n1, n * n * hits - n * diag, diag,
                     n * n * (hits - diag))


def _pair_planes(ctx: FieldCtx, n: int, la: int, s: int, roots: tuple) -> tuple[int, int]:
    """(hits, diag) of `curve_cell` over F_p for n = 2^e | 32, on the p-bit
    planes of log.  A is the AND over i < e of P[i] or its complement, as
    bit i of log a is 1 or 0.  B is the same for the e-bit difference
    log(1 - y - s) - log(1 - y), subtracted plane by plane with a borrow
    plane from R[i] rotated by s (bit y: bit i of log(1 - y - s)) and R[i].
    Both are kept as complements, the cells where some bit differs."""
    P, R = _planes(ctx)
    p = ctx.p
    full, miss_a, miss, borrow = (1 << p) - 1, 0, 0, 0
    for i, (pi, ri) in enumerate(zip(P, R[:n.bit_length() - 1])):
        want = full if la >> i & 1 else 0
        x = ri >> s | (ri << p - s & full)
        d = x ^ ri ^ borrow
        borrow = ~x & ri | ~(x ^ ri) & borrow
        miss_a |= pi ^ want
        miss |= d ^ want
    hits = p - (miss_a | miss | 3 | 1 << (1 - s) % p).bit_count()
    return hits, sum(1 - (miss_a >> y & 1) for y in roots)


@functools.cache
def _residue_tables(n: int) -> list:
    """t[j][v] = (v * 256^j) mod n, for the bytes j < 3 of a log."""
    return [bytes((v << 8 * j) % n for v in range(256)) for j in range(3)]


def _pair_residues(ctx: FieldCtx, n: int, la: int, s: int, roots: tuple) -> tuple[int, int]:
    """(hits, diag) of `curve_cell` over F_p for n < _WALK_MIN_N, n not
    dividing 32, on the residues of log mod n, one byte per element, lanes
    of a big int.  res[y] = log[y] mod n is the sum of byte j of log[y]
    times 256^j mod n over the bytes j of a log, read through one table
    each and summed as lanes, less than 3n < 256 with no carry; rr[y] =
    res[1 - y].  Then B holds rr rotated by s plus n - rr, a lane in [1,
    2n - 1], at log a mod n, and A res at log a mod n, both by one
    `translate`.  That is about 14 ns per element of F_p, and the walk
    about 130 per element of mu_k, so the walk wins from n = 10 on: at n =
    3, 6 and 12 over F_29077 the residues took 410, 406 and 420 us and the
    walk 1138, 610 and 353 (best of 9, 2-core host)."""
    log, p = _index(ctx), ctx.p
    r = la % n
    hit = ((bytes(r) + b"\1" + bytes(n - 1 - r)) * (256 // n + 1))[:256]  # v -> [v = r mod n]
    entries, lanes = bytearray(log), 0
    for j, table in zip(_BYTE[:((p - 2).bit_length() + 7) // 8], _residue_tables(n)):
        lanes += int.from_bytes(entries[j::_ITEM].translate(table), "little")
    res = lanes.to_bytes(p, "little").translate((bytes(range(n)) * (256 // n + 1))[:256])
    rr = res[1::-1] + res[:1:-1]
    lanes = (int.from_bytes(rr[s:] + rr[:s], "little")
             + int.from_bytes(rr.translate(bytes(range(n, 0, -1)).ljust(256, b"\0")), "little"))
    A = res.translate(hit)
    B = lanes.to_bytes(p, "little").translate(hit)
    AB = int.from_bytes(A, "little") & int.from_bytes(B, "little")
    hits = (AB & ~(1 | 1 << 8 | 1 << 8 * ((1 - s) % p))).bit_count()
    return hits, sum(A[y] for y in roots)


_LANE_MIN_K = 7  # the least k at which `orbit_counts` sums lanes


def orbit_counts(ctx: FieldCtx, n: int) -> OrbitCounts:
    """The pair histogram hist of one representative r of each coset of mu_k
    in F_p^* (generalized cyclotomic numbers of order n), one row per r.

    On the curve (r, c), x^n = u in mu_k with w = r*u - 1 != 0 gives
    y^n = (u - c)/w.  That is v in mu_k iff c = u - v*w (n^2 points, binned
    in hist), 0 iff c = u (n points if c is in mu_k: n1 = rc[c] in all), and
    u, the pair v = u, iff c = 2u - r*u^2.  So affine = n^2*hist + 2*n1 with
    the n1 points on x = 0; restricted = n^2*hist - n*D and refined =
    n^2*(hist - D) need the tangency D of that diagonal, which the prop41
    sweep counts in its own pass (`harness._tangency`) and no row keeps.

    hist is read off the lanes of one int (Kronecker substitution).  Column
    i has a 1 at lane p - t for each t in r_i*mu_k; a lane has the fewest
    bytes that hold k, one while k < 256, as no count exceeds k.  As v runs
    over mu_k, v*w runs over the coset of w, so its column shifted u lanes
    has a 1 at lane p + u - v*w, which is c + p or c for c = u - v*w mod p:
    the sum over u, folded (lane c plus lane c + p), is hist, from k
    shift-adds in C per row, not k^2 Python steps.  Below k = _LANE_MIN_K
    the pair loop is faster.  Per call, pairs against lanes: k = 2 21
    against 44 us (p = 41), k = 6 26 against 23 (p = 37), k = 9 35 against
    21 (p = 37), k = 65 599 against 65 (p = 131); the 120 calls of the scans
    of a perfbench `sweep` round took 2.2 ms by pairs, 2.0 by lanes and 1.6
    with the cut, within 3% for cuts 5 to 8: 6, the closest, beat 7 in 9, 8
    and 6 of 10 pairs in three sets (best of 30, 2-core host)."""
    p, g = ctx.p, subgroup_generator(ctx, ctx.p - 1)
    k = (p - 1) // n
    mu = [pow(g, n * j, p) for j in range(k)]  # any order: the histograms are sums
    coset, reps, rows = [None] * p, [], []
    for r in range(1, p):
        if coset[r] is None:
            for s in mu:
                coset[r * s % p] = (len(reps), s)
            reps.append(r)
    by_lanes, width, cols = k >= _LANE_MIN_K, -(-k.bit_length() // 8), []  # width: bytes per lane
    for r in reps if by_lanes else ():
        col = bytearray(width * p)
        for s in mu:
            col[width * (p - r * s % p)] = 1
        cols.append(int.from_bytes(col, "little"))
    top = 8 * width * p
    for r in reps:
        hist, acc = [0] * p, 0
        for u in mu:
            if w := (r * u - 1) % p:
                if by_lanes:
                    acc += cols[coset[w][0]] << 8 * width * u
                else:
                    for v in mu:
                        hist[(u - v * w) % p] += 1
        if by_lanes:
            b = ((acc & (1 << top) - 1) + (acc >> top)).to_bytes(width * p, "little")
            hist = list(b) if width == 1 else [
                int.from_bytes(b[c:c + width], "little") for c in range(0, width * p, width)]
        rows.append(hist)
    return OrbitCounts(reps, coset, rows)


# ---------------------------------------------------------------------------
# one curve: counts, special points, smoothness


def count_points(curve: CurveParams) -> CountReport:
    """Exhaustive double loop over F_q^2 (reference route)."""
    ctx, n = curve.ctx, curve.n
    if ctx.m == 1:
        p, a, b = ctx.p, curve.a, curve.b
        xn = [pow(x, n, p) for x in range(p)]
        affine = off_axes = off_diag = 0
        for x in range(p):
            ax = (a * xn[x] - 1) % p          # y^n * ax = bx on the curve
            bx = (xn[x] - b) % p
            for y in range(p):
                if (ax * xn[y] - bx) % p == 0:
                    affine += 1
                    if x and y:
                        off_axes += 1
                        if x != y:
                            off_diag += 1
    else:
        els = list(ctx.elements())
        xn = [ctx.pow(x, n) for x in els]
        zero = ctx.zero
        affine = off_axes = off_diag = 0
        for x, u in zip(els, xn):
            ax = ctx.sub(ctx.mul(curve.a, u), ctx.one)  # y^n * ax = bx on the curve
            bx = ctx.sub(u, curve.b)
            for y, v in zip(els, xn):
                if ctx.mul(ax, v) == bx:
                    affine += 1
                    if x != zero and y != zero:
                        off_axes += 1
                        if x != y:
                            off_diag += 1
    n1, n2 = nth_root_count(ctx, curve.b, n), nth_root_count(ctx, ctx.inv(curve.a), n)
    return CountReport(affine, off_axes, off_diag, n1, n2, 2 * n2, affine + 2 * n2)


def count_points_fast(curve: CurveParams) -> CountReport:
    """Single pass over the n-th power classes (`curve_cell`); exact, O(q)
    C-level work on bytes and big ints per curve, plus O(q/n) Python steps
    where the coset of a is walked or the Zech column scattered (none over
    F_p for n | 32 or n < 10).
    y^n = b has n1 = n roots when n | log b, and 1/a is an n-th power
    (n2 = n) when n | log a."""
    ctx, n = curve.ctx, curve.n
    a, b = ctx.encode(curve.a), ctx.encode(curve.b)
    log = _index(ctx)
    n1, n2 = (n if log[b] % n == 0 else 0), (n if log[a] % n == 0 else 0)
    cell = curve_cell(ctx, n, a, b)
    total = cell.affine_total
    return CountReport(total, total - 2 * n1, cell.restricted, n1, n2, 2 * n2, total + 2 * n2)


def special_points(curve: CurveParams) -> list[SpecialPoint]:
    """Rational inflections (xi,0), (0,xi) with xi^n = b, and rational
    tangent directions c with c^n = 1/a of the branches at infinity."""
    ctx, n = curve.ctx, curve.n
    log, g, zero = _index(ctx), subgroup_generator(ctx, ctx.q - 1), ctx.zero

    def roots(v) -> list:  # x^n = v: g^(log v / n + j*k), j < n, in canonical order
        i, r = divmod(log[ctx.encode(v)], n)
        return [] if r else sorted((ctx.pow(g, i + j * curve.k) for j in range(n)),
                                   key=ctx.encode)

    out = []
    for xi in roots(curve.b):
        out.append(SpecialPoint("inflection", "affine", (xi, zero), "X", xi))
        out.append(SpecialPoint("inflection", "affine", (zero, xi), "Y", xi))
    for c in roots(ctx.inv(curve.a)):
        out.append(SpecialPoint("infinite-branch", "P1", None, "Y", c))
        out.append(SpecialPoint("infinite-branch", "P2", None, "X", c))
    return out


class SmoothnessReport(NamedTuple):
    points_checked: int
    clean: bool


def smoothness_scan(curve: CurveParams) -> SmoothnessReport:
    """Every affine rational point is smooth, by proof; points_checked is
    their number, the `curve_cell` count.

    g_X = n*x^(n-1)*(a*y^n - 1) and g_Y = n*y^(n-1)*(a*x^n - 1) with n a
    unit.  On x = 0, y^n = b != 0, so y != 0 and g_Y = -n*y^(n-1) != 0;
    on y = 0, g_X != 0 likewise.  Off the axes both vanish only where
    x^n = y^n = 1/a, and there g = 1/a - 2/a + b = b - 1/a, which is zero
    only if a*b = 1, which `make_curve` rejects.
    """
    ctx = curve.ctx
    cell = curve_cell(ctx, curve.n, ctx.encode(curve.a), ctx.encode(curve.b))
    return SmoothnessReport(cell.affine_total, True)
