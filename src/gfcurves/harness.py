"""Sweep engines behind the command-line surface.

The soundness scan enumerates, for each prime p and each admissible degree n,
every parameter pair (a, b) with a*b outside {0, 1} (or a deterministic
stride-subsample), counts points on the nonsingular model and compares
against every applicable upper bound.  Counting is one orbit pass per (p, n):
the counts depend only on the coset of a modulo mu_k = (F_p^*)^n and on
a*b, so `curve.orbit_counts` gives the int columns of n representatives and
every (a, b) reads its orbit's column entry.  The columns after b depend only
on (affine_total, n1, n2); each distinct key is one CSV tail string, made on
first use and looked up by an int key per orbit cell, and each (p, n) is
written as one text block.  The chord sweep behind `verify prop41` decides
each orbit cell once, from the same rows and `chords.chord_columns`, and
keeps only the failing cells.
figure1 rounds each delta in floating point under an a-priori error bound
(derived at `figure1_tsv_lines`), first with one comparison per cell against
the bound of its degree block, and exactly only near a half-integer.

All output is generated in sorted key order with fixed formatting; identical
invocations are byte-identical.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
from fractions import Fraction
from itertools import chain, compress, islice
from typing import NamedTuple

from . import bounds as B
from . import chords as C
from . import localexp as LE
from .curve import check_table_size, make_curve, orbit_counts
from .ffield import make_field, nth_root_count


def primes_up_to(limit: int) -> list[int]:
    """The primes p <= limit, from a sieve of the odd numbers: sieve[i]
    stands for 2i + 1, and an odd prime p strikes p^2, p^2 + 2p, ... at the
    indices p^2 // 2, stepping by p.  A limit above curve.MAX_TABLE_Q raises
    FieldTooLarge before the sieve is allocated: no command covers such a p."""
    check_table_size(limit)
    if limit < 2:
        return []
    sieve = bytearray([1]) * ((limit + 1) // 2)
    sieve[0] = 0  # 1 is no prime
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            sieve[p * p // 2:: p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return [2, *compress(range(1, limit + 1, 2), sieve)]


def admissible_degrees(p: int) -> list[int]:
    """Divisors n of p-1 with 2 <= n <= p-2."""
    return [n for n in range(2, p - 1) if (p - 1) % n == 0]


# ---------------------------------------------------------------------------
# soundness scan


class ScanRow(NamedTuple):
    p: int
    m: int
    n: int
    a: int
    b: int
    k: int
    affine_total: int
    model_total: int
    hw: int
    sv_best: int | None
    sv_best_s: int | None
    w_bound: int | None
    applicable_flags: str
    violation: bool


SCAN_COLUMNS = ScanRow._fields


def _pair_stride(p: int, sample: int | None) -> int:
    if sample is None:
        return 1
    total = (p - 1) * (p - 1) - (p - 1)  # pairs with ab not in {0, 1}
    return max(1, total // max(1, sample))


def scan_task(p: int, n: int, sample: int | None):
    """The rows of one (p, n), whether any violates a bound, and the fields
    k..violation of each CSV tail used.  Per a, in order: (a, s, the tails
    of its orbit row by c, the b kept by the sample stride); the curve
    (a, b) with a = r*s, s in mu_k, reads the row of r at c = b*s.  A tail,
    the CSV text of the columns k..violation, depends on (affine_total, n1,
    n2) only: n1 = n*[c in mu_k] and affine_total = n^2*hist + 2*n1, so it
    is keyed by the int 2*hist + [c in mu_k] in the table of its row's n2,
    which is n on the row of r = 1 alone (1/r is in mu_k iff r is)."""
    ctx = make_field(p)
    k, nn = (p - 1) // n, n * n
    hw = B.hasse_weil(p, (n - 1) ** 2).value
    w_val = B.w_scalar_value(p, n)
    applicable_s = [s for s in range(2, n) if 2 * n * (s - 1) < p]
    flags = "hw" + ("+sv" if applicable_s else "") + ("+w" if w_val is not None else "")
    w_col = "-" if w_val is None else w_val
    sv_best, columns = {}, {}  # per (n1, n2): (sv, sv_s) and the CSV columns hw .. flags
    for n1 in (0, n):
        for n2 in (0, n):
            cands = [(raw3n // (3 * N), s) for s in applicable_s
                     for N, *_, raw3n in [B._sv_ints(p, n, s, n1, n2)]]
            best = sv_best[(n1, n2)] = min(cands) if cands else (None, None)
            sv_cols = "{},{}".format(*best) if cands else "-,-"
            columns[(n1, n2)] = f"{hw},{sv_cols},{w_col},{flags}"
    fields = {}  # CSV tail -> (k, affine_total, model_total, hw, ..., violation)

    def tail(key: int, n2: int) -> str:
        n1 = n * (key & 1)
        total = nn * (key >> 1) + 2 * n1
        sv, sv_s = sv_best[(n1, n2)]
        model = total + 2 * n2
        violation = (model > hw or (sv is not None and model > sv)
                     or (w_val is not None and model > w_val))
        csv = f"{k},{total},{model},{columns[(n1, n2)]},{int(violation)}"
        fields[csv] = (k, total, model, hw, sv, sv_s, w_val, flags, violation)
        return csv

    tables = {-1: None}, {-1: None}  # by n2 = 0, n; key -1: c = 0 and c = 1/r, no curve's
    orbits = orbit_counts(ctx, n)
    unit = [1 if e and e[0] == 0 else 0 for e in orbits.coset]  # mu_k: the coset of r = 1
    tails = []
    for i, (r, row) in enumerate(zip(orbits.reps, orbits.rows)):
        keys = [h + h + e for h, e in zip(row.hist, unit)]
        keys[0] = keys[pow(r, -1, p)] = -1
        table, n2 = tables[i == 0], n * (i == 0)
        for key in set(keys).difference(table):
            table[key] = tail(key, n2)
        tails.append(list(map(table.__getitem__, keys)))
    stride = _pair_stride(p, sample)

    def rows():
        for a in range(1, p):
            i, s = orbits.coset[a]
            inv_a, first = pow(a, -1, p), (a - 1) * (p - 2)  # p - 2 rows per a, b != 1/a
            bs = chain(range(1, inv_a), range(inv_a + 1, p))
            yield a, s, tails[i], islice(bs, -first % stride, None, stride)
    return rows(), any(f[-1] for f in fields.values()), fields


def _scan_task_rows(task) -> list[ScanRow]:
    p, n, _ = task
    rows, _, fields = scan_task(*task)
    return [ScanRow(p, 1, n, a, b, *fields[row[b * s % p]]) for a, s, row, bs in rows for b in bs]


def _scan_task_block(task) -> tuple[str, int]:
    """The CSV lines of one (p, n) as one text block, and its violation count:
    the violation column is last, so a violating line is one ending in ",1"."""
    p, n, _ = task
    rows, violating, _ = scan_task(*task)
    num = [f"{x}," for x in range(p)]  # each int formatted once
    head = [f"{p},1,{n},{x}," for x in range(p)]
    text = "".join([f"{head[a]}{num[b]}{row[b * s % p]}\n"
                    for a, s, row, bs in rows for b in bs])
    return text, text.count(",1\n") if violating else 0


# The fewest CSV lines for which `--jobs` starts a process pool.  Below it a
# pool costs more than it saves: starting it takes about 10 ms, every task's
# text block is pickled back through one pipe, and forked workers ran the
# tasks about 20% slower than the parent.  In interleaved runs piped into a
# hashing reader on a 2-core host, --jobs 2 lost at p <= 97 (389,460 lines)
# and won from p <= 131 (1,015,968 lines) on; table in the README.
POOL_MIN_LINES = 1_000_000


def _scan_tasks(p_max: int, n_filter: int | None, sample: int | None) -> list[tuple]:
    """The tasks (p, n, sample) for every prime p <= p_max and admissible n,
    in ascending (p, n)."""
    return [(p, n, sample) for p in primes_up_to(p_max) for n in admissible_degrees(p)
            if n_filter is None or n == n_filter]


def worker_count(jobs: int, tasks: list[tuple]) -> int:
    """Worker processes for the scan tasks (p, n, sample): 1, that is serial,
    when they write fewer than POOL_MIN_LINES lines, else min(jobs, tasks,
    cpu count), at least 1.  A task writes its (p - 1)(p - 2) pairs thinned
    by the sample stride, so the count is known before any task runs."""
    lines = sum(-(-(p - 1) * (p - 2) // _pair_stride(p, sample)) for p, _, sample in tasks)
    if lines < POOL_MIN_LINES:
        return 1
    return max(1, min(jobs, len(tasks), os.cpu_count() or 1))


def _run_scan(tasks: list[tuple], jobs: int):
    """The text blocks of the tasks, in order: serial unless worker_count > 1,
    so a small scan never imports the pool."""
    workers = worker_count(jobs, tasks)
    if workers == 1:
        yield from map(_scan_task_block, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_scan_task_block, tasks, chunksize=1)


def scan_rows(p_max: int, n_filter: int | None = None, sample: int | None = None):
    """Yield ScanRow for every prime p <= p_max and admissible n, sorted by
    (p, m, n, a, b); the tasks run serially."""
    for task in _scan_tasks(p_max, n_filter, sample):
        yield from _scan_task_rows(task)


def scan_csv_blocks(p_max: int, n_filter: int | None = None,
                    sample: int | None = None, jobs: int = 1):
    """The scan as CSV text, one block of newline-terminated lines per (p, n)
    after one block of comments and header, each with its violation count."""
    tasks = _scan_tasks(p_max, n_filter, sample)
    head = [f"# scan p_max={p_max} n_filter={n_filter if n_filter is not None else 'all'} "
            f"sample={'all' if sample is None else sample}"]
    if sample is not None:
        head += [f"# stride p={p}: {_pair_stride(p, sample)}"
                 for p in dict.fromkeys(p for p, _, _ in tasks)]
    head.append(",".join(SCAN_COLUMNS))
    yield "".join(line + "\n" for line in head), 0
    yield from _run_scan(tasks, jobs)


# ---------------------------------------------------------------------------
# the contour grid


class GridCell(NamedTuple):
    n: int
    p: int
    k: Fraction
    delta: Fraction      # the exact midpoint of delta's enclosure, width below 1e-25
    boundary_p: Fraction  # the red curve p = n * k_{n+3} + 1


def _figure1_degrees(n_min: int, n_max: int):
    """(n, boundary_p, the primes p with n < p-1 <= n*k_{n+3}) per degree n.
    The sieve runs at the call, up to the cap of n_max: n*k_{n+3} grows with n."""
    if not 3 <= n_min <= n_max:
        raise ValueError("need 3 <= n_min <= n_max")
    primes = primes_up_to(math.floor(n_max * B.k_threshold(n_max + 3)) + 1)

    def degrees():
        for n in range(n_min, n_max + 1):
            cap = n * B.k_threshold(n + 3)
            lo, hi = (bisect.bisect_right(primes, t + 1) for t in (n, math.floor(cap)))
            yield n, cap + 1, primes[lo:hi]
    return degrees()


def _delta_num(p: int, n: int) -> int:
    """delta = (hw_lo + hw_hi)/(4n^2) - (w_lo + w_hi)/4 as a numerator over
    4n^2 * _W_DEN, from the integer numerators of both enclosures."""
    g = (n - 1) ** 2
    w_lo, w_hi = B._w_num(p - 1, n)
    return (2 * B._hw_num(p, g) + 2 * g) * (B._W_DEN // B._SCALE) - n * n * (w_lo + w_hi)


def figure1_cells(n_min: int, n_max: int):
    """Cells (n, p) with p prime and n < p-1 <= n*k_{n+3}; delta is the
    difference between the chord bounds derived from Hasse-Weil and from the
    half cube-root expression."""
    for n, boundary_p, ps in _figure1_degrees(n_min, n_max):
        for p in ps:
            yield GridCell(n=n, p=p, k=Fraction(p - 1, n),
                           delta=Fraction(_delta_num(p, n), 4 * n * n * B._W_DEN),
                           boundary_p=boundary_p)


def _k_digits(r: int, n: int) -> tuple[int, str]:
    """r/n, 0 <= r < n, rounded half-even to six decimals as (carry, ".dddddd"):
    carry is 1 where it rounds to 1.000000, so the k of p - 1 = q*n + r is
    f"{q + carry}.dddddd", as `bounds.fixed(p - 1, 6, n)` prints it."""
    whole, frac = B.fixed(r, 6, n).split(".")
    return int(whole), "." + frac


def figure1_tsv_lines(n_min: int, n_max: int):
    """The figure1 TSV as text: the header line, then one block of lines per n.

    delta = h - W/2, h = (p + 1 + 2g*sqrt(p))/(2n^2), W = 3c^2 - (103/19)c + 13/3,
    c = (sqrt(2)*(p - 1)/n)**(1/3), is evaluated in binary64 (u = 2^-53).  Each
    operation and the constants sqrt(2), 103/19, 13/3, 1/3 round by at most u
    relative; sqrt is correctly rounded (IEEE 754), libm's pow is assumed within
    16 ulps (32u), and the rounded exponent costs ln(t)/(3*2^54) < 2u for
    t < 2^17.  By N. J. Higham (Accuracy and Stability of Numerical Algorithms,
    ch. 3), h is then within 5u relative, c within 35u, 3c^2 within 72u and
    (103/19)c within 37u; the three sums and the scaling by 10^6 add u each, times
    M = h + (3c^2 + (103/19)c + 13/3)/2: |fl(delta) - delta| < 80u*M.  The exact
    route prints the enclosure midpoint `_delta_num`, within 1e-25 < u*M of delta.
    So the half-even rounding of x = 10^6*fl(delta) to units = round(x) is
    decided when |x - units| + 10^6*epsilon < 1/2, epsilon = 2^-40*M >
    100*80u*M: x then lies farther than 10^6*epsilon from every half-integer.

    M grows with p (a test pins the float M nondecreasing in every degree
    block of n = 3..62), so M_n, M at the block's largest p, bounds every
    M(p): the test is made first with M_n, one comparison per cell, and with
    M(p) only where that fails.  Float rounding is monotone, so the cells
    both leave, which take the exact route (0.1% for n = 3..30), are those
    the per-line test alone leaves.  A decided delta prints as
    f"{units / 1e6:.6f}", exact for |units| < 2^52: the quotient is below
    2^33, within half an ulp (2^-21 < 5*10^-7) of units/10^6; here
    |delta| < 2^23.  The k column is (p-1)//n plus its residue's `_k_digits`."""
    degrees = _figure1_degrees(n_min, n_max)  # refuses an oversized sieve before the header
    yield "n\tp\tk\tdelta\tboundary_p\n"
    sqrt, r2, c1, c2, third = math.sqrt, math.sqrt(2), 103 / 19, 13 / 3, 1 / 3
    eps6 = 1e6 * 2.0**-40  # 10^6 * epsilon / M
    for n, boundary_p, ps in degrees:
        den, g2, n2 = 4 * n * n * B._W_DEN, 2.0 * (n - 1) ** 2, 2.0 * n * n
        tail = f"\t{B.fixed(boundary_p, 6)}\n"
        kcol = [_k_digits(r, n) for r in range(n)]
        # ps[-1] exists: by Bertrand's postulate a prime lies in (n + 2, 2n + 4]
        h = (ps[-1] + 1 + g2 * sqrt(ps[-1])) / n2
        c = (r2 * ((ps[-1] - 1) / n)) ** third
        block_eps = (h + (3 * c * c + c1 * c + c2) / 2) * eps6  # 10^6 * 2^-40 * M_n
        lines = []
        for p in ps:
            h = (p + 1 + g2 * sqrt(p)) / n2
            c = (r2 * ((p - 1) / n)) ** third
            t1, t2 = 3 * c * c, c1 * c
            x = (h - (t1 - t2 + c2) / 2) * 1e6
            units = round(x)
            d = abs(x - units)
            carry, kfrac = kcol[(p - 1) % n]
            if d + block_eps < 0.5 or d + (h + (t1 + t2 + c2) / 2) * eps6 < 0.5:
                lines.append(f"{n}\t{p}\t{(p - 1) // n + carry}{kfrac}\t{units / 1e6:.6f}{tail}")
            else:
                lines.append(f"{n}\t{p}\t{(p - 1) // n + carry}{kfrac}\t"
                             f"{B.fixed(_delta_num(p, n), 6, den)}{tail}")
        yield "".join(lines)


# ---------------------------------------------------------------------------
# the k-table


def vtable_rows(k_min: int = 2, k_max: int = 100):
    """The CSV fields (k, V, Vtilde, W midpoint, giulietti, np, refinement)
    per integer k, formatted from the integer kernels: V and Vtilde are
    numerators over 6t and W's enclosure [lo, hi] is over _W_DEN.  The
    refinement floor(Vtilde/2) is "-" outside the window 25 < k < 44."""
    ratio, fixed, w_den = B.ratio, B.fixed, B._W_DEN
    for k in range(max(2, k_min), k_max + 1):
        v, tv = B._min_f(k, k // 2 + 5)
        vt, tvt = B._vtilde_num(k)
        w_lo, w_hi = B._w_num(k, 1)
        yield (str(k), ratio(v, 6 * tv), ratio(vt, 6 * tvt), fixed(w_lo + w_hi, 12, 2 * w_den),
               ratio(k + 1, 3), str(w_hi // (2 * w_den)),
               str(vt // (12 * tvt)) if 25 < k < 44 else "-")


def vtable_csv_lines(k_min: int = 2, k_max: int = 100):
    yield "k,V,Vtilde,W,giulietti,np_bound,refinement"
    yield from map(",".join, vtable_rows(k_min, k_max))


# ---------------------------------------------------------------------------
# verification suites (the same engines back the acceptance tests)


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def verify_lemmas(u_grid: int = 10_000, t0_max: int = 60,
                  brute_u: int = 5_000, brute_t: int = 2_000) -> list[Check]:
    out = []

    # (1) threshold criterion vs direct comparison of f_u(t0) and f_u(t0+1);
    # both sides in exact integer arithmetic straight from the definitions:
    # f_u(t) = ((3t^2 - 23t + 26)t + 24(u+3)) / (6t)
    bad = 0
    for t0 in range(6, t0_max + 1):
        thresh12 = t0 * (t0 + 1) * (3 * t0 - 10) - 36  # 12 * k_threshold(t0)
        t1 = t0 + 1
        n0 = (3 * t0 * t0 - 23 * t0 + 26) * t0
        n1 = (3 * t1 * t1 - 23 * t1 + 26) * t1
        for u in range(2, u_grid + 1):
            off = 24 * (u + 3)
            left = 12 * u <= thresh12
            right = (n0 + off) * t1 <= (n1 + off) * t0  # common factor 6 dropped
            if left is not right:
                bad += 1
    out.append(Check("lemma-ladder-biconditional",
                     bad == 0, f"u in [2,{u_grid}], t0 in [6,{t0_max}]: {bad} disagreements"))

    # the packaged predicate agrees on a subgrid (it asserts internally too)
    sub_bad = sum(1 for t0 in range(6, t0_max + 1) for u in range(2, 301)
                  if B.lemma34_check(u, t0) != (u <= B.k_threshold(t0)))
    out.append(Check("lemma-ladder-packaged-predicate", sub_bad == 0,
                     f"u in [2,300], t0 in [6,{t0_max}]: {sub_bad} disagreements"))

    # the ladder minimum against the walk of f_u up t in bounds._min_f, which
    # knows no k_t: it stops where the strictly convex f_u stops falling; both
    # values are numerators over 6t, compared by cross-multiplying
    mism = 0
    for u in range(2, brute_u + 1):
        (vt, tvt), (mn, tmn) = B._vtilde_num(u), B._min_f(u, brute_t)
        mism += vt * tmn != mn * tvt
    out.append(Check("vtilde-equals-brute-min",
                     mism == 0, f"u in [2,{brute_u}], t in [6,{brute_t}]: {mism} mismatches"))

    bad = [t0 for t0 in range(6, t0_max + 1)
           if B.vtilde(B.k_threshold(t0)) != Fraction(3, 2) * t0 * t0
           - Fraction(37, 6) * t0 + 1]
    out.append(Check("checkpoint-identity", not bad, f"t0 in [6,{t0_max}]: bad={bad}"))

    bad = 0
    for u in range(2, brute_u + 1):  # hi - lo <= 1e-20 and lo >= vtilde(u) = vt/(6t)
        lo, hi = B._w_num(u, 1)
        vt, t = B._vtilde_num(u)
        if (hi - lo) * 10**20 > B._W_DEN or lo * 6 * t < vt * B._W_DEN:
            bad += 1
    out.append(Check("w-dominates-vtilde",
                     bad == 0, f"u in [2,{brute_u}], margin 1e-20: {bad} failures"))
    return out


def verify_orders(p_max: int = 100, n_values=(3, 4, 5, 6, 7),
                  per_class: int = 2) -> list[Check]:
    """The order sequences against the closed forms, plus the tangent-contact
    inventory, on the full admissible grid.  order_sequence returns the closed
    form itself on its certificate f_1 != 0, so the comparison in the first
    check cannot fail: what the check confirms is f_1 != 0 (order_sequence
    raises PrecisionTooLow otherwise, the only failure left) and the
    top-order and order-sum identities; it computes no rank.  The contact
    orders are n * min{m >= 1 : f_m != 0} on the same binomial series F_1."""
    out = []
    seq_bad, mult_bad, cases = [], [], 0
    for p in primes_up_to(p_max):
        for n in n_values:
            if (p - 1) % n or n >= p - 1:
                continue
            curves = _class_representatives(p, n, per_class)
            for (a, b) in curves:
                curve = make_curve(make_field(p), n, a, b)
                if LE.inflection_contact_order(curve) != n:
                    mult_bad.append((p, n, a, b, "inflection-contact"))
                if LE.branch_contact_order(curve) != n + 1:
                    mult_bad.append((p, n, a, b, "branch-contact"))
                mults = LE.tangent_line_branch_intersections(curve)
                if sum(mults) != 2 * n or mults != [1] * (n - 1) + [n + 1]:
                    mult_bad.append((p, n, a, b, "line-total"))
                for s in range(2, n):
                    if p <= s * (n + 1):
                        continue
                    cases += 1
                    infl = LE.order_sequence(curve, "inflection", s)
                    br = LE.order_sequence(curve, "infinite-branch", s)
                    ok = (infl.orders == LE.inflection_orders(n, s)
                          and br.orders == LE.branch_orders(n, s)
                          and infl.orders[-1] == LE.inflection_top_order(n, s)
                          and br.orders[-1] == LE.branch_top_order(n, s)
                          and sum(infl.orders) == LE.inflection_order_sum(n, s)
                          and sum(br.orders) == LE.branch_order_sum(n, s))
                    if not ok:
                        seq_bad.append((p, n, s, a, b))
    out.append(Check("order-sequences-match-closed-forms", not seq_bad,
                     f"{cases} (p,n,s,curve) cases: bad={seq_bad[:4]}"))
    out.append(Check("tangent-contact-multiplicities", not mult_bad,
                     f"bad={mult_bad[:4]}"))
    return out


def _class_representatives(p: int, n: int, per_class: int) -> list[tuple[int, int]]:
    """First `per_class` pairs (a, b), canonical order, with n1 = n and with
    n1 = 0 (where such b exist): the least b of each class, with the least
    a, a*b != 1."""
    ctx, picks = make_field(p), []
    for target in (n, 0):
        bs = [b for b in range(1, p) if nth_root_count(ctx, b, n) == target][:per_class]
        picks += [(2 if b == 1 else 1, b) for b in bs]
    return picks


def _expand(blocks):
    """(p, n, a, b, lhs, restricted, D) at every point of the cells in
    blocks, in (p, n, a, b) order."""
    for p, n, coset, cells in blocks:
        if not any(cells):
            continue
        for a in range(1, p):
            i, s = coset[a]  # a = r_i * s: the cell (r_i, c) holds (a, c/s)
            if row := cells[i]:
                inv_s = pow(s, -1, p)
                for b in sorted([c * inv_s % p for c in row]):
                    yield (p, n, a, b, *row[b * s % p])


class _ChordSweep(NamedTuple):
    points_checked: int
    holds: int
    violating: tuple           # lhs != restricted
    off_decomposition: tuple   # restricted != lhs + (n^2 - n)*D


class ChordSweep(_ChordSweep):
    """The counts of the prop41 sweep and the cells that fail each check, per
    (p, n): (p, n, coset, cells) with cells[i] = {c: (lhs, restricted, D)}
    on orbit row i.  The record lists are expanded from the cells when read
    and cached in the instance dict (no __slots__, so it has one)."""

    @property
    def violation_count(self) -> int:
        return self.points_checked - self.holds

    @property
    def first_violation(self):
        return next(_expand(self.violating), None)

    @functools.cached_property
    def violations(self) -> list:  # (p, n, a, b, lhs, restricted, tangency)
        return list(_expand(self.violating))

    @functools.cached_property
    def decomposition_failures(self) -> list:  # (p, n, a, b)
        return [rec[:4] for rec in _expand(self.off_decomposition)]

    @property
    def refined_failures(self) -> list:  # the same condition on orbit rows (prop41_sweep)
        return self.decomposition_failures


def prop41_sweep(p_max: int = 199) -> ChordSweep:
    """Every prime p <= p_max, every proper divisor n >= 2 of p-1 with
    k >= 3, every P = (a, b) with ab not in {0, 1}.  Each orbit cell (r_i, c)
    is decided once for its k points (r_i*s, c/s), s in mu_k, from the orbit
    row and the chord column n_P = col[c]: lhs = 2n^2*col, restricted =
    n^2*hist - n*D and refined = n^2*(hist - D), so a cell passes all three
    checks iff D = 0 and hist = 2*col.  Only failing cells are kept.

    On these rows the decomposition restricted = lhs + (n^2 - n)*D and the
    refined identity lhs = refined are one condition, hist = 2*col + D, so
    `decomposition_failures` and `refined_failures` agree by construction,
    as they do in `curve.curve_cell` (refined = n^2*(hits - D)); the
    independent refined counts are the brute CurveCells of tests/test_orbits.py
    and tests/test_curve.py, pinned to the orbit rows and to `curve_cell`."""
    checked = holds = 0
    violating, off_decomposition = [], []
    for p in primes_up_to(p_max):
        if p < 7:  # k = (p-1)/n >= 3 needs p >= 7
            continue
        ctx = make_field(p)
        for n in admissible_degrees(p):
            k = (p - 1) // n
            if k < 3:
                continue
            orbits = orbit_counts(ctx, n)
            cols = C.chord_columns(C.build_polygon(ctx, k), orbits.reps)
            nn, bad, off = n * n, [], []
            for r, (hist, tang), col in zip(orbits.reps, orbits.rows, cols):
                skip = pow(r, -1, p)  # c = 0 and c = 1/r are no curve's
                cells = {c: (2 * nn * x, nn * h - n * d, d)
                         for c, h, d, x in zip(range(p), hist, tang, col)
                         if (d or h != 2 * x) and c and c != skip}
                bad.append({c: v for c, v in cells.items() if v[0] != v[1]})
                off.append({c: v for c, v in cells.items() if v[1] != v[0] + (nn - n) * v[2]})
                holds += k * (p - 2 - len(bad[-1]))
            checked += len(bad) * k * (p - 2)
            violating.append((p, n, orbits.coset, bad))
            off_decomposition.append((p, n, orbits.coset, off))
    return ChordSweep(checked, holds, tuple(violating), tuple(off_decomposition))


def verify_prop41_suite(p_max: int = 199) -> list[Check]:
    sweep = prop41_sweep(p_max)
    first = sweep.first_violation
    return [
        Check("chord-identity-as-stated", first is None,
              f"{sweep.points_checked} points, {sweep.violation_count} violations"
              + (f"; first (p,n,a,b,lhs,rhs,D)={first}" if first else "")),
        Check("chord-identity-tangency-decomposition",
              not sweep.decomposition_failures,
              f"N_p = 2n^2 n_P + (n^2-n) D exact at all {sweep.points_checked} points"),
        Check("chord-identity-refined-exclusion", not sweep.refined_failures,
              "2n^2 n_P equals the count excluding x^n = y^n everywhere"),
    ]


def verify_suite(name: str, p_max: int | None = None) -> list[Check]:
    if name == "lemmas":
        return verify_lemmas()
    if name == "orders":
        return verify_orders(p_max or 100)
    if name == "prop41":
        return verify_prop41_suite(p_max or 199)
    if name == "all":
        return (verify_lemmas() + verify_orders(p_max or 100)
                + verify_prop41_suite(p_max or 199))
    raise ValueError(f"unknown suite {name!r}")
