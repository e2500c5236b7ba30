"""Sweep engines behind the command-line surface.

The soundness scan enumerates, for each prime p and each admissible degree n,
every parameter pair (a, b) with a*b outside {0, 1} (or a deterministic
stride-subsample), counts points on the nonsingular model and compares
against every applicable upper bound.  Counting is one orbit pass per (p, n):
the counts depend only on the coset of a modulo mu_k = (F_p^*)^n and on
a*b, so `curve.orbit_counts` gives the int columns of n representatives and
every (a, b) reads its orbit's column entry.  The columns after b depend only
on (affine_total, n1, n2); each distinct key gets one shared record with its
CSV tail formatted once, and each (p, n) is written as one text block.  The
chord sweep behind `verify prop41` decides each orbit cell once, from the
same rows and the chord columns of `chords.chord_columns`.

All output is generated in sorted key order with fixed formatting; identical
invocations are byte-identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import bounds as B
from . import chords as C
from . import localexp as LE
from .curve import class_tables, make_curve, orbit_counts
from .ffield import make_field


def primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i:: i] = b"\x00" * len(sieve[i * i:: i])
    return [i for i in range(limit + 1) if sieve[i]]


def admissible_degrees(p: int) -> list[int]:
    """Divisors n of p-1 with 2 <= n <= p-2."""
    return [n for n in range(2, p - 1) if (p - 1) % n == 0]


# ---------------------------------------------------------------------------
# soundness scan


@dataclass(frozen=True)
class ScanRow:
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


SCAN_COLUMNS = ("p", "m", "n", "a", "b", "k", "affine_total", "model_total",
                "hw", "sv_best", "sv_best_s", "w_bound", "applicable_flags",
                "violation")


def _pair_stride(p: int, sample: int | None) -> int:
    if sample is None:
        return 1
    total = (p - 1) * (p - 1) - (p - 1)  # pairs with ab not in {0, 1}
    return max(1, total // max(1, sample))


class _ScanTail(NamedTuple):
    """The columns k..violation of every row with one (affine_total, n1, n2)."""

    fields: tuple
    csv: str


def scan_task(p: int, n: int, sample: int | None) -> list[tuple[int, int, _ScanTail]]:
    """All rows for one (p, n), in (a, b) order, as (a, b, tail); the curve
    (a, b) with a = r*s, s in mu_k, reads the orbit counts of (r, b*s)."""
    ctx = make_field(p)
    t = class_tables(ctx, n)
    rc, inv = t.root_count, t.inv
    k = (p - 1) // n
    hw = B.hasse_weil(p, (n - 1) ** 2).value
    w_val = B.w_scalar_value(p, n)
    applicable_s = [s for s in range(2, n) if 2 * n * (s - 1) < p]
    sv_best = {}
    for n1 in (0, n):
        for n2 in (0, n):
            cands = [(math.floor(B.sv_raw(p, n, s, n1, n2)["raw"]), s)
                     for s in applicable_s]
            sv_best[(n1, n2)] = min(cands) if cands else (None, None)
    flags = "hw" + ("+sv" if applicable_s else "") + ("+w" if w_val is not None else "")
    shared: dict[tuple[int, int, int], _ScanTail] = {}

    def tail(total: int, n1: int, n2: int) -> _ScanTail:
        key = (total, n1, n2)
        if key not in shared:
            sv, sv_s = sv_best[(n1, n2)]
            model = total + 2 * n2
            violation = (model > hw or (sv is not None and model > sv)
                         or (w_val is not None and model > w_val))
            fields = (k, total, model, hw, sv, sv_s, w_val, flags, violation)
            csv = ",".join("-" if v is None else str(v) for v in fields[:7])
            shared[key] = _ScanTail(fields, f"{csv},{flags},{int(violation)}")
        return shared[key]

    orbits = orbit_counts(ctx, n)
    tails = [[c and c != inv[r] and tail(total, rc[c], rc[inv[r]])
              for c, total in enumerate(row.affine_total)]
             for r, row in zip(orbits.reps, orbits.rows)]
    rows = []
    for a in range(1, p):
        i, s = orbits.coset[a]
        row, inv_a = tails[i], inv[a]
        rows.extend([(a, b, row[b * s % p]) for b in range(1, p) if b != inv_a])
    return rows[::_pair_stride(p, sample)]


def _scan_task_rows(task) -> list[ScanRow]:
    p, n, _ = task
    return [ScanRow(p, 1, n, a, b, *tail.fields) for a, b, tail in scan_task(*task)]


def _scan_task_block(task) -> tuple[str, int]:
    """The CSV lines of one (p, n) as one text block, and its violation count."""
    p, n, _ = task
    rows = scan_task(*task)
    head, num = f"{p},1,{n},", [str(x) for x in range(p)]  # each int formatted once
    text = "".join([f"{head}{num[a]},{num[b]},{tail.csv}\n" for a, b, tail in rows])
    return text, len([1 for _, _, tail in rows if tail.fields[-1]])


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for a scan: min(jobs, tasks, cpu count), at least 1."""
    return max(1, min(jobs, tasks, os.cpu_count() or 1))


def _run_scan(fn, p_max: int, n_filter: int | None, sample: int | None, jobs: int):
    """fn over the tasks (p, n, sample) for every prime p <= p_max and
    admissible n, in ascending (p, n); serial unless worker_count > 1."""
    tasks = [(p, n, sample) for p in primes_up_to(p_max) for n in admissible_degrees(p)
             if n_filter is None or n == n_filter]
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, tasks, chunksize=1)


def scan_rows(p_max: int, n_filter: int | None = None,
              sample: int | None = None, jobs: int = 1):
    """Yield ScanRow for every prime p <= p_max and admissible n, sorted by
    (p, m, n, a, b)."""
    for rows in _run_scan(_scan_task_rows, p_max, n_filter, sample, jobs):
        yield from rows


def scan_csv_blocks(p_max: int, n_filter: int | None = None,
                    sample: int | None = None, jobs: int = 1):
    """The scan as CSV text, one block of newline-terminated lines per (p, n)
    after one block of comments and header, each with its violation count."""
    head = [f"# scan p_max={p_max} n_filter={n_filter if n_filter is not None else 'all'} "
            f"sample={'all' if sample is None else sample}"]
    if sample is not None:
        head += [f"# stride p={p}: {_pair_stride(p, sample)}" for p in primes_up_to(p_max)
                 if any(n_filter in (None, n) for n in admissible_degrees(p))]
    head.append(",".join(SCAN_COLUMNS))
    yield "".join(line + "\n" for line in head), 0
    yield from _run_scan(_scan_task_block, p_max, n_filter, sample, jobs)


# ---------------------------------------------------------------------------
# the contour grid


@dataclass(frozen=True)
class GridCell:
    n: int
    p: int
    k: Fraction
    delta: Fraction      # the exact midpoint of delta's enclosure, width below 1e-25
    boundary_p: Fraction  # the red curve p = n * k_{n+3} + 1


def _figure1_degrees(n_min: int, n_max: int):
    """(n, boundary_p, the primes p with n < p-1 <= n*k_{n+3}) per degree n."""
    if not 3 <= n_min <= n_max:
        raise ValueError("need 3 <= n_min <= n_max")
    caps = {n: n * B.k_threshold(n + 3) for n in range(n_min, n_max + 1)}
    primes = primes_up_to(math.floor(max(caps.values())) + 1)
    for n, cap in caps.items():
        top = math.floor(cap)
        yield n, cap + 1, [p for p in primes if n < p - 1 <= top]


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


def figure1_tsv_lines(n_min: int, n_max: int):
    yield "n\tp\tk\tdelta\tboundary_p"
    for n, boundary_p, ps in _figure1_degrees(n_min, n_max):
        den, tail = 4 * n * n * B._W_DEN, B.fixed(boundary_p, 6)
        for p in ps:
            yield f"{n}\t{p}\t{B.fixed(p - 1, 6, n)}\t{B.fixed(_delta_num(p, n), 6, den)}\t{tail}"


# ---------------------------------------------------------------------------
# the k-table


def vtable_rows(k_min: int = 2, k_max: int = 100):
    """(k, V, Vtilde, W midpoint, giulietti, np, refinement) per integer k."""
    for k in range(max(2, k_min), k_max + 1):
        v, _ = B._min_f(k, k // 2 + 5)
        vt = B.vtilde(k)
        w_lo, w_hi = B._w_num(k, 1)
        ref = math.floor(vt / 2) if 25 < k < 44 else None
        yield (k, v, vt, Fraction(w_lo + w_hi, 2 * B._W_DEN), B.giulietti_bound(k),
               w_hi // (2 * B._W_DEN), ref)


def vtable_csv_lines(k_min: int = 2, k_max: int = 100):
    yield "k,V,Vtilde,W,giulietti,np_bound,refinement"
    for (k, v, vt, w, gi, np_v, ref) in vtable_rows(k_min, k_max):
        yield ",".join((
            str(k), B.ratio(v), B.ratio(vt), B.fixed(w, 12), B.ratio(gi), str(np_v),
            "-" if ref is None else str(ref),
        ))


# ---------------------------------------------------------------------------
# verification suites (the same engines back the acceptance tests)


@dataclass
class Check:
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

    base = [(3 * t * t - 23 * t + 26) * t for t in range(brute_t + 1)]
    mism = 0
    for u in range(2, brute_u + 1):
        off = 24 * (u + 3)
        best_n, best_d = base[6] + off, 6
        for t in range(7, brute_t + 1):
            num = base[t] + off
            if num * best_d < best_n * t:
                best_n, best_d = num, t
        if B.vtilde(u) != Fraction(best_n, 6 * best_d):
            mism += 1
    out.append(Check("vtilde-equals-brute-min",
                     mism == 0, f"u in [2,{brute_u}], t in [6,{brute_t}]: {mism} mismatches"))

    bad = [t0 for t0 in range(6, t0_max + 1)
           if B.vtilde(B.k_threshold(t0)) != Fraction(3, 2) * t0 * t0
           - Fraction(37, 6) * t0 + 1]
    out.append(Check("checkpoint-identity", not bad, f"t0 in [6,{t0_max}]: bad={bad}"))

    bad = 0
    for u in range(2, brute_u + 1):  # hi - lo <= 1e-20 and lo >= vtilde(u)
        lo, hi = B._w_num(u, 1)
        vt = B.vtilde(u)
        if (hi - lo) * 10**20 > B._W_DEN or lo * vt.denominator < vt.numerator * B._W_DEN:
            bad += 1
    out.append(Check("w-dominates-vtilde",
                     bad == 0, f"u in [2,{brute_u}], margin 1e-20: {bad} failures"))
    return out


def verify_orders(p_max: int = 100, n_values=(3, 4, 5, 6, 7),
                  per_class: int = 2) -> list[Check]:
    """Pivot-computed order sequences against the closed forms, plus the
    tangent-contact inventory, on the full admissible grid."""
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
    n1 = 0 (where such b exist)."""
    ctx = make_field(p)
    t = class_tables(ctx, n)
    rc = t.root_count
    picks = []
    for target in (n, 0):
        found = 0
        for b in range(1, p):
            if rc[b] != target:
                continue
            for a in range(1, p):
                if a * b % p != 1:
                    picks.append((a, b))
                    found += 1
                    break
            if found >= per_class:
                break
    return picks


@dataclass
class ChordSweep:
    points_checked: int
    holds: int
    violations: list          # (p, n, a, b, lhs, restricted, tangency)
    diagonal_violations: list
    decomposition_failures: list
    refined_failures: list


def prop41_sweep(p_max: int = 199) -> ChordSweep:
    """Every prime p <= p_max, every proper divisor n >= 2 of p-1 with
    k >= 3, every P = (a, b) with ab not in {0, 1}.  Each orbit cell (r_i, c)
    is decided once for its k points (r_i*s, c/s), s in mu_k; only failing
    cells are expanded into records, in (a, b) order."""
    checked = holds = 0
    violations, diag_viol, decomp_bad, refined_bad = [], [], [], []
    for p in primes_up_to(p_max):
        if p < 7:  # k = (p-1)/n >= 3 needs p >= 7
            continue
        ctx = make_field(p)
        for n in admissible_degrees(p):
            k = (p - 1) // n
            if k < 3:
                continue
            orbits = orbit_counts(ctx, n)
            inv = class_tables(ctx, n).inv
            cols = C.chord_columns(C.build_polygon(ctx, k), orbits.reps)
            nn2 = 2 * n * n
            failing = []  # per r_i: c -> (lhs, restricted, d, refined) of failing cells
            for r, row, col in zip(orbits.reps, orbits.rows, cols):
                # a cell passes all three checks iff lhs = restricted = refined, D = 0
                cells = {c: (lhs, rs, d, rf)
                         for c, lhs, rs, d, rf in zip(range(p), [nn2 * x for x in col],
                                                      row.restricted, row.tangency, row.refined)
                         if not (lhs == rs == rf and d == 0) and c and c != inv[r]}
                failing.append(cells)
                checked += k * (p - 2)  # every c but 0 and 1/r
                holds += k * (p - 2 - sum(lhs != rs for lhs, rs, _, _ in cells.values()))
            for a in range(1, p):
                i, s = orbits.coset[a]
                if not (cells := failing[i]):
                    continue
                inv_s = inv[s]
                for b in sorted([c * inv_s % p for c in cells]):
                    lhs, restricted, d, ref = cells[b * s % p]
                    if lhs != restricted:
                        rec = (p, n, a, b, lhs, restricted, d)
                        violations.append(rec)
                        if a == b:
                            diag_viol.append(rec)
                    if restricted != lhs + (n * n - n) * d:
                        decomp_bad.append((p, n, a, b))
                    if lhs != ref:
                        refined_bad.append((p, n, a, b))
    return ChordSweep(points_checked=checked, holds=holds,
                      violations=violations, diagonal_violations=diag_viol,
                      decomposition_failures=decomp_bad,
                      refined_failures=refined_bad)


def verify_prop41_suite(p_max: int = 199) -> list[Check]:
    sweep = prop41_sweep(p_max)
    first = sweep.violations[0] if sweep.violations else None
    return [
        Check("chord-identity-as-stated", not sweep.violations,
              f"{sweep.points_checked} points, {len(sweep.violations)} violations"
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
