"""The seeded query mix of the `queries` workload, and the check of each answer.

A round is 162 single-curve CLI queries with fixed counts per kind (`MIX`),
in one shuffled order for every seed.  Fields come from a fixed pool: 16
primes, the first usable one from each of 16 sizes spaced evenly from 940
to 29000, and 10 small extension fields, so fields repeat within a round
while the work per round stays about the same from seed to seed.  The counts per kind are a choice,
not a measured usage; the pool and the three degrees per prime of the count
queries are set so that a `count` answer takes about 20 ms at the median
and up to 0.3 s on 2 cores of a Xeon.
14 of the queries are outside the CLI contract on purpose: a composite p,
an n that does not divide q - 1 and a polygon vertex as the chord point.
The CLI must answer those with exit 2.  Order sequences over F_{p^m} are
not in the mix: the CLI raises on most of them (ROADMAP item 5a), and every
op of the benchmark must answer.

`check` verifies an answer from invariants computed independently of the
program, so it holds for every seed; the default seed is also pinned byte
for byte in reference.json.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

# POOL holds the first usable prime from each target on: the midpoints of
# 16 equal bins of [1, 30000], so the pool covers the prime fields up to
# 3e4 evenly and the median pool prime, which sets the median cost of a
# class-table build, is about 15000
PRIME_MAX = 30_000
TARGETS = tuple(round(PRIME_MAX * (2 * i + 1) / 32) for i in range(16))
EXT_FIELDS = ((3, 4), (5, 3), (7, 2), (11, 2), (13, 2), (17, 2), (3, 5), (7, 3),
              (23, 2), (31, 2))
COMPOSITES = (9, 15, 21, 25, 33, 49, 91, 1001, 3599, 10403)

# counts per round; the prime-field kinds are multiples of the pool size
MIX = (("count", 48), ("count-ext", 10), ("bounds", 32), ("bounds-ext", 10),
       ("orders", 32), ("chords", 16),
       ("nonprime", 5), ("nondivisor", 5), ("vertex", 4))
MIX_TOTAL = sum(c for _, c in MIX)
COUNT_DEGREES_PER_FIELD = 3
ORDER_SEED = 1


@dataclass(frozen=True)
class Query:
    kind: str
    argv: tuple
    p: int
    m: int
    n: int
    s: int = 0
    point: str = ""


def _is_prime(x: int) -> bool:
    return x >= 2 and all(x % d for d in range(2, math.isqrt(x) + 1))


def _degrees(q: int, lo: int, hi: int) -> list[int]:
    """Divisors n of q - 1 with lo <= n <= min(hi, q - 2)."""
    return [d for d in range(lo, min(hi, q - 2) + 1) if (q - 1) % d == 0]


def _chord_sides(p: int) -> list[int]:
    return [k for k in range(3, 25) if (p - 1) % k == 0]


def _usable(p: int) -> bool:
    return (_is_prime(p) and len(_degrees(p, 2, 24)) >= COUNT_DEGREES_PER_FIELD
            and bool(_degrees(p, 3, 8)) and bool(_chord_sides(p)))


POOL = tuple(next(x for x in range(t, 2 * t) if _usable(x)) for t in TARGETS)


def _pair(rng: random.Random, p: int) -> tuple[int, int]:
    while True:
        a, b = rng.randrange(1, p), rng.randrange(1, p)
        if a * b % p != 1:
            return a, b


def _ext_pair(rng: random.Random, p: int, m: int) -> tuple[str, str]:
    # a in F_p^*, b with a nonzero top coefficient: a*b is not in F_p, so != 1
    a = rng.randrange(1, p)
    b = [rng.randrange(p) for _ in range(m - 1)] + [rng.randrange(1, p)]
    return str(a), ",".join(map(str, b))


def _curve_argv(cmd, p, m, n, a, b):
    argv = [cmd, "--p", str(p)]
    if m > 1:
        argv += ["--m", str(m)]
    return tuple(argv + ["--n", str(n), "--a", str(a), "--b", str(b)])


def _spread(seq, k: int, j: int):
    """The j-th of k picks spread evenly over seq (with repeats when k > len(seq))."""
    return seq[round(j * (len(seq) - 1) / max(1, k - 1)) if k <= len(seq) else j % len(seq)]


def _orders(p, n, s, point, a, b):
    argv = _curve_argv("orders", p, 1, n, a, b) + ("--s", str(s), "--point", point)
    return Query("orders", argv, p, 1, n, s, point)


def _chords(kind, p, n, a, b):
    return Query(kind, ("chords", "--p", str(p), "--n", str(n), "--px", str(a),
                        "--py", str(b)), p, 1, n)


def generate(seed: int, count: int = MIX_TOTAL) -> list[Query]:
    """The first `count` queries of the shuffled mix for `seed`.

    The seed draws the curves (a, b), the chord points and the inputs
    outside the contract.  The fields, degrees and order of the kinds are
    the same for every seed, so the work of a round barely moves with the
    seed: prime-field queries cycle through the pool, so every pool prime
    gets the same number of each kind, with degrees n spread evenly over the
    divisors of q - 1 in range; count queries cycle through three degrees per
    prime and chord queries use one polygon per prime, so the class tables
    built are the same for every seed.
    """
    rng = random.Random(seed)
    primes = POOL
    count_n = {p: [_spread(_degrees(p, 2, 24), COUNT_DEGREES_PER_FIELD, j)
                   for j in range(COUNT_DEGREES_PER_FIELD)] for p in primes}
    side = {p: max(_chord_sides(p)) for p in primes}
    mix = dict(MIX)
    out = []
    for i in range(mix["count"]):
        p = primes[i % len(primes)]
        n = count_n[p][i // len(primes) % COUNT_DEGREES_PER_FIELD]
        out.append(Query("count", _curve_argv("count", p, 1, n, *_pair(rng, p)), p, 1, n))
    for i in range(mix["bounds"]):
        p = primes[i % len(primes)]
        per_prime = mix["bounds"] // len(primes)
        n = _spread(_degrees(p, 2, 12), per_prime, i // len(primes))
        out.append(Query("bounds", _curve_argv("bounds", p, 1, n, *_pair(rng, p)), p, 1, n))
    for kind in ("count-ext", "bounds-ext"):
        for i in range(mix[kind]):
            p, m = EXT_FIELDS[i % len(EXT_FIELDS)]
            per_field = mix[kind] // len(EXT_FIELDS)
            n = _spread(_degrees(p**m, 2, 24 if kind == "count-ext" else 12), per_field,
                        i // len(EXT_FIELDS))
            argv = _curve_argv(kind.split("-")[0], p, m, n, *_ext_pair(rng, p, m))
            out.append(Query(kind, argv, p, m, n))
    for i in range(mix["orders"]):
        p = primes[i % len(primes)]
        j = i // len(primes)
        n = _spread(_degrees(p, 3, 8), mix["orders"] // len(primes), j)
        s = 2 + j % 2 if n > 3 else 2
        point = ("inflection", "infinite-branch")[(i + j) % 2]
        out.append(_orders(p, n, s, point, *_pair(rng, p)))
    for i in range(mix["chords"]):
        p = primes[i % len(primes)]
        # a*b != 1, so P is never a polygon vertex (x, 1/x)
        out.append(_chords("chords", p, (p - 1) // side[p], *_pair(rng, p)))
    for _ in range(mix["vertex"]):
        p = rng.choice(primes)
        n = (p - 1) // side[p]
        x = pow(rng.randrange(1, p), n, p)  # a k-th root of unity
        out.append(_chords("vertex", p, n, x, pow(x, -1, p)))
    for _ in range(mix["nonprime"]):
        p = rng.choice(COMPOSITES)
        cmd = rng.choice(("count", "bounds"))
        out.append(Query("nonprime", _curve_argv(cmd, p, 1, 2, *_pair(rng, p)), p, 1, 2))
    for _ in range(mix["nondivisor"]):
        p = rng.choice(primes)
        n = rng.choice([d for d in range(3, 31) if (p - 1) % d])
        cmd = rng.choice(("count", "bounds"))
        out.append(Query("nondivisor", _curve_argv(cmd, p, 1, n, *_pair(rng, p)), p, 1, n))
    # the same order for every seed: a class table shared by two queries is
    # built by the one that comes first, so the order moves cost between kinds
    random.Random(ORDER_SEED).shuffle(out)
    return out[:count]


# ---------------------------------------------------------------------------
# answer checks


def _closed_form_orders(n: int, s: int, point: str) -> list[int]:
    if point == "inflection":
        vals = {i + j * n for i in range(s) for j in range(s) if i + j <= s}
    else:
        vals = {i + j * (n + 1) - 1 for i in range(s + 1) for j in range(s + 1)
                if i + j <= s} - {-1, s * (n + 1) - 1}
    return sorted(vals)


def _orders_ok(q: Query, rc, out: str) -> bool:
    lines = out.splitlines()
    if rc != 0 or len(lines) != 3 or lines[2] != "verdict: MATCH":
        return False
    want = _closed_form_orders(q.n, q.s, q.point)
    return lines[0] == "orders: " + " ".join(map(str, want))


def check(q: Query, rc, out: str) -> bool:
    """True when an answer that returned exit code `rc` is correct."""
    try:
        if q.kind in ("count", "count-ext"):
            r = json.loads(out)
            return rc == 0 and r["model_total"] == (r["affine_total"]
                                                    + r["branches_at_infinity_rational"])
        if q.kind in ("bounds", "bounds-ext"):
            reps = [json.loads(line) for line in out.splitlines()]
            qq, g = q.p**q.m, (q.n - 1) ** 2
            names = ["hasse_weil"] + [f"sv_s{s}" for s in range(2, q.n)] + ["w"]
            return (rc == 0 and [r["name"] for r in reps] == names
                    and reps[0]["value"] == qq + 1 + math.isqrt(4 * g * g * qq))
        if q.kind == "orders":
            return _orders_ok(q, rc, out)
        if q.kind == "chords":
            r = json.loads(out)
            n = q.n
            holds = r["lhs_2n2_nP"] == r["N_p"]
            return (rc == (0 if holds else 1)
                    and r["verdict"] == ("PASS" if holds else "FAIL")
                    and r["lhs_2n2_nP"] == 2 * n * n * r["n_P"]
                    and r["N_p"] == r["lhs_2n2_nP"] + (n * n - n) * r["tangency"]
                    and r["refined_verdict"] == "PASS")
        if q.kind == "vertex":
            return rc == 2 and json.loads(out)["error"] == "VertexQuery"
        return rc == 2  # nonprime, nondivisor
    except (ValueError, KeyError, TypeError):  # unparsable or incomplete output
        return False
