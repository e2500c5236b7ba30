"""End-to-end verification gate.

One test per advertised guarantee, each run at full stated scale with exact
comparisons (the only tolerances are the 1e-20 interval margin of the
cube-root bound and the 1e-6 two-route agreement of the contour grid).
Every test prints a single PASS/FAIL summary line (visible with -s).

The chord-identity sweep checks the classical statement, with the diagonal
X = Y as the only non-axis exclusion.  That statement is false at every
point on a tangent of XY = 1 at a polygon vertex; the first counterexample
is p = 7, n = 2, P = (1, 6), with n_P = 0 but N_p = 2.  The test passes by
pinning that failure set exactly: every admissible point is checked, the
violations are precisely the points on a vertex tangent (found by
rasterizing the tangent lines, independently of the orbit rows), and each
is off by exactly (n^2 - n) per tangent.  tests/test_chords.py pins the
decomposition and the x^n != y^n refinement point by point; the README
walks through the finding.
"""

import math
from collections import Counter

from gfcurves import harness as H
from gfcurves.bounds import giulietti_bound, np_bound_value, vtilde
from gfcurves.curve import count_points, count_points_fast, make_curve, smoothness_scan
from gfcurves.ffield import make_field, nth_root_count
from gfcurves.chords import build_polygon
from brute_oracles import diagonal_violations, nonzero_elements


def report(name: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


# -- 1. bound soundness ---------------------------------------------------------


def test_bound_soundness_sweep_full_to_131():
    """Every prime p <= 131, every n | p-1 in [2, p-2], every (a, b) with
    ab not in {0, 1}: the model count never exceeds any applicable bound.
    The O(q/n)-per-curve counting pass makes the full sweep cheap, so no
    stride subsampling is used (stride = 1)."""
    curves = 0
    violations = []
    for row in H.scan_rows(131):
        curves += 1
        if row.violation:
            violations.append(row)
    ok = report("bound-soundness-sweep", not violations,
                f"{curves} curves at stride=1, {len(violations)} violations"
                + (f"; first: {violations[0]}" if violations else ""))
    assert ok


# -- 2. the chord identity, as stated ----------------------------------------------


def test_chord_identity_sweep_as_stated():
    """2 n^2 n_P = N_p for every prime p <= 199, every proper divisor
    n >= 2 of p-1 with k >= 3, every P = (a, b) with ab not in {0, 1},
    where N_p excludes only the axes and the diagonal X = Y.  Zero
    tolerance.

    The statement as written is false: a tangent of XY = 1 at a polygon
    vertex (t, 1/t) is the line x + t^2 y = 2t, and each one through P adds
    n^2 - n curve points with x^n = y^n but x != y, so
    N_p = 2 n^2 n_P + (n^2 - n) D, D the number of vertex tangents through
    P.  The first counterexample of the sweep is p=7, n=2, P=(1,6): n_P = 0,
    N_p = 2, D = 1 (only the tangent x + 4y = 4 at the vertex (2, 4) passes
    through P; equivalently, t = 4 is the only root of a t^2 - 2t + b =
    t^2 - 2t + 6 in mu_3 = {1, 2, 4}); P=(3,6) lies on two tangents
    (N_p = 4, D = 2).

    The test passes by pinning the failure set exactly: no admissible point
    is skipped, the violations are precisely the points on a vertex
    tangent, with D rasterized from the tangent lines themselves rather
    than taken from the orbit rows, and each violation is off by exactly
    (n^2 - n) D.
    """
    sweep = H.prop41_sweep(199)

    # the two corrected statements hold everywhere, pinning the diagnosis
    assert not sweep.decomposition_failures, sweep.decomposition_failures[:5]
    assert not sweep.refined_failures, sweep.refined_failures[:5]

    # (a) no point is missing
    pairs = [(p, n) for p in range(7, 200) if _prime_power(p) == (p, 1)
             for n in range(2, p - 1) if (p - 1) % n == 0 and (p - 1) // n >= 3]
    assert sweep.points_checked == sum((p - 1) * (p - 2) for p, n in pairs)
    assert sweep.holds + len(sweep.violations) == sweep.points_checked

    # (b) the violations are exactly the points on a vertex tangent
    tangent_d = {}
    for p, n in pairs:
        for (x, y), d in _vertex_tangent_counts(p, (p - 1) // n).items():
            tangent_d[(p, n, x, y)] = d
    recorded = {v[:4] for v in sweep.violations}  # (p, n, a, b)
    assert len(recorded) == len(sweep.violations)
    missing = sorted(tangent_d.keys() - recorded)
    extra = sorted(recorded - tangent_d.keys())

    # (c) each violation is off by exactly (n^2 - n) D, and the sweep's D
    # (from the orbit rows) equals the geometric one
    wrong_size = [v for v in sweep.violations
                  if v[6] != tangent_d.get(v[:4])
                  or v[5] - v[4] != (v[1] * v[1] - v[1]) * v[6]]

    first = sweep.violations[0] if sweep.violations else None
    ok = report(
        "chord-identity-as-stated",
        not missing and not extra and not wrong_size,
        f"{sweep.points_checked} points checked; {len(sweep.violations)} violations "
        f"({len(diagonal_violations(sweep))} on the diagonal); "
        f"first (p,n,a,b,lhs,N_p,D)={first}; {len(tangent_d)} points on a vertex "
        f"tangent: missing={missing[:3]} extra={extra[:3]} "
        f"wrong size={wrong_size[:3]}",
    )
    assert ok
    assert first == (7, 2, 1, 6, 0, 2, 1)


def _vertex_tangent_counts(p, k):
    """D at every point off the axes and off XY = 1: the number of tangents
    x + t^2 y = 2t of XY = 1 at the vertices (t, 1/t) of the k-gon through
    it, found by rasterizing each tangent across its p points."""
    counts = Counter()
    for t, _ in build_polygon(make_field(p), k).vertices:
        t2 = t * t % p
        for y in range(1, p):
            x = (2 * t - t2 * y) % p
            if x and x * y % p != 1:
                counts[(x, y)] += 1
    return counts


# -- 3 and 4. order sequences and contact multiplicities -----------------------------


def test_order_sequences_match_closed_forms():
    """Pivot-extracted order sequences at inflections and at infinite
    branches equal the closed-form sets, top orders and order sums, for
    n in 3..7, 2 <= s <= n-1, s(n+1) < p <= 100, two parameter choices in
    each root-count class."""
    checks = {c.name: c for c in H.verify_orders(100)}
    c = checks["order-sequences-match-closed-forms"]
    assert report("order-sequences", c.ok, c.detail)


def test_contact_multiplicities():
    """v(x(t) - xi) = n at inflections, v((y(t) - c) t) = n + 1 at branches,
    and each tangent line at infinity meets the n branches with total 2n,
    on the same grid (from the base field, irrational sites included)."""
    checks = {c.name: c for c in H.verify_orders(100)}
    c = checks["tangent-contact-multiplicities"]
    assert report("contact-multiplicities", c.ok, c.detail)


# -- 5. minimization machinery ---------------------------------------------------


def test_minimization_machinery():
    """The threshold ladder biconditional on [2,10^4] x [6,60]; the
    piecewise minimum against brute force on [2,5000]; the checkpoint
    identity; and domination by the cube-root expression at margin 1e-20."""
    checks = H.verify_lemmas(u_grid=10_000, t0_max=60, brute_u=5_000, brute_t=2_000)
    bad = [c for c in checks if not c.ok]
    ok = report("minimization-machinery", not bad,
                "; ".join(f"{c.name}[{'ok' if c.ok else 'FAIL'}]" for c in checks))
    assert ok


# -- 6. crossover window -----------------------------------------------------------


def test_chord_bound_crossover():
    """floor(W(k)/2) < (k+1)/3 for k in [44, 10^4]; the two bounds differ
    by at most one unit for k in [2, 44); and on 25 < k < 44 the refinement
    floor(V(k)/2) never exceeds floor((k+1)/3)."""
    bad = []
    for k in range(44, 10_001):
        if not np_bound_value(k) < giulietti_bound(k):
            bad.append(("crossover", k))
    for k in range(2, 44):
        if abs(np_bound_value(k) - giulietti_bound(k)) > 1:
            bad.append(("one-unit", k))
    for k in range(26, 44):
        if math.floor(vtilde(k) / 2) > math.floor(giulietti_bound(k)):
            bad.append(("refinement", k))
    ok = report("chord-bound-crossover", not bad,
                f"k in [2,10^4]: {len(bad)} failures {bad[:4]}")
    assert ok


# -- 7. contour grid ----------------------------------------------------------------


def test_contour_grid_two_route_agreement():
    """The grid difference for n in [3, 30], computed once from exact
    rational intervals and once from the closed formula in floating point,
    agrees to 1e-6 cell by cell (and hence has a consistent sign structure
    away from the 1e-6 band around zero)."""
    cells = 0
    worst = 0.0
    sign_bad = []
    for cell in H.figure1_cells(3, 30):
        cells += 1
        x = math.sqrt(2) * float(cell.k)
        direct = ((cell.p + 1 + 2 * (cell.n - 1) ** 2 * math.sqrt(cell.p))
                  / (2 * cell.n**2)
                  - 0.5 * (3 * x ** (2 / 3) - 103 / 19 * x ** (1 / 3) + 13 / 3))
        diff = abs(float(cell.delta) - direct)
        worst = max(worst, diff)
        if abs(direct) > 1e-6 and (direct > 0) != (cell.delta > 0):
            sign_bad.append((cell.n, cell.p))
    ok = report("contour-grid-consistency", worst <= 1e-6 and not sign_bad,
                f"{cells} cells, max route disagreement {worst:.2e}, "
                f"sign mismatches {sign_bad[:3]}")
    assert ok


# -- 8. curve-level properties -----------------------------------------------------


def test_curve_symmetries_smoothness_and_root_counts():
    """For every curve with p <= 61: the off-axes counts are invariant
    under (a,b) -> (b,a), enumeration is transpose-invariant, and the
    gradient never vanishes at an affine rational point.  For every prime
    power q <= 121 and every n | q-1: the n-th root counts sum to q-1 and
    the power-character fast path agrees with exhaustive enumeration."""
    swap_bad, smooth_checked = [], 0
    for p in H.primes_up_to(61):
        ctx = make_field(p)
        for n in H.admissible_degrees(p):
            reports = {}
            for a in range(1, p):
                for b in range(1, p):
                    if a * b % p == 1:
                        continue
                    curve = make_curve(ctx, n, a, b)
                    rep = count_points_fast(curve)
                    reports[(a, b)] = rep
                    assert smoothness_scan(curve) == (rep.affine_total, True)
                    smooth_checked += 1
            for (a, b), rep in reports.items():
                other = reports[(b, a)]
                if (rep.off_axes, rep.off_axes_off_diag) != (other.off_axes,
                                                            other.off_axes_off_diag):
                    swap_bad.append((p, n, a, b))

    transpose_bad = []
    for (p, n) in [(13, 3), (13, 4), (11, 5), (31, 5)]:
        ctx = make_field(p)
        for a in range(1, 5):
            for b in range(1, p):
                if a * b % p == 1:
                    continue
                curve = make_curve(ctx, n, a, b)
                rep = count_points(curve)  # x-outer double loop
                fast = count_points_fast(curve)  # y-class single pass
                transposed = _count_transposed(p, n, a, b)
                if not (rep.affine_total == fast.affine_total == transposed[0]
                        and rep.off_axes == fast.off_axes == transposed[1]
                        and rep.off_axes_off_diag == fast.off_axes_off_diag
                        == transposed[2]):
                    transpose_bad.append((p, n, a, b))

    roots_bad = []
    for q in range(2, 122):
        base = _prime_power(q)
        if base is None:
            continue
        ctx = make_field(*base)
        for n in range(1, q):
            if (q - 1) % n:
                continue
            hist = Counter(ctx.pow(x, n) for x in ctx.elements())  # c -> #{x : x^n = c}
            total = 0
            for c in nonzero_elements(ctx):
                fast = nth_root_count(ctx, c, n)
                if fast != hist[c]:
                    roots_bad.append((q, n, c))
                total += fast
            if total != q - 1:
                roots_bad.append((q, n, "sum"))

    ok = report(
        "curve-properties",
        not swap_bad and not transpose_bad and not roots_bad,
        f"{smooth_checked} curves p<=61 smooth and swap-symmetric "
        f"(bad={swap_bad[:3]}); transpose checks bad={transpose_bad[:3]}; "
        f"root-count checks over all q<=121 bad={roots_bad[:3]}",
    )
    assert ok


def _count_transposed(p, n, a, b):
    """The reference double loop with the axes swapped."""
    affine = off_axes = off_diag = 0
    for y in range(p):
        for x in range(p):
            v = (a * pow(x, n, p) * pow(y, n, p) - pow(x, n, p)
                 - pow(y, n, p) + b) % p
            if v == 0:
                affine += 1
                if x and y:
                    off_axes += 1
                    if x != y:
                        off_diag += 1
    return affine, off_axes, off_diag


def _prime_power(q):
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            return (p, m) if q == 1 else None
    return None
