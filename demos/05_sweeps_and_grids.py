"""The sweep engines: soundness scan, minimization table, contour grid.

Everything here is also reachable from the command line (gfcurves scan /
vtable / figure1 / verify); this script drives the same engines in-process
and summarizes.
"""

from gfcurves import harness as H

# every curve up to p = 31, every applicable bound, exact comparisons
rows = violations = 0
for row in H.scan_rows(31):
    rows += 1
    violations += row.violation
print(f"soundness scan p <= 31: {rows} curves, {violations} violations")

# the k-table behind the chord-bound comparison
print()
print("k     V(k)      Vtilde(k)  np_bound  (k+1)/3")
for (k, v, vt, w, gi, np_v, ref) in H.vtable_rows(2, 50):
    if int(k) in (2, 6, 24, 25, 26, 43, 44, 45, 50):
        print(f"{k:<5} {v:9} {vt:10} {np_v:<9} {gi:8}"
              + (f" refinement={ref}" if ref != "-" else ""))

# the contour grid: where the cube-root chord bound beats Hasse-Weil
cells = list(H.figure1_cells(3, 10))
better = sum(1 for c in cells if c.delta > 0)
print()
print(f"contour grid n in [3, 10]: {len(cells)} cells, "
      f"cube-root bound better at {better} ({100 * better / len(cells):.1f}%)")
