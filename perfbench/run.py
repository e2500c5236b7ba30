#!/usr/bin/env python3
"""Benchmark of gfcurves: three workloads run against the CLI surface.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each was chosen):
  sweep        scan (one invocation per degree n), verify prop41 at four
               sizes and a --jobs 2 scan, repeated in one warm process
  bounds-grid  figure1 (one invocation per n) and vtable (in chunks of k),
               repeated in one warm process
  queries      a seeded mix of single-curve queries, one client in a closed
               loop calling gfcurves.cli.main in a fresh process per round

Every invocation is a call of ``gfcurves.cli.main`` inside a child process
(child.py), and every output is checked against reference.json or the
query invariants.  A run repeats whole rounds until --seconds have passed
(at least one round).  The time of each op is its best time over the
rounds of the run, scaled by CAL_REF_S over the time of a fixed
calibration slice run between the ops, taken the same way: the time the op
takes on the reference host, with the load other tenants put on a shared
host taken out.  The last line of stdout is one JSON object; lines before
it start with "#" and give detail, raw times included.  --trace 0 prints
the end-to-end metrics.  --trace 1 runs half the time untraced and half
under spans.py, and prints the per-layer metrics and the tracer's cost.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import queries as Q

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

# the degrees n that occur in `scan --p-max P`, one scan invocation each
SCAN_DEGREES = {37: (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 18),
                47: (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 14, 15, 18, 20, 21, 23)}
VTABLE_CHUNK = 5


def _vtable_chunks(k_min: int, k_max: int):
    return tuple(("vtable", "--k-min", str(k), "--k-max", str(min(k + VTABLE_CHUNK - 1, k_max)))
                 for k in range(k_min, k_max + 1, VTABLE_CHUNK))


FIXED = {
    "sweep": {
        "full": (*(("scan", "--p-max", str(p), "--n-filter", str(n))
                   for p, degrees in SCAN_DEGREES.items() for n in degrees),
                 *(("verify", "prop41", "--p-max", str(p)) for p in (29, 31, 37, 41, 43, 47, 53)),
                 ("scan", "--p-max", "23"),
                 ("--jobs", "2", "scan", "--p-max", "23")),
        "small": (("scan", "--p-max", "23", "--n-filter", "2"),
                  ("scan", "--p-max", "23", "--n-filter", "11"),
                  ("verify", "prop41", "--p-max", "31"),
                  ("scan", "--p-max", "13"),
                  ("--jobs", "2", "scan", "--p-max", "13")),
    },
    "bounds-grid": {
        "full": (*(("figure1", "--n-min", str(n), "--n-max", str(n)) for n in range(3, 13)),
                 *_vtable_chunks(2, 200)),
        "small": (*(("figure1", "--n-min", str(n), "--n-max", str(n)) for n in range(3, 6)),
                  *_vtable_chunks(2, 16)),
    },
}
QUERY_COUNT = {"full": Q.MIX_TOTAL, "small": 40}
WORKLOADS = ("sweep", "bounds-grid", "queries")
DEFAULT_SEED = 1
SETUP_SAMPLES = 12  # half before the timed rounds, half after
# a calibration slice before every op; every fourth op for the short queries
CAL_EVERY = {"sweep": 1, "bounds-grid": 1, "queries": 4}
# the calibration time (Runs.cal_best) on the reference host in a quiet spell
# (2-core Xeon, Python 3.11.7)
CAL_REF_S = 0.00250

END_TO_END = {
    "round_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _spawn(cmd, stdin: bytes | None = None):
    """Run cmd to completion, hashing stdout as it arrives.

    Returns (exit code, sha256 hex, stdout bytes, wall s, peak RSS MiB).
    """
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL)
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        digest, chunks = hashlib.sha256(), []
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
            chunks.append(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    wall = perf_counter() - t0
    return proc.returncode, digest.hexdigest(), b"".join(chunks), wall, usage.ru_maxrss / 1024


def run_child(spec: dict):
    """Run child.py with `spec`; returns (report, peak RSS MiB)."""
    rc, _, out, _, rss = _spawn([sys.executable, str(HERE / "child.py")],
                                stdin=json.dumps(spec).encode())
    if rc != 0:
        raise RuntimeError(f"child.py exited with {rc}")
    return json.loads(out), rss


SETUP_SCRIPT = ("from time import perf_counter; t0 = perf_counter(); import gfcurves.cli; "
                "print(perf_counter() - t0)")


def time_setup(repeats: int) -> list:
    """Import times of gfcurves.cli, each measured inside a fresh interpreter,
    from `repeats` interpreters after one that writes the bytecode cache."""
    times = []
    for _ in range(repeats + 1):
        rc, _, out, _, _ = _spawn([sys.executable, "-c", SETUP_SCRIPT])
        if rc != 0:
            raise RuntimeError("import gfcurves.cli failed")
        times.append(float(out))
    return times[1:]


def _tail(samples):
    """(percentile, value): the highest of the usual percentiles with at least
    ten samples beyond it; the maximum when there are too few samples."""
    s = sorted(samples)
    for pct in (99.9, 99, 95, 90, 75):
        if len(s) * (100 - pct) / 100 >= 10:
            pos = (len(s) - 1) * pct / 100
            lo = int(pos)
            hi = min(lo + 1, len(s) - 1)
            return pct, s[lo] + (s[hi] - s[lo]) * (pos - lo)
    return 100, s[-1]


# ---------------------------------------------------------------------------
# checks


def fixed_checker(workload, size, refs):
    ops = FIXED[workload][size]

    def check(i, op):
        ref = refs["fixed"][" ".join(ops[i])]
        ok = op["exc"] is None and op["rc"] == ref["rc"] and op["sha256"] == ref["sha256"]
        return "ok" if ok else "wrong"
    return ops, check


def query_checker(qs, pinned):
    def check(i, op):
        if op["exc"] is not None:
            return "wrong"  # every query has an answer, exit 2 included
        ok = Q.check(qs[i], op["rc"], op["out"])
        if pinned is not None:
            ok = ok and op["rc"] == pinned[i]["rc"] and op["sha256"] == pinned[i]["sha256"]
        return "ok" if ok else "wrong"
    return check


# ---------------------------------------------------------------------------
# metrics


def per_layer_metrics(t) -> dict:
    """Per-layer metrics from one round's trace snapshot: name -> (value, unit)."""
    st = t["stats"]

    def calls(name):
        return (st.get(name, (0, 0.0, 0))[0], "count")

    def self_s(*names):
        return (sum(st.get(n, (0, 0.0, 0))[1] for n in names), "s")

    return {
        "ffield.make_field.calls": calls("ffield.make_field"),
        "ffield.make_field.self_s": self_s("ffield.make_field"),
        "ffield.subgroup_generator.self_s": self_s("ffield.subgroup_generator"),
        "ffield.nth_root_count.calls": calls("ffield.nth_root_count"),
        "curve.class_tables.calls": calls("curve.class_tables"),
        "curve.class_tables.self_s": self_s("curve.class_tables"),
        "curve.class_tables.distinct_keys": (t["class_table_keys"], "count"),
        "curve.count_points_fast.calls": calls("curve.count_points_fast"),
        "curve.count_points_fast.self_s": self_s("curve.count_points_fast"),
        "chords.restricted_count_grid.self_s": self_s("chords.restricted_count_grid"),
        "chords.chord_count_grid.self_s": self_s("chords.chord_count_grid"),
        "chords.build_polygon.self_s": self_s("chords.build_polygon"),
        "chords.grid_cells": (t["grid_cells"], "count"),
        "chords.verify_prop41.self_s": self_s("chords.verify_prop41"),
        "bounds.w_interval.calls": calls("bounds.w_interval"),
        "bounds.w_interval.self_s": self_s("bounds.w_interval"),
        "bounds.hw_interval.calls": calls("bounds.hw_interval"),
        "bounds.hw_interval.self_s": self_s("bounds.hw_interval"),
        "bounds.f_u.calls": calls("bounds.f_u"),
        "bounds.f_u.self_s": self_s("bounds.f_u"),
        "bounds.vtilde.calls": calls("bounds.vtilde"),
        "bounds.vtilde.self_s": self_s("bounds.vtilde"),
        "bounds.sv_raw.calls": calls("bounds.sv_raw"),
        "localexp.order_sequence.calls": calls("localexp.order_sequence"),
        "localexp.order_sequence.self_s": self_s("localexp.order_sequence"),
        "harness.scan_task.self_s": self_s("harness.scan_task"),
        "harness.scan_rows.rows": (st.get("harness.scan_rows", (0, 0.0, 0))[2], "count"),
        "harness.prop41_sweep.self_s": self_s("harness.prop41_sweep"),
        "harness.prop41_sweep.points": (t["prop41_points"], "count"),
        "harness.emit.self_s": self_s("harness.scan_csv_lines", "harness.figure1_tsv_lines",
                                      "harness.vtable_csv_lines"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.bytes_out": (t["bytes_out"], "bytes"),
    }


class Runs:
    """The timed rounds and calibration slices of one side (untraced or traced)."""

    def __init__(self):
        self.rounds, self.cal, self.rss, self.traces = [], [], [], []

    def add(self, report, rss):
        self.rounds += report["rounds"]
        self.cal += report["cal_s"]
        self.rss.append(rss)
        for snap, records in zip(report["trace"], report["rounds"]):
            snap["bytes_out"] = sum(op["bytes"] for op in records)
            self.traces.append(snap)

    def best(self, n_ops):
        """Best latency of each op over the rounds."""
        best = [float("inf")] * n_ops
        for records in self.rounds:
            for op in records:
                best[op["i"]] = min(best[op["i"]], op["latency_s"])
        return best

    def cal_best(self):
        """The calibration's time taken the way an op's is: the best over
        the rounds of the slice at one position in the round, median over
        the positions.  An op gets one try per round, so its best time sits
        as far above the host's fastest moments as this does."""
        positions = min(len(cal) for cal in self.cal)
        return statistics.median(min(cal[j] for cal in self.cal) for j in range(positions))

    def scale(self):
        return CAL_REF_S / self.cal_best()


def measure(workload, seed, seconds, trace, size="full", refs=None):
    """Run one benchmark measurement; returns (result dict, detail lines)."""
    if refs is None:
        refs = json.loads(REFERENCE.read_text())
    setup_times = [] if trace else time_setup(SETUP_SAMPLES // 2)
    plain, traced = Runs(), Runs()
    checked = []  # (status, key) of every op run, warm-up rounds included

    if workload == "queries":
        qs = Q.generate(seed, QUERY_COUNT[size])
        keys = [q.kind for q in qs]
        pinned = refs["queries"]["ops"][:len(qs)] if seed == refs["queries"]["seed"] else None
        check = query_checker(qs, pinned)
        spec = {"ops": [list(q.argv) for q in qs], "seconds": 0, "keep": True,
                "cal_every": CAL_EVERY[workload]}
        start = perf_counter()
        while True:
            for side, traced_side in ((plain, False), (traced, True))[:1 + trace]:
                report, rss = run_child(dict(spec, trace=traced_side))
                side.add(report, rss)
                checked += [(check(op["i"], op), keys[op["i"]]) for op in report["rounds"][0]]
            if perf_counter() - start >= seconds:
                break
    else:
        ops, check = fixed_checker(workload, size, refs)
        keys = [" ".join(argv) for argv in ops]
        spec = {"ops": [list(a) for a in ops], "warmup": True,
                "shuffle": random.Random(seed).randrange(1 << 30),
                "cal_every": CAL_EVERY[workload]}
        sides = ((plain, False), (traced, True))[:1 + trace]
        for side, traced_side in sides:
            report, rss = run_child(dict(spec, seconds=seconds / len(sides), trace=traced_side))
            side.add(report, rss)
            for records in [report["warmup"], *report["rounds"]]:
                checked += [(check(op["i"], op), keys[op["i"]]) for op in records]

    if not trace:
        setup_times += time_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    failed = sum(status != "ok" for status, _ in checked)
    best = plain.best(len(keys))
    scale = plain.scale()
    lines = [f"# {workload}: seed={seed} ops={len(keys)} rounds={len(plain.rounds)}"
             + (f"+{len(traced.rounds)} traced" if trace else "")
             + f" checked={len(checked)} failed={failed}"]
    wrong = sorted({key for status, key in checked if status != "ok"})
    if wrong:
        lines.append(f"# wrong answers: {', '.join(wrong)}")
    slices = [c for cal in plain.cal for c in cal]
    lines.append(f"# calibration: best over rounds {plain.cal_best() * 1e3:.4f} ms, fastest"
                 f" {min(slices) * 1e3:.4f} ms, median {statistics.median(slices) * 1e3:.4f} ms"
                 f" over {len(slices)} slices; times below are scaled by {scale:.4f}")
    raw_round = sum(sum(op["latency_s"] for op in records) for records in plain.rounds)
    lines.append(f"# raw: best-op sum {sum(best):.4f} s,"
                 f" mean round {raw_round / len(plain.rounds):.4f} s")
    if workload == "queries":
        for kind, _ in Q.MIX:
            bs = sorted(b * 1000 * scale for key, b in zip(keys, best) if key == kind)
            if bs:
                lines.append(f"# kind '{kind}': best p50 {statistics.median(bs):.3f} ms, max"
                             f" {bs[-1]:.3f} ms over {len(bs)} queries, scaled")
    else:
        groups = {}
        for key, b in zip(keys, best):
            name = key.split(" --n-filter")[0].split(" --n-min")[0].split(" --k-min")[0]
            groups.setdefault(name, []).append(b)
        for name, bs in groups.items():
            lines.append(f"# op '{name}': best {sum(bs) * scale:.4f} s scaled over {len(bs)}"
                         " invocation(s)")

    if trace:
        layers = [per_layer_metrics(t) for t in traced.traces]
        metrics = {k: {"value": statistics.median(lm[k][0] for lm in layers), "unit": u}
                   for k, (_, u) in layers[0].items()}
        overhead = (sum(traced.best(len(keys))) * traced.scale() - sum(best) * scale)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        lines.append(f"# tracing overhead: {overhead:.4f} s per round (traced minus untraced"
                     " best-op sums, both scaled)")
        if workload == "sweep":
            lines.append("# spans in the --jobs 2 scan's worker processes are not counted")
    else:
        pct, tail = _tail(best)
        lines.append(f"# latency_tail_ms is p{pct:g} of the best times of {len(best)} ops")
        values = {
            "round_s": sum(best) * scale,
            "setup_s": statistics.median(setup_times) * scale,
            "peak_rss_mb": statistics.median(plain.rss),
            "latency_p50_ms": statistics.median(best) * scale * 1000,
            "latency_tail_ms": tail * scale * 1000,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "gfcurves" / "cli.py").is_file():
        print(f"error: no gfcurves sources under {SRC}", file=sys.stderr)
        return 2
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
