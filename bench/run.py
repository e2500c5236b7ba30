#!/usr/bin/env python3
"""Time the CLI workloads of one or two gfcurves checkouts and write BENCH_<label>.json.

    python3 bench/run.py --label NAME [--base DIR]

Stdlib only; it measures the processes it starts and nothing else.  The
head is the checkout this script sits in; the base, when given, is another
checkout of the project, such as the parent commit.  The protocol is fixed,
and the report goes to BENCH_<label>.json at the head's root.

- Each row of ROWS is one `python -m gfcurves.cli` process, run in the
  checkout with `src` on PYTHONPATH: one untimed warm-up per checkout, then
  PAIRS (10) timed runs per checkout, alternating base and head (base first
  in even pairs), or one checkout alone when `--base` is not given.  With
  five pairs the sub-second rows read noise: `figure1 3..30` had head
  faster in 2 of 5 pairs with the two sides equal in-process.  Per run
  it records the wall time (`perf_counter` around the process), the peak
  RSS of the CLI process (its own `VmHWM` at exit, which LAUNCHER writes to
  a pipe; the `--jobs` workers are not counted), the exit code and the
  sha256 of stdout.  `os.wait4`'s `ru_maxrss` is no such peak: it keeps
  the high-water mark of the forked writer from before `exec`.  The digest
  and exit code are checked against GOLDEN of the head's
  `tests/test_golden.py`, or against PINS below for the rows too slow for
  Tier-1.
- The bytecode cache `src/gfcurves/__pycache__` of every checkout is
  cleared before every process (the report's bytecode mode `clear`), and
  every process runs with PYTHONDONTWRITEBYTECODE=1 so the state stays as
  recorded.  A cached checkout can run a sub-second row in half the time
  of one that compiles, so both sides are kept alike.
- A fixed stdlib loop (3 M multiply-mod steps) is timed before and after
  the set: numbers from sessions whose calibrations differ do not compare.
  Before every pair, three back-to-back slices of the same loop
  (SLICE_STEPS steps each) are timed and the best is recorded with the
  pair: one slice alone was as noisy as the sub-second rows it scales.
  Each CLI row also gets `wall_scaled`: every wall time times the median
  slice of all rows of the session, divided by its own pair's slice, so a
  drift of the host's speed between rows does not read as a change.  The
  primary read is `head_faster`, on raw times within each pair, where the
  two sides ran back to back and the scaling cancels; `wall_scaled` is a
  secondary view across pairs.
- Each checkout is recorded by its commit, when git knows one, and by a
  sha256 of its `src` tree, sorted paths with their bytes, so a checkout
  exported with `git archive` is named too.
- Tier-1 (`python -m pytest -q`) runs once per checkout, for its wall time
  and passed count.
- `perfbench/run.py` runs each workload of PERF_WORKLOADS (all three of
  BENCHMARK.json) PERF_SECONDS at a time in PERF_PAIRS alternating pairs
  per seed of PERF_SEEDS, each checkout with its own perfbench, and every
  end-to-end metric is recorded per run with the medians, quartiles and
  the pairs head won (lower is better for all).
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

ROWS = (
    ("scan", "--p-max", "211"),
    ("--jobs", "2", "scan", "--p-max", "211"),
    ("scan", "--p-max", "131"),
    ("figure1", "--n-min", "3", "--n-max", "30"),
    ("verify", "lemmas"),
    ("verify", "prop41"),
    ("verify", "orders"),
    ("vtable", "--k-min", "2", "--k-max", "3000"),
    ("vtable", "--k-max", "500"),
    ("orders", "--p", "11", "--m", "2", "--n", "3", "--a", "1,1", "--b", "2,1", "--s", "2"),
    ("count", "--p", "4194301", "--n", "2", "--a", "3", "--b", "5"),
    ("count", "--p", "2", "--m", "22", "--n", "3", "--a", "1,1", "--b", "0,1"),
)

# (exit code, stdout sha256) of the rows that tests/test_golden.py does not
# pin, taken from python -m gfcurves.cli at the commit that added this script
PINS = {
    "scan --p-max 211":
        (0, "2a3f16d30dc2f53074640eaef3218a46f82e0e02062d8882adfc8298cea1c24f"),
    "--jobs 2 scan --p-max 211":
        (0, "2a3f16d30dc2f53074640eaef3218a46f82e0e02062d8882adfc8298cea1c24f"),
    "vtable --k-max 500":
        (0, "a9c0024b131171b8b1096c467dc09f430daf88b659bd7e1ac9142cac6b99e433"),
    "count --p 4194301 --n 2 --a 3 --b 5":
        (0, "683bde2e39ed5e3cbf06fcdbdb161dfbe5f8dc42dec74d73b05759823a0a5885"),
    "count --p 2 --m 22 --n 3 --a 1,1 --b 0,1":
        (0, "b491e29c396c71b06e15ce6eea73f429c47e9a32be2e71907e2e8ce289b14b84"),
}

PAIRS = 10  # timed runs per checkout and CLI row: five did not resolve the sub-second rows
SLICE_STEPS = 300_000  # calibration steps timed before every pair
PERF_WORKLOADS = ("sweep", "bounds-grid", "queries")
PERF_SEEDS = (1, 2)
PERF_PAIRS = 10
PERF_SECONDS = 12
PERF_METRICS = ("round_s", "setup_s", "peak_rss_mb", "latency_p50_ms", "latency_tail_ms")


def golden(checkout: Path) -> dict:
    """' '.join(argv) -> (exit code, sha256), read from the GOLDEN literal of
    tests/test_golden.py without importing it."""
    tree = ast.parse((checkout / "tests" / "test_golden.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "GOLDEN"
                                                for t in node.targets):
            return {" ".join(argv): (code, digest)
                    for argv, code, digest in ast.literal_eval(node.value)}
    raise ValueError("no GOLDEN list in tests/test_golden.py")


def commit(checkout: Path) -> dict:
    """The checkout's commit and its uncommitted diff under src, when git
    knows the checkout, and the sha256 of its src tree, which names the
    timed code also when it has no commit (a `git archive` export)."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None
    diff = git("diff", "HEAD", "--", "src")  # the timed code, less what is committed
    return {"commit": git("rev-parse", "HEAD"), "src_sha256": src_digest(checkout),
            "src_diff_sha256": hashlib.sha256(diff.encode()).hexdigest() if diff else None}


def src_digest(checkout: Path) -> str:
    """sha256 over the files of the checkout's src tree in sorted order of
    their paths: each path, its length in bytes and its bytes.  Bytecode
    caches are left out."""
    digest = hashlib.sha256()
    files = sorted(path.relative_to(checkout).as_posix() for path in (checkout / "src").rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts)
    for name in files:
        data = (checkout / name).read_bytes()
        digest.update(f"{name}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def clear_bytecode(checkout: Path) -> int:
    """Clear src/gfcurves/__pycache__; returns the number of .pyc files left
    there (0 unless something writes one back)."""
    cache = checkout / "src" / "gfcurves" / "__pycache__"
    shutil.rmtree(cache, ignore_errors=True)
    return len(list(cache.glob("*.pyc"))) if cache.is_dir() else 0


# `python -c LAUNCHER FD MODULE ARGS...` runs `python -m MODULE ARGS...` in
# its own process and, at exit, writes that process's VmHWM (kB) to FD; it
# writes nothing where /proc/self/status has no VmHWM line.
LAUNCHER = """\
import atexit, os, runpy, sys
fd = int(sys.argv.pop(1))
def report():
    try:
        with open("/proc/self/status") as status:
            os.write(fd, b"".join(line.split()[1].encode() for line in status
                                  if line.startswith("VmHWM:")))
    except OSError:
        pass
atexit.register(report)
del sys.argv[0]
runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
"""


def spawn(argv, cwd: Path) -> dict:
    """Run `python -m gfcurves.cli *argv` to completion in cwd with src on
    PYTHONPATH, hashing stdout as it arrives: wall time, peak RSS (MiB),
    exit code and stdout sha256.  The peak is the process's own VmHWM from
    LAUNCHER, or `ru_maxrss` where the host reports no VmHWM."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    peak_r, peak_w = os.pipe()
    cmd = [sys.executable, "-c", LAUNCHER, str(peak_w), "gfcurves.cli", *argv]
    t0 = perf_counter()
    try:
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
                                pass_fds=(peak_w,))
    finally:
        os.close(peak_w)
    digest, size = hashlib.sha256(), 0
    try:
        while chunk := proc.stdout.read(1 << 16):
            digest.update(chunk)
            size += len(chunk)
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        os.close(peak_r)
        raise
    wall = perf_counter() - t0
    with os.fdopen(peak_r, "rb") as pipe:
        hwm_kib = pipe.read()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mib": int(hwm_kib or usage.ru_maxrss) / 1024,
            "exit": proc.returncode, "sha256": digest.hexdigest(), "bytes": size}


def calibrate(repeats: int = 3, steps: int = 3_000_000) -> list:
    """Seconds of a fixed stdlib loop, `steps` multiply-mod steps, per repeat."""
    times = []
    for _ in range(repeats):
        t0, x = perf_counter(), 1
        for _ in range(steps):
            x = x * 48271 % 2147483647
        times.append(perf_counter() - t0)
    return times


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def scaled(walls, slices, reference: float) -> list:
    """Each wall time times reference / the calibration slice of its pair."""
    return [w * reference / c for w, c in zip(walls, slices)]


def alternate(sides: dict, pairs: int, run) -> tuple[dict, list]:
    """(side -> list of run(side) results, slices) over `pairs` rounds, the
    side that goes first alternating from round to round; slices[i] is the
    best of three calibration slices timed just before round i."""
    names, out, slices = list(sides), {name: [] for name in sides}, []
    for i in range(pairs):
        slices.append(min(calibrate(3, SLICE_STEPS)))
        for name in (names if i % 2 == 0 else names[::-1]):
            out[name].append(run(name))
    return out, slices


def time_rows(sides: dict, pins: dict) -> list:
    rows = []
    for argv in ROWS:
        key = " ".join(argv)

        def run(name):
            clear_bytecode(sides[name])
            return spawn(argv, sides[name])

        for name in sides:  # the untimed warm-up
            run(name)
        runs, slices = alternate(sides, PAIRS, run)
        expect = pins.get(key)
        row = {"argv": list(argv), "pinned": None if expect is None else
               {"exit": expect[0], "sha256": expect[1]}, "slice_s": slices}
        for name, rs in runs.items():
            outputs = {(r["exit"], r["sha256"]) for r in rs}
            row[name] = {"wall_s": [r["wall_s"] for r in rs],
                         "peak_rss_mib": [r["peak_rss_mib"] for r in rs],
                         "exit": rs[0]["exit"], "sha256": rs[0]["sha256"],
                         "stdout_bytes": rs[0]["bytes"], "stable": len(outputs) == 1,
                         "matches_pin": None if expect is None else outputs == {expect},
                         "wall": spread([r["wall_s"] for r in rs]),
                         "peak_rss": spread([r["peak_rss_mib"] for r in rs])}
        if len(sides) == 2:
            base, head = runs["base"], runs["head"]
            row["head_faster"] = sum(h["wall_s"] < b["wall_s"] for b, h in zip(base, head))
        rows.append(row)
        print(f"# {key}: " + ", ".join(
            f"{name} {row[name]['wall']['median']:.3f} s {row[name]['peak_rss']['median']:.1f} MiB"
            f" pin={row[name]['matches_pin']}" for name in sides), file=sys.stderr)
    reference = statistics.median(c for row in rows for c in row["slice_s"])
    for row in rows:
        for name in sides:
            row[name]["wall_scaled"] = spread(scaled(row[name]["wall_s"], row["slice_s"], reference))
    return rows


def tier1(checkout: Path) -> dict:
    clear_bytecode(checkout)
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=checkout, env=env, capture_output=True, text=True)
    wall = perf_counter() - t0
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {}
    for part in summary.strip("= ").split(" in ")[0].split(", "):
        number, _, word = part.partition(" ")
        if number.isdigit():
            counts[word] = int(number)
    return {"wall_s": wall, "exit": done.returncode, "summary": summary,
            "passed": counts.get("passed", 0), "failed": counts.get("failed", 0)}


def perfbench(sides: dict) -> list:
    return [perfbench_pairs(sides, workload, seed)
            for workload in PERF_WORKLOADS for seed in PERF_SEEDS]


def perfbench_pairs(sides: dict, workload: str, seed: int) -> dict:
    def run(name):
        clear_bytecode(sides[name])
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(PERF_SECONDS), "--trace", "0"]
        done = subprocess.run(cmd, cwd=sides[name], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
        if done.returncode != 0:
            raise RuntimeError(f"perfbench in {sides[name]} exited {done.returncode}:"
                               f" {done.stderr.strip()[-500:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        return {"correct": result["correct"], "failed": result["failed"],
                **{k: result["metrics"][k]["value"] for k in PERF_METRICS}}

    runs, slices = alternate(sides, PERF_PAIRS, run)
    entry = {"workload": workload, "seed": seed, "seconds": PERF_SECONDS, "runs": runs,
             "slice_s": slices, "metrics": {}}
    for k in PERF_METRICS:
        m = {name: spread([r[k] for r in rs]) for name, rs in runs.items()}
        if len(sides) == 2:
            m["head_better"] = sum(h[k] < b[k] for b, h in zip(runs["base"], runs["head"]))
        entry["metrics"][k] = m
    print(f"# {workload} seed {seed}: " + json.dumps(entry["metrics"]), file=sys.stderr)
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="written to BENCH_<label>.json")
    ap.add_argument("--base", type=Path, help="the checkout to compare against")
    args = ap.parse_args(argv)

    sides = {"head": ROOT} if args.base is None else {"base": args.base.resolve(), "head": ROOT}
    pins = {**PINS, **golden(sides["head"])}
    report = {
        "label": args.label,
        "machine": {"cpus": os.cpu_count(), "system": platform.system(),
                    "arch": platform.machine(), "python": sys.version.split()[0],
                    "implementation": platform.python_implementation()},
        "bytecode": {"mode": "clear",
                     "pyc_files": {n: clear_bytecode(p) for n, p in sides.items()}},
        "checkouts": {name: commit(path) for name, path in sides.items()},
        "pairs": PAIRS,
        "calibration_s": {"before": calibrate()},
    }
    report["rows"] = time_rows(sides, pins)
    report["perfbench"] = perfbench(sides)
    report["tier1"] = {name: tier1(path) for name, path in sides.items()}
    report["calibration_s"]["after"] = calibrate()
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    bad = [" ".join(r["argv"]) for r in report["rows"]
           if any(r[n]["matches_pin"] is False or not r[n]["stable"] for n in sides)]
    bad += [f"{e['workload']} seed {e['seed']} ({n})" for e in report["perfbench"]
            for n, rs in e["runs"].items() if not all(r["correct"] for r in rs)]
    print(f"wrote {out}" + (f"; wrong outputs: {bad}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
