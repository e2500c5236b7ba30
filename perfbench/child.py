"""Run gfcurves CLI invocations inside this one process, in timed rounds.

Reads a JSON spec from stdin:
    {"ops": [[argv...], ...], "seconds": S, "warmup": bool, "shuffle": seed or null,
     "cal_every": k, "trace": bool, "keep": bool}
and calls ``gfcurves.cli.main(argv)`` once per op per round, with stdout
replaced by a sink that hashes what the CLI writes.  The sink is a buffered
``io.TextIOWrapper``, as stdout is when it is a pipe, so a ``write`` costs
what it costs on a real stdout and the hashing runs once per 64 KiB chunk.

With "warmup", one untimed round runs first, so caches filled by the first
call are warm in every timed round.  Timed rounds repeat until S seconds
have passed (always at least one); with "shuffle", each round runs the ops
in an order drawn from that seed.  Before every k-th op of a round, one
slice of `calibrate` runs and its time is recorded: it is a fixed piece of
pure-Python work that does not touch gfcurves, so its times measure how
fast the host ran this process, apart from the program.

Writes one JSON report to stdout: per round and op, the op's index, its exit
code (or the name of the exception that escaped ``main``), the sha256 and
size of its output, its latency and, with "keep", the output text; the
calibration times per round; and, with "trace", the span aggregates of
`spans.Tracer` per timed round.

The benchmark starts this script with ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from time import perf_counter


class HashWriter(io.RawIOBase):
    """A raw byte stream that hashes and counts what is written to it."""

    def __init__(self, keep: bool):
        self.digest = hashlib.sha256()
        self.nbytes = 0
        self.parts = [] if keep else None

    def writable(self):
        return True

    def write(self, b):
        self.digest.update(b)
        self.nbytes += len(b)
        if self.parts is not None:
            self.parts.append(bytes(b))
        return len(b)


def sink(keep: bool):
    """(text stream for sys.stdout, the HashWriter under it)."""
    raw = HashWriter(keep)
    return io.TextIOWrapper(io.BufferedWriter(raw, 1 << 16), encoding="utf-8"), raw


def calibrate() -> float:
    """Seconds taken by a fixed slice of pure-Python work (about 2 ms on a
    2-core Xeon): Fraction sums, dict and sort, string joins and an integer
    loop, the kinds of work gfcurves does.  Stdlib only, so it is the same
    work whatever the program under test does."""
    t0 = perf_counter()
    acc, d = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 97 + 1, i + 1)
        d[(i * 7919) % 10007] = i
    text = ",".join(f"{k}:{v}" for k, v in sorted(d.items()))
    x = 0
    for i in range(20000):
        x = (x * 31 + i) % 1000003
    if acc <= 0 or not text or x < 0:
        raise AssertionError("calibration work went wrong")
    return perf_counter() - t0


def run_op(cli, argv, keep: bool) -> dict:
    out, raw = sink(keep)
    err, _ = sink(False)
    real_stdout, real_stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    rc, exc = None, None
    t0 = perf_counter()
    try:
        rc = cli.main(argv)
    except Exception as e:  # an escaped exception is recorded by type
        exc = type(e).__name__
    out.flush()
    latency = perf_counter() - t0
    sys.stdout, sys.stderr = real_stdout, real_stderr
    op = {"rc": rc, "exc": exc, "sha256": raw.digest.hexdigest(),
          "bytes": raw.nbytes, "latency_s": latency}
    if keep:
        op["out"] = b"".join(raw.parts).decode()
    return op


def main() -> int:
    spec = json.load(sys.stdin)
    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.install()
    from gfcurves import cli

    ops, keep = spec["ops"], bool(spec.get("keep"))
    cal_every = max(1, int(spec.get("cal_every", 1)))
    rng = random.Random(spec["shuffle"]) if spec.get("shuffle") is not None else None
    report = {"warmup": [], "rounds": [], "cal_s": [], "trace": []}
    if spec.get("warmup"):
        report["warmup"] = [dict(run_op(cli, argv, keep), i=i) for i, argv in enumerate(ops)]
        if tracer is not None:
            tracer.reset()
    deadline = perf_counter() + float(spec.get("seconds", 0))
    while True:
        order = list(range(len(ops)))
        if rng is not None:
            rng.shuffle(order)
        records, cal = [], []
        for j, i in enumerate(order):
            if j % cal_every == 0:
                cal.append(calibrate())
            records.append(dict(run_op(cli, ops[i], keep), i=i))
        report["rounds"].append(records)
        report["cal_s"].append(cal)
        if tracer is not None:
            report["trace"].append(tracer.snapshot())
            tracer.reset()
        if perf_counter() >= deadline:
            break
    json.dump(report, sys.stdout)
    return 0


if __name__ == "__main__":
    status = main()
    sys.stdout.flush()
    # skip the interpreter's teardown: freeing a round's class tables object
    # by object takes about half a second, and no timing depends on it
    os._exit(status)
