"""The bench writer's pins: every row it times is checked against a digest,
and the digests it reads from this directory are the golden ones."""

import importlib.util
import json
from pathlib import Path

from test_golden import GOLDEN

_spec = importlib.util.spec_from_file_location(
    "bench_run", Path(__file__).resolve().parent.parent / "bench" / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def test_bench_reads_the_golden_digests_and_pins_every_row():
    golden = bench.golden(bench.ROOT)
    assert golden == {" ".join(argv): (code, digest) for argv, code, digest in GOLDEN}
    rows = {" ".join(argv) for argv in bench.ROWS}
    assert rows <= golden.keys() | bench.PINS.keys()
    assert not bench.PINS.keys() & golden.keys()  # one pin per row


def test_wall_times_scale_by_their_pair_slice():
    # a pair timed while the host ran at half speed (slice 0.5 s against the
    # session's 0.25 s) reads half its wall time; the others are unchanged
    assert bench.scaled([1.0, 3.0, 0.5], [0.25, 0.5, 0.25], 0.25) == [1.0, 1.5, 0.5]


def test_bench_runs_the_benchmark_workloads():
    # every perfbench workload the writer times is one BENCHMARK.json declares
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert set(bench.PERF_WORKLOADS) <= {w["name"] for w in declared}
    assert len(set(bench.PERF_WORKLOADS)) == len(bench.PERF_WORKLOADS)
