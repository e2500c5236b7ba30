"""The bench writer's pins: every row it times is checked against a digest,
and the digests it reads from this directory are the golden ones."""

import importlib.util
import json
import resource
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


def test_a_row_reads_the_peak_of_its_own_process():
    # the writer holds a touched 32 MiB buffer, so its own peak is above any
    # small row's; os.wait4's ru_maxrss carried that peak into the row
    ballast = bytearray(b"\x01") * (32 << 20)
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    argv = ("vtable", "--k-min", "2", "--k-max", "100")
    row = bench.spawn(argv, bench.ROOT)
    assert (row["exit"], row["sha256"]) == bench.golden(bench.ROOT)[" ".join(argv)]
    assert 1 < row["peak_rss_mib"] < own_peak - 16
    del ballast


def test_a_checkout_is_named_by_the_digest_of_its_src_tree(tmp_path):
    # outside git a checkout has no commit; its src digest is the same for
    # a copy, blind to bytecode caches, and moves with one byte or one name
    def checkout(name, files):
        for path, text in files.items():
            (tmp_path / name / "src" / path).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name / "src" / path).write_text(text)
        return bench.commit(tmp_path / name)

    base = {"pkg/a.py": "x = 1\n", "pkg/b.py": "y = 2\n"}
    first = checkout("first", base)
    copy = checkout("copy", {**base, "pkg/__pycache__/a.cpython-311.pyc": "\0"})
    changed = checkout("changed", {**base, "pkg/b.py": "y = 3\n"})
    renamed = checkout("renamed", {"pkg/a.py": "x = 1\n", "pkg/c.py": "y = 2\n"})
    assert first["commit"] is None
    assert first["src_sha256"] == copy["src_sha256"]
    assert len({first["src_sha256"], changed["src_sha256"], renamed["src_sha256"]}) == 3
    assert bench.commit(bench.ROOT)["src_sha256"] == bench.src_digest(bench.ROOT)
