"""The bench writer's pins: every row it times is checked against a digest,
and the digests it reads from this directory are the golden ones."""

import importlib.util
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
