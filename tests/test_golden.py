"""Golden outputs: the sha256 of stdout and the exit code of reduced-scale
CLI invocations, pinned so that engine changes keep every output byte.

The hashes were taken from the per-(a, b) engines that preceded the torus
orbit pass; `verify prop41` exits 1 by design (the classical chord identity
fails on the vertex tangents) and `chords` at P = (1, 6) over F_7 is its first
counterexample.
"""

import contextlib
import hashlib
import io

import pytest

from gfcurves.cli import main

GOLDEN = [
    (["scan", "--p-max", "61"], 0,
     "f6cc444effccd9bc771ca5728ca2e1a55045f9d33b6cf07d1acd4c96b3b26a1d"),
    (["scan", "--p-max", "61", "--sample", "50"], 0,
     "7e78d0481b0bedec3544015a19bedb50837f93751f2f633e8210e047e55ea83f"),
    (["scan", "--p-max", "47", "--n-filter", "2"], 0,
     "1e00443468f86d28621694b8487b928172acddcc4286e50341769f28bc90b69a"),
    (["--jobs", "2", "scan", "--p-max", "31"], 0,
     "4c71603576c1fd81ee52385cdefd07412a6095dd5a14bd8a1a2159adc3654384"),
    (["verify", "prop41", "--p-max", "61"], 1,
     "17352fc41cb88bc00b5cb862cbc30d323b1983e174533432a00b9f3d9197fa2e"),
    (["chords", "--p", "7", "--n", "2", "--px", "1", "--py", "6"], 1,
     "9eee6377131d53c278e8413a3c4f817502d400d768eec04f1feee9407db4bba2"),
    (["count", "--p", "13", "--n", "3", "--a", "6", "--b", "2"], 0,
     "e780f554078387abd6c2a5429ba5fc49277870644a05f7672ee2af0f082ae2dc"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(argv, code, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(argv)
    assert got == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
