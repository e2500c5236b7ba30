"""Golden outputs: the sha256 of stdout and the exit code of reduced-scale
CLI invocations, pinned so that engine changes keep every output byte.

The scan, prop41, chords and first count hashes were taken from the per-(a, b)
engines that preceded the torus orbit pass; the figure1, vtable, bounds,
orders and extension-field count hashes from the per-module decimal
formatters and the duplicated class loops that preceded the shared ones;
the vtable 101..200, figure1 13..16, `bounds` at p = 73 and `verify lemmas`
hashes from the `Fraction` interval arithmetic that preceded the
scaled-integer bound kernel.  `verify prop41` exits 1 by design (the classical chord identity
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
    (["figure1", "--n-min", "3", "--n-max", "12"], 0,
     "5d7634fae7ff139da18cf66dffdf07bb1afdb0b2174d7c8f1654d4c94102e857"),
    (["vtable", "--k-min", "2", "--k-max", "100"], 0,
     "def64916c913c0a447c8448dae142e664bce2a95d44fc36480d12319deb2ab53"),
    (["bounds", "--p", "31", "--n", "5", "--a", "2", "--b", "3"], 0,
     "713ce961a4f3716e894b1285da35af4bc35c4da992a436894d7e0b8dede0b48c"),
    (["bounds", "--p", "5", "--m", "2", "--n", "3", "--a", "2", "--b", "1,3"], 0,
     "1b3de8dbc1b23790ab41b8475c1323277c717cbb7daab7a3df3b05f234fe582c"),
    (["count", "--p", "5", "--m", "2", "--n", "3", "--a", "2", "--b", "1,3"], 0,
     "81fdc33b14ef3f8c59a5c947240a3e19502a7749f1aa4a2a96d6b8ca74158d97"),
    (["--format", "csv", "count", "--p", "13", "--n", "3", "--a", "6", "--b", "2"], 0,
     "31c493e552fb3182e8fdde2e44b5828527a094f9b68c28bc1111546b1e6cc7c8"),
    (["orders", "--p", "31", "--n", "5", "--a", "2", "--b", "3", "--s", "2",
      "--point", "infinite-branch"], 0,
     "c0ffae97d569862eb9809480d3d6c19ba293f181122c3994e5534a7fc80bd22e"),
    (["vtable", "--k-min", "101", "--k-max", "200"], 0,
     "9c9019c358b93e7c5caebeb2a174d95505b0bc9e68fa265a5bd0ed1b999aafda"),
    (["figure1", "--n-min", "13", "--n-max", "16"], 0,
     "251457b9cb2f3875dd116a9d11f2619af239edf81a6a970cb5a0eb2224a0a62a"),
    (["bounds", "--p", "73", "--n", "3", "--a", "2", "--b", "3"], 0,
     "fd6dc3e9474f779b9da91ec25a03c11109140ab1909137c434cfc8448136b8af"),
    (["verify", "lemmas"], 0,
     "f6001c6b888a70092985eef1e80c7ae4e4a943994158cd11e552a9c4e67f28b1"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(argv, code, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(argv)
    assert got == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
