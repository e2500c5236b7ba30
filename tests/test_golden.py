"""Golden outputs: the sha256 of stdout and the exit code of reduced-scale
CLI invocations, pinned so that engine changes keep every output byte.

The scan, prop41, chords and first count hashes were taken from the per-(a, b)
engines that preceded the torus orbit pass; the figure1, vtable, bounds,
orders and extension-field count hashes from the per-module decimal
formatters and the duplicated class loops that preceded the shared ones;
the vtable 101..200, figure1 13..16, `bounds` at p = 73 and `verify lemmas`
hashes from the `Fraction` interval arithmetic that preceded the
scaled-integer bound kernel; the `count` at p = 29077 (n1 = n2 = n), `chords`
over F_14071 and `orders --point inflection` hashes from the per-(field, n)
enumerated class tables that preceded the index table; the `orders` hashes
at p = 29077 (a rational root for a = 11, b = 8 and a cubic splitting field
at P1 for a = 2, b = 3) and the demo hashes from the field scan that found
rational roots and the per-kind expansions that preceded the shared lift;
the full-scale `scan --p-max 131` and `verify prop41` (p <= 199) hashes from
the orbit rows that still carried the derived columns and the sweeps that
built one record per row and per violating point; the full-scale
`verify orders` (p <= 100) and `figure1 3..30` hashes and the `orders` pins
over F_{13^2} (a rational root in an extension base field) from the Newton
lift on the smallest splitting extension that preceded the binomial-series
route; the `figure1 62..62` hash (the largest degree the sieve guard admits,
and the most exact fallbacks) from the exact enclosure of every cell that
preceded the floating-point filter; the `vtable 2..3000` hash (t_hi = k/2 + 5
far past the turn of f_k) from the scan of every t that preceded the stop
where f_k stops falling; the demo 03, `verify orders` and `orders` hashes
hold unchanged from the ODE recurrence and the Newton lift that preceded
the binomial series by Lucas' theorem; the `orders` pins over F_{11^2}
(b = 2 + T is no cube there, so the orders at the inflections come without
a root of T^3 - b) from the base-field series once the refusal of such input
was deleted, with the inflection answer checked against the dense pivots of
the Newton lift over F_{11^6}, the splitting field holding F_{11^2} by the
embedding of `tests/splitting_oracle.py`; the vtable and `verify lemmas`
hashes hold unchanged from the `Fraction` per row and per u (V, Vtilde,
the W midpoint and (k+1)/3 of each k, and Vtilde in two of the lemma
checks) that preceded the fields and comparisons on the numerators of the
integer bound kernels.
`verify prop41` exits 1 by design (the classical chord identity fails on the
vertex tangents) and `chords` at P = (1, 6) over F_7 is its first
counterexample.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

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
    (["count", "--p", "29077", "--n", "3", "--a", "15077", "--b", "8"], 0,
     "6c3c3f49969df49f9310495e7f3772d4de388379c83baa326c2d6b28bda375c6"),
    (["count", "--p", "29077", "--n", "12", "--a", "15385", "--b", "4096"], 0,
     "cda8c95fa7e7b5802e2eaecc7ab00514aeb60e5c365c98101497d57fa37afdd3"),
    (["chords", "--p", "14071", "--n", "670", "--px", "115", "--py", "11480"], 0,
     "5c2ce93e470282c57f265b8279be23a5e3e27f0e3813d9dc8e04bfcdedfc24bd"),
    (["orders", "--p", "31", "--n", "5", "--a", "2", "--b", "1", "--s", "3",
      "--point", "inflection"], 0,
     "aad415c9c985ac060fa907c7814298c56d927acf421e410df0752aa1a3321694"),
    (["orders", "--p", "29077", "--n", "3", "--a", "11", "--b", "8", "--s", "2",
      "--point", "inflection"], 0,
     "b2c87a8e8df89f1aae3a452739c6c9056c5115fb52aea8edc915046ae97bdb0e"),
    (["orders", "--p", "29077", "--n", "3", "--a", "11", "--b", "8", "--s", "2",
      "--point", "infinite-branch"], 0,
     "b2c87a8e8df89f1aae3a452739c6c9056c5115fb52aea8edc915046ae97bdb0e"),
    (["orders", "--p", "29077", "--n", "3", "--a", "2", "--b", "3", "--s", "2",
      "--point", "infinite-branch"], 0,
     "b2c87a8e8df89f1aae3a452739c6c9056c5115fb52aea8edc915046ae97bdb0e"),
    (["scan", "--p-max", "131"], 0,
     "5d59423d0ce9d036335fc00727249d4e6098a16510d0ed0c6cad3ae45fb73214"),
    (["verify", "prop41"], 1,
     "b5b33c8c203e4b7b4dbc348787a4e6be25e8938ec3a5fcf9fcd549484da5d1f3"),
    (["verify", "orders"], 0,
     "6297ae1bf875aaf42f8455dec63be68e8c22c0e695ac0239fe71cfa1e3a6ca64"),
    (["figure1", "--n-min", "3", "--n-max", "30"], 0,
     "7ba633d0cacd820fa9df8f08db55f249d84663e41afedb30904437787c7a179e"),
    (["figure1", "--n-min", "62", "--n-max", "62"], 0,
     "c70ba9e2c2c879b2ccf49deb94786c62fc295fef6a806797489381b55522ba90"),
    (["vtable", "--k-min", "2", "--k-max", "3000"], 0,
     "fa6c2b3587644c39e34a4a66a9ecd671361f959787df181de74a1f0a792252b4"),
    (["orders", "--p", "13", "--m", "2", "--n", "4", "--a", "4", "--b", "4", "--s", "2",
      "--point", "inflection"], 0,
     "b649934e67a4c6282af7e26be8276b5c2d95c9270710fa1c22cceec5b0577d29"),
    (["orders", "--p", "13", "--m", "2", "--n", "4", "--a", "4", "--b", "4", "--s", "2",
      "--point", "infinite-branch"], 0,
     "b649934e67a4c6282af7e26be8276b5c2d95c9270710fa1c22cceec5b0577d29"),
    (["orders", "--p", "11", "--m", "2", "--n", "3", "--a", "1,1", "--b", "2,1", "--s", "2"], 0,
     "b2c87a8e8df89f1aae3a452739c6c9056c5115fb52aea8edc915046ae97bdb0e"),
    (["orders", "--p", "11", "--m", "2", "--n", "3", "--a", "1,1", "--b", "2,1", "--s", "2",
      "--point", "infinite-branch"], 0,
     "b2c87a8e8df89f1aae3a452739c6c9056c5115fb52aea8edc915046ae97bdb0e"),
]

DEMOS = {
    "01_counting_points.py": "fac0e5ca9a706f163bbe7d3ef86e5f36e4bba5115b86a1179d8f03e67a9819b2",
    "02_bounds_tour.py": "1e854c5a33b70aa73a8e79d642d2d2c96395b470b3fa82fdffc2c206ff43f0cd",
    "03_order_sequences.py": "dcbbe766421ad125755f5e13ca189c58ec6658ca20daf0da24bbdfe48c6fe99a",
    "04_polygon_chords.py": "6e7bd5e2f815a300ff27b6d16a984bf0f6d82483c94ceff097715eac778a8bab",
    "05_sweeps_and_grids.py": "d7738cbf1a601529eb5589ad65632b247a715977d915070faef8716adb6da3f2",
}

# the help text, pinned from the per-subcommand add_argument calls that
# preceded the grammar table (the top-level text since `--format` lost its
# `tsv` choice); argparse wraps it at the terminal width
HELP = [
    ([], "f2c0529e32fd942a7528e85f97d9d873982aeb6a89a21a01b2f1b0e38209ea0e"),
    (["count"], "564ce855a04b743c58f8b8a5b7aeeee4071ef6612560f6f0d480b72305358563"),
    (["bounds"], "f4c7224906703f7b526f0845589c1dbbd0414ac73b96ddb08ddcbc5fd46cf0e5"),
    (["orders"], "325ac9f5e7e1e004c563334bd8e07cc89babe6f5033d9d1127efb945281746ad"),
    (["chords"], "5e28917c549af9af06e15e9b4061ea4baaed5d48596a8dc0da23101677a9b077"),
    (["scan"], "11e2f7e24cc1a6961761eaef76923a67ba01d5a9a3db1b462802a2e690f6215d"),
    (["figure1"], "3395751e2004b90ef581b8b9177d6ed847b748e27a864159d6643ba77a6cf752"),
    (["vtable"], "3e16d66d1b1723c5dafba11079332c6eae0f755508c6d5073baf415053e60032"),
    (["verify"], "2781ec3acaff915acd2c938169e797a740b1128b0dcf26eaa78b38d0fb8f5054"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_output(argv, code, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(argv)
    assert got == code
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("command,digest", HELP, ids=[" ".join(h[0] + ["--help"]) for h in HELP])
def test_help_output(monkeypatch, command, digest):
    monkeypatch.setenv("COLUMNS", "80")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main([*command, "--help"])
    assert got == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_output(name):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run([sys.executable, os.path.join(root, "demos", name)],
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 0 and done.stderr == b""
    assert hashlib.sha256(done.stdout).hexdigest() == DEMOS[name]
