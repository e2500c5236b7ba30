#!/usr/bin/env python3
"""Write reference.json: the exit code and stdout sha256 of every fixed
invocation (both sizes) and of every query of the default seed.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs are the reference; afterwards any
change of an output byte counts as a wrong answer in run.py.  Fixed
invocations are pinned from ``python -m gfcurves.cli`` processes, so the
in-process runs of the benchmark are checked against the real CLI.  An
answer that breaks its query invariant, or an exception that escapes the
CLI, is refused rather than pinned.
"""

from __future__ import annotations

import json
import sys

import queries as Q
import run


def main() -> int:
    fixed = {}
    for sizes in run.FIXED.values():
        for argvs in sizes.values():
            for argv in argvs:
                rc, sha, _, _, _ = run._spawn([sys.executable, "-m", "gfcurves.cli", *argv])
                fixed[" ".join(argv)] = {"rc": rc, "sha256": sha}
    qs = Q.generate(run.DEFAULT_SEED, run.QUERY_COUNT["full"])
    report, _ = run.run_child({"ops": [list(q.argv) for q in qs], "keep": True})
    pinned = []
    for q, op in zip(qs, report["rounds"][0]):
        if op["exc"] is not None:
            raise SystemExit(f"refusing to pin an exception: {' '.join(q.argv)}")
        if not Q.check(q, op["rc"], op["out"]):
            raise SystemExit(f"refusing to pin a wrong answer: {' '.join(q.argv)}")
        pinned.append({"rc": op["rc"], "sha256": op["sha256"]})
    refs = {"fixed": fixed,
            "queries": {"seed": run.DEFAULT_SEED, "count": len(qs), "ops": pinned}}
    run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
