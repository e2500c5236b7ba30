#!/usr/bin/env python3
"""Self-check of the benchmark, on all three workloads at reduced size.

    python3 perfbench/selfcheck.py

Runs each workload once untraced and once traced, and checks that every
metric BENCHMARK.json names is printed with its unit, that every op at the
reference answers correctly, that a corrupted reference hash makes failed
ops and an incorrect run, and that an exception escaping the CLI is a
wrong answer.  Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import sys

import queries as Q
import run


def _expect(cond: bool, what: str):
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    _expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
            "BENCHMARK.json names the workloads run.py runs")
    refs = json.loads(run.REFERENCE.read_text())

    for workload in run.WORKLOADS:
        for trace in (False, True):
            result, _ = run.measure(workload, run.DEFAULT_SEED, 0, trace, "small", refs)
            tag = f"{workload} --trace {int(trace)}"
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(got == units[trace], f"{tag}: metrics and units {got}")
            _expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                    f"{tag}: every value is a number")
            if not trace:
                _expect(all(v["value"] > 0 for v in result["metrics"].values()),
                        f"{tag}: every end-to-end value is above 0")
            _expect(result["correct"] and result["failed"] == 0,
                    f"{tag}: every answer matches its reference")
            print(f"ok  {tag}: {len(got)} metrics, {result['attempted']} ops checked")

    bad = copy.deepcopy(refs)
    key = " ".join(run.FIXED["sweep"]["small"][0])
    bad["fixed"][key]["sha256"] = "0" * 64
    result, _ = run.measure("sweep", run.DEFAULT_SEED, 0, False, "small", bad)
    # the op runs once in the warm-up round and once in the timed round
    _expect(result["failed"] == 2 and not result["correct"],
            "a corrupted sweep hash fails that op in every round and makes the run incorrect")
    print("ok  corrupted sweep hash: counted as failed")

    bad = copy.deepcopy(refs)
    bad["queries"]["ops"][0]["sha256"] = "0" * 64
    result, _ = run.measure("queries", run.DEFAULT_SEED, 0, False, "small", bad)
    _expect(result["failed"] == 1 and not result["correct"],
            "a corrupted query hash is one failed op and an incorrect run")
    print("ok  corrupted query hash: counted as failed")

    qs = Q.generate(run.DEFAULT_SEED)
    raised = {"exc": "NotImplementedError", "rc": None, "sha256": "", "out": ""}
    _expect(run.query_checker(qs, refs["queries"]["ops"])(0, raised) == "wrong"
            and run.query_checker(qs, None)(0, raised) == "wrong",
            "an exception escaping a query is a wrong answer, pinned or not")
    _, check = run.fixed_checker("sweep", "small", refs)
    _expect(check(0, dict(raised, rc=refs["fixed"][key]["rc"],
                          sha256=refs["fixed"][key]["sha256"])) == "wrong",
            "an exception escaping a fixed invocation is a wrong answer")
    print("ok  an exception escaping the CLI is a wrong answer")
    return 0


if __name__ == "__main__":
    sys.exit(main())
