"""Layer tracing for gfcurves, installed from outside the package.

`install()` wraps every public module-level function of the gfcurves
modules and rebinds the wrapper in every module namespace that holds the
function (``harness`` and ``cli`` bind some of them under their own names).
Each call opens a span: its parent is the span that was running when it
started, and its self time is its duration minus the durations of its
direct children.  A generator function's span lasts its whole iteration,
from the first ``next`` to exhaustion, and its duration is the time its
frame was running (inside ``next``), so the consumer's work between items
(writing the CSV lines, say) stays with the consumer.

Spans are aggregated in memory per function (calls, self time, items
yielded), read after each round with `Tracer.snapshot()` and cleared with
`Tracer.reset()`; nothing is written while the traced code runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("ffield", "curve", "localexp", "bounds", "chords", "harness", "cli")


class Tracer:
    """Spans kept in memory.  A span is [name, seconds, child_seconds,
    parent, resumed_at]; its seconds accumulate over the intervals in which
    its call (or its generator frame) is running."""

    def __init__(self):
        self.stack = []   # running spans, innermost last
        self.reset()

    def reset(self):
        """Forget the aggregates (between rounds, when no span is open)."""
        self.stats = {}   # "module.function" -> [calls, self_seconds, items]
        self.class_table_keys = set()
        self.grid_cells = 0
        self.prop41_points = 0

    def begin(self, name):
        return [name, 0.0, 0.0, self.stack[-1] if self.stack else None, 0.0]

    def resume(self, span):
        self.stack.append(span)
        span[4] = perf_counter()

    def suspend(self, span):
        span[1] += perf_counter() - span[4]
        if self.stack[-1] is span:
            self.stack.pop()
        else:  # a generator closed out of order
            self.stack.remove(span)

    def end(self, span, items=0):
        if span[3] is not None:
            span[3][2] += span[1]
        st = self.stats.get(span[0])
        if st is None:
            st = self.stats[span[0]] = [0, 0.0, 0]
        st[0] += 1
        st[1] += span[1] - span[2]
        st[2] += items

    def observe(self, name, args, result):
        """Counts taken at the layer boundary from arguments and results."""
        if name == "curve.class_tables":
            ctx, n = args[0], args[1]
            self.class_table_keys.add((ctx.p, ctx.m, tuple(ctx.modulus), n))
        elif name in ("chords.restricted_count_grid", "chords.chord_count_grid"):
            self.grid_cells += sum(len(row) for row in result)
        elif name == "harness.prop41_sweep":
            self.prop41_points += result.points_checked

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in sorted(self.stats.items())},
            "class_table_keys": len(self.class_table_keys),
            "grid_cells": self.grid_cells,
            "prop41_points": self.prop41_points,
        }


def _wrap(tracer: Tracer, name: str, fn):
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            span = tracer.begin(name)
            items = 0
            it = fn(*args, **kwargs)
            try:
                while True:
                    tracer.resume(span)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.suspend(span)
                    items += 1
                    yield item
            finally:
                it.close()
                tracer.end(span, items)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        tracer.resume(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.suspend(span)
            tracer.end(span)
        tracer.observe(name, args, result)
        return result
    return wrapper


def install() -> Tracer:
    """Wrap the public functions of every gfcurves module; return the tracer."""
    tracer = Tracer()
    package = importlib.import_module("gfcurves")
    modules = [importlib.import_module(f"gfcurves.{m}") for m in MODULES]
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrappers[obj] = _wrap(tracer, f"{short}.{attr}", obj)
    for mod in (package, *modules):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(mod, attr, wrappers[obj])
    return tracer
