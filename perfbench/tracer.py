"""In-memory span recorder and the function wrappers that feed it.

A span is ``[name, start, end, parent, run_id, count]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``run_id`` names the benchmark
operation the span belongs to, and ``count`` is an optional work count taken
from the wrapped call (stages played, leaves returned, bytes written...).
Spans stay in memory until ``write`` is called once at the end of a run.

Functions are wrapped where their callers bind them: ``cooplab.harness``
imports ``play_episode`` by name, so both ``cooplab.harness.play_episode``
and ``cooplab.population.play_episode`` are replaced.  ``installed`` puts the
original objects back on exit, so an untraced run measures the unpatched
program.
"""
from __future__ import annotations

import gzip
import json
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from time import perf_counter
from typing import Callable

NAME, START, END, PARENT, RUN_ID, COUNT = range(6)


@dataclass(frozen=True)
class Target:
    """One traced function: the span name and every ``module.attr`` binding
    through which callers reach it.  ``count(args, kwargs, result)`` extracts
    a work count; ``wrap_args`` may replace the arguments (used to count
    act-function calls inside the tree walk)."""

    name: str
    bindings: tuple[str, ...]
    count: Callable | None = None
    wrap_args: Callable | None = None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.run_id = ""
        self.active = False  # recording only while ``installed``
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.active:
            yield None
            return
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record no spans."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if target.wrap_args is not None:
                args, kwargs = target.wrap_args(tracer, args, kwargs)
            rec = tracer._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if target.count is not None:
                rec[COUNT] = target.count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", target.name)
        return traced

    @contextmanager
    def installed(self, targets):
        """Replace every binding of every target with a span-recording
        wrapper; restore the originals on exit, even after an error."""
        saved = []
        try:
            for target in targets:
                for binding in target.bindings:
                    module_name, attr = binding.rsplit(".", 1)
                    module = import_module(module_name)
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(original, target))
            self.active = True
            yield self
        finally:
            self.active = False
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt") as f:
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def duration(rec) -> float:
    return rec[END] - rec[START]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time covered by its direct children.
    Children of one span never overlap (one thread), so their durations add."""
    out = [duration(rec) for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= duration(rec)
    return out


def aggregate(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds and summed work count.  Busy time
    counts only the outermost span of a name, so a recursive call (a
    flattened agent building its members) is not counted twice."""
    out: dict[str, dict] = {}
    for rec in spans:
        name = rec[NAME]
        agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "count": 0})
        agg["calls"] += 1
        agg["count"] += rec[COUNT] or 0
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            agg["busy_s"] += duration(rec)
    return out
