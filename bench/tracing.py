"""Span tracing of simplexdist's public functions, from outside the package.

The source tree is never edited: :class:`Tracer` swaps each hooked function
for a timing wrapper in every ``simplexdist`` module namespace that binds
it (``discover`` imports ``sample_points`` and ``divide_last_variable`` by
name, so patching the defining module alone would miss those calls), and
puts the originals back on exit.  Methods are patched on their class.

Spans stay in memory as tuples and are aggregated or written out after the
traced batch.  Times are integer nanoseconds, so a span's self time (its
duration minus its direct children's) is exact and never negative.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _matrix_cells(args, kwargs) -> int:
    matrix = args[0] if args else kwargs["matrix"]
    rows, cols = matrix.shape
    return rows * cols


def _vector_entries(args, kwargs) -> int:
    return len(args[0] if args else kwargs["vector"])


@dataclass(frozen=True)
class Hook:
    """One traced function: ``name`` prefixes its metrics, ``module`` and
    ``attr`` locate it (``attr`` may be ``Class.method``), and ``size``
    optionally measures the work handed to each call."""

    name: str
    module: str
    attr: str
    size: Callable | None = None
    size_metric: str = ""


HOOKS = (
    Hook("cli.main", "cli", "main"),
    Hook("geom.sample_points", "geom", "sample_points"),
    Hook("geom.squared_distances", "geom", "EmbeddedSimplex.squared_distances"),
    Hook("geom.sample_circumsphere", "geom", "sample_circumsphere"),
    Hook("geom.CartesianSimplex.distances", "geom", "CartesianSimplex.distances"),
    Hook("poly.relation_residual_exact", "poly", "relation_residual_exact"),
    Hook("poly.divide_last_variable", "poly", "divide_last_variable"),
    Hook("discover.discover_vanishing", "discover", "discover_vanishing"),
    Hook("discover.discover_on_sphere", "discover", "discover_on_sphere"),
    Hook("discover.numeric_nullspace", "discover", "numeric_nullspace", _matrix_cells, "cells"),
    Hook("discover.rationalize", "discover", "rationalize", _vector_entries, "entries"),
    Hook("cmgeom.probe_realizability", "cmgeom", "probe_realizability"),
    Hook("cmgeom.complete_distance_tuple", "cmgeom", "complete_distance_tuple"),
    Hook("cmgeom.reconstruct_point", "cmgeom", "reconstruct_point"),
    Hook("cmgeom.cayley_menger_det", "cmgeom", "cayley_menger_det"),
)


class Tracer:
    """Context manager that records one span per call of every hook.

    A span is ``(hook index, start ns, end ns, parent span or -1, nested,
    size)``; ``nested`` marks a call made inside another call of the same
    hook, which ``busy_s`` must not count twice.  A hook whose target no
    longer exists is listed in ``absent`` instead of failing the run.
    """

    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._depth = [0] * len(HOOKS)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [
            module for key, module in sys.modules.items()
            if key == "simplexdist" or key.startswith("simplexdist.")
        ]
        for index, hook in enumerate(HOOKS):
            owner = sys.modules.get(f"simplexdist.{hook.module}")
            *path, leaf = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(hook.name)
                continue
            wrapper = self._wrap(index, original, hook.size)
            if path:
                self._patch(owner, leaf, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _patch(self, owner, key, wrapper) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, index: int, fn, size):
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            depth[index] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[index] -= 1
                stack.pop()
                work = size(args, kwargs) if size is not None else 0
                spans[slot] = (index, start, end, parent, depth[index] > 0, work)

        return wrapper


def aggregate(spans) -> dict:
    """Per-hook ``calls``, ``busy_ns`` (outermost spans only), ``self_ns``
    (duration minus direct children) and summed ``size``."""
    child_ns = [0] * len(spans)
    for index, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = {hook.name: {"calls": 0, "busy_ns": 0, "self_ns": 0, "size": 0} for hook in HOOKS}
    for slot, (index, start, end, _, nested, work) in enumerate(spans):
        entry = stats[HOOKS[index].name]
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[slot]
        entry["size"] += work
        if not nested:
            entry["busy_ns"] += end - start
    return stats


def counts_and_seconds(stats: dict) -> tuple[dict, dict]:
    """Split aggregated stats into exact counts and times in seconds,
    keyed by metric name."""
    counts, seconds = {}, {}
    for hook in HOOKS:
        entry = stats[hook.name]
        counts[f"{hook.name}.calls"] = entry["calls"]
        if hook.size_metric:
            counts[f"{hook.name}.{hook.size_metric}"] = entry["size"]
        seconds[f"{hook.name}.busy_s"] = entry["busy_ns"] / 1e9
        seconds[f"{hook.name}.self_s"] = entry["self_ns"] / 1e9
    return counts, seconds


def write_spans(path, spans, absent) -> None:
    """Write spans as JSON: name, start and end in ns, parent span index
    and the index of the CLI call (root span) the span belongs to."""
    records, roots = [], 0
    for index, start, end, parent, _, _ in spans:
        if parent < 0:
            call, roots = roots, roots + 1
        else:
            call = records[parent]["call"]
        records.append(
            {"name": HOOKS[index].name, "start_ns": start, "end_ns": end, "parent": parent, "call": call}
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"absent": absent, "spans": records}) + "\n")
