"""In-memory span recording and self-time arithmetic for the traced run.

A span is one call of a wrapped layer function (or one benchmark
operation, the root of its call tree): a name, a start and end on
``time.perf_counter``, the index of the span that was open when it began
(its parent), and the id of the operation it belongs to. Spans are kept
in plain lists while the benchmark runs and analysed once at the end.

A span's *self time* is its duration minus the part of that interval
covered by its direct children. Children are merged as intervals before
subtracting, so overlapping children are not subtracted twice and a
child that runs past its parent's end is clipped to the parent.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Iterable

def layer_of(name: str) -> str:
    """``engine.plan`` -> ``engine``; ``op.query`` -> ``op``."""
    return name.split(".", 1)[0]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int      # id of the operation (root span) it belongs to


class SpanRecorder:
    """Records nested spans while ``active``; a no-op otherwise.

    Spans are stored column by column in lists of strings, floats and
    ints, which the garbage collector does not traverse element by
    element, so a run's hundreds of thousands of spans do not slow the
    collections the program itself triggers.
    """

    def __init__(self) -> None:
        self.active = False
        self.counters: dict[str, float] = defaultdict(float)
        self._names: list[str] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._ops: list[int] = []
        self._stack: list[int] = []
        self._op = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._op += 1
        index = len(self._names)
        self._names.append(name)
        self._parents.append(parent)
        self._ops.append(self._op)
        self._ends.append(0.0)
        self._stack.append(index)
        self._starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self._ends[index] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self._names[index]!r} closed out of order")

    @property
    def spans(self) -> list[Span]:
        """Every span recorded so far, in the order they were opened."""
        return [Span(*fields) for fields in zip(
            self._names, self._starts, self._ends, self._parents,
            self._ops)]

    @property
    def op_count(self) -> int:
        """Operations (root spans) opened so far."""
        return self._op + 1

    def parent_name(self) -> str | None:
        """Name of the innermost open span, if any."""
        return self._names[self._stack[-1]] if self._stack else None

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span (same order as ``spans``)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = _covered(span.start, span.end, children.get(index, ()))
        result.append(max(0.0, (span.end - span.start) - covered))
    return result


def _covered(start: float, end: float,
             intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


@dataclass
class Reconciliation:
    """Per-layer self times of a set of operations, in seconds."""

    wall_s: float
    layer_self_s: dict[str, float]

    @property
    def attributed_s(self) -> float:
        return sum(self.layer_self_s.values())

    @property
    def unattributed_s(self) -> float:
        return self.wall_s - self.attributed_s


def reconcile(spans: list[Span], selves: list[float],
              ops: set[int]) -> Reconciliation:
    """Split the wall time of the operations ``ops`` over layers.

    The wall time is the summed duration of the operations' root spans;
    every other span's self time is credited to its layer. What the
    layers do not cover is the benchmark loop's own time between layer
    calls (``unattributed``).
    """
    wall = 0.0
    layers: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selves):
        if span.op not in ops:
            continue
        if span.parent < 0:
            wall += span.end - span.start
        else:
            layers[layer_of(span.name)] += own
    return Reconciliation(wall, dict(layers))


def to_chrome_trace(spans: list[Span], ops: Iterable[int],
                    origin: float) -> dict[str, Any]:
    """The spans of ``ops`` as a Chrome Trace Event Format object.

    One thread per layer, so each layer reads as its own lane; nesting
    across lanes is carried by ``parent`` in each event's args.
    """
    keep = set(ops)
    selected = [(i, s) for i, s in enumerate(spans) if s.op in keep]
    layers = sorted({layer_of(s.name) for __, s in selected})
    tids = {layer: n + 1 for n, layer in enumerate(layers)}
    events: list[dict[str, Any]] = [
        {"name": "thread_name", "cat": "__metadata", "ph": "M", "ts": 0,
         "dur": 0, "pid": 1, "tid": tid, "args": {"name": layer}}
        for layer, tid in tids.items()
    ]
    for index, span in selected:
        events.append({
            "name": span.name,
            "cat": layer_of(span.name),
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": max(0.0, span.end - span.start) * 1e6,
            "pid": 1,
            "tid": tids[layer_of(span.name)],
            "args": {"span": index, "parent": span.parent, "op": span.op},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
