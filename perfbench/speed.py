"""Processor-speed normalization of the benchmark's timings.

On a shared machine the processor's speed drifts by a quarter or more
over seconds to tens of seconds, and CPU time drifts with wall time, so
the drift is speed, not scheduling. Between operations the benchmark
times a fixed probe: interpreter-bound dict, sort and JSON work plus a
memory-bound NumPy pass, the mix the program's own work has. An
operation's measured duration is then scaled by ``REFERENCE_PROBE_S /
local probe time``, where the local probe time is the median of the
probes taken within ``WINDOW_S`` of the operation. The result reads as
the duration at the speed the machine runs the probe in
``REFERENCE_PROBE_S``. The probe is benchmark code: a change to the
program does not change it.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time

import numpy as np

from spans import Span

#: Probe duration the normalized timings are expressed against.
REFERENCE_PROBE_S = 0.0015
#: Minimum time between probes, and the half-width of the window whose
#: probes set an operation's local speed.
INTERVAL_S = 0.05
WINDOW_S = 0.5

_ARRAY = np.random.default_rng(0).random(200_000)
_KEYS = [("k", i % 499, str(i)) for i in range(1_500)]
_TREE = [[i, str(i), {"a": i, "b": [i, i + 1]}] for i in range(150)]


def probe() -> float:
    """Time one run of the fixed probe, in seconds."""
    started = time.perf_counter()
    counts: dict = {}
    for key in _KEYS:
        counts[key] = counts.get(key, 0) + 1
    json.dumps(_TREE)
    sorted(_KEYS, key=lambda key: key[2])
    _ARRAY.sum()
    np.argsort(_ARRAY[:15_000])
    return time.perf_counter() - started


class SpeedMeter:
    """Probes between operations and normalizes their durations."""

    def __init__(self) -> None:
        self._at: list[float] = []
        self._took: list[float] = []
        self._last = float("-inf")

    def between(self, probes: int = 1) -> None:
        """Call between operations: probes when one is due. Around long
        operations, which have few probes within the window, callers
        ask for several at once."""
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            for __ in range(probes):
                self._at.append(time.perf_counter())
                self._took.append(probe())
            self._last = time.perf_counter()

    def factor(self, start: float, end: float) -> float:
        """Speed factor for an operation that ran from start to end."""
        if not self._at:
            raise RuntimeError("no probe taken yet")
        middle = (start + end) / 2
        lo = bisect.bisect_left(self._at, middle - WINDOW_S)
        hi = bisect.bisect_right(self._at, middle + WINDOW_S)
        if hi - lo < 2:  # too few nearby: take the nearest two
            index = bisect.bisect_left(self._at, middle)
            lo, hi = max(0, index - 1), min(len(self._at), index + 1)
        return REFERENCE_PROBE_S / statistics.median(self._took[lo:hi])

    def normalize(self, start: float, end: float) -> float:
        """Normalized duration of an operation, in seconds."""
        return (end - start) * self.factor(start, end)

    @property
    def mean_factor(self) -> float:
        return REFERENCE_PROBE_S / statistics.mean(self._took)


def normalize_spans(spans: list[Span], meter: SpeedMeter) -> list[Span]:
    """Every span rescaled by its operation's speed factor, about the
    start of the operation's root span, so nesting is kept and every
    duration and self time is scaled alike."""
    roots = {span.op: (span.start, meter.factor(span.start, span.end))
             for span in spans if span.parent < 0}
    scaled = []
    for span in spans:
        origin, factor = roots[span.op]
        scaled.append(Span(span.name, origin + (span.start - origin) * factor,
                           origin + (span.end - origin) * factor,
                           span.parent, span.op))
    return scaled
