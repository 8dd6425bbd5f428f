"""Run one benchmark workload against ``PinotCluster`` and print metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 2 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace
1`` runs the workload twice on fresh clusters from the same inputs:
once untraced, once with every layer wrapped (see ``layers.py``), and
reports the per-layer metrics, the reconciliation of layer self times
against the traced wall time, and the tracing overhead. It also writes
the spans of the set-up and of some operations as a Chrome trace to
``perfbench/out/``.

The measured window runs the workload's fixed number of steps, and at
least ``--seconds``. Answer checks run after it. Timings are normalized to a
reference processor speed (see ``speed.py``); the raw figures are
printed alongside. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
non-zero when any operation failed or any answer was wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Set-ups per run: at least this many, and more while they have taken
#: less than SETUP_MIN_S in total (cheap set-ups need more samples).
SETUP_REPEATS = 4
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 200
#: The measured passes together stop here even short of their step
#: count, so a much slower program still finishes within the run's
#: time limit.
MAX_WINDOW_S = 100.0
#: Operations whose spans the Chrome trace keeps: the first few and the
#: slowest few of the measured window (all of them would be tens of MB).
TRACE_FIRST_OPS = 50
TRACE_SLOWEST_OPS = 10
#: String hashing is randomized per process, and the program iterates
#: dicts and sets keyed by strings, so run-to-run timings moved with
#: the hash seed. Every run uses this one.
HASH_SEED = "0"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def make(workload_class, seed: int):
    """Generate a workload's inputs, then freeze them out of the garbage
    collector: the benchmark keeps them for the answer check, and full
    collections would otherwise traverse them at random moments of the
    measured window."""
    workload = workload_class(seed)
    gc.collect()
    gc.freeze()
    return workload


def setups_and_passes(workload, meter, seconds):
    """Set up repeatedly, then run the measured window once per pass,
    each on a freshly set-up cluster. Returns the set-ups, the window
    and the cache hits seen in it."""
    from workloads import Window

    setups = []

    def setup():
        gc.collect()
        setups.append(workload.setup(meter))
        cluster, setups[-1].cluster = setups[-1].cluster, None
        return cluster

    def spent():
        return sum(end - start for one in setups for start, end in one.parts)

    while (len(setups) + workload.PASSES < SETUP_REPEATS
           or (spent() < SETUP_MIN_S
               and len(setups) + workload.PASSES < SETUP_MAX_REPEATS)):
        setup()
    window, hits = Window(), 0
    for __ in range(workload.PASSES):
        cluster = setup()
        workload.warmup(cluster)
        broker = cluster.brokers[0]
        before = broker.metrics.count("cache_hits")
        run_window(workload, cluster, window, meter, seconds,
                   workload.STEPS, workload.MAX_STEPS,
                   cap_s=MAX_WINDOW_S / workload.PASSES)
        hits += broker.metrics.count("cache_hits") - before
        workload.verify(cluster, window)
        del cluster, broker  # free it before the next set-up
    return setups, window, hits


def run_window(workload, cluster, window, meter, seconds, min_steps,
               max_steps, rec=None, cap_s=MAX_WINDOW_S) -> int:
    """The closed loop: one step after another until the window ends."""
    started = time.perf_counter()
    steps = 0
    while steps < max_steps:
        meter.between()
        elapsed = time.perf_counter() - started
        if elapsed >= cap_s:
            break
        if elapsed >= seconds and steps >= min_steps:
            break
        workload.step(cluster, steps, window, rec)
        steps += 1
    meter.between()
    return steps


def end_to_end(workload_name: str, seed: int, seconds: float) -> dict:
    from speed import SpeedMeter
    from workloads import WORKLOADS

    meter = SpeedMeter()
    workload = make(WORKLOADS[workload_name], seed)
    setups, window, hits = setups_and_passes(workload, meter, seconds)

    def timed(intervals):
        return ([meter.normalize(start, end) for start, end in intervals],
                [end - start for start, end in intervals])

    # Write steps come in loads: each offline set-up pushes its segments,
    # and the ingest window produces its batches. Freshness is the p99
    # of a load's write steps, and the median over the run's loads.
    loads = [[(start, end) for start, end, __ in setup.pushes]
             for setup in setups if setup.pushes] + [window.writes]
    loads = [timed(load) for load in loads if load]
    writes = [wall for load, __ in loads for wall in load]
    raw_writes = [wall for __, load in loads for wall in load]
    rows = window.write_rows + sum(rows for setup in setups
                                   for __, __, rows in setup.pushes)
    setup_s, raw_setup_s = zip(*(map(sum, timed(setup.parts))
                                 for setup in setups))
    queries, raw_queries = timed(window.queries)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "query_p50_ms": (statistics.median(queries) * 1e3, "ms"),
        "query_p99_ms": (percentile(queries, 99) * 1e3, "ms"),
        "query_qps": (len(queries) / sum(queries), "1/s"),
        "ingest_rows_per_s": (rows / sum(writes), "rows/s"),
        "freshness_p99_ms": (statistics.median(
            percentile(load, 99) for load, __ in loads) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    attempted = window.attempted + sum(len(setup.pushes) for setup in setups)
    report = {
        "workload": workload_name,
        "seed": seed,
        "set-ups": len(setups),
        "passes": workload.PASSES,
        "timed queries": len(queries),
        "write steps": len(writes),
        "cache hit ratio": hits / len(queries),
        "answers checked": window.checked,
        "error_rate": window.failed / attempted,
        "mean speed factor": meter.mean_factor,
        "raw setup_s": statistics.median(raw_setup_s),
        "raw query_p50_ms": statistics.median(raw_queries) * 1e3,
        "raw query_p99_ms": percentile(raw_queries, 99) * 1e3,
        "raw query_qps": len(raw_queries) / sum(raw_queries),
        "raw ingest_rows_per_s": rows / sum(raw_writes),
        "raw freshness_p99_ms": statistics.median(
            percentile(load, 99) for __, load in loads) * 1e3,
    }
    return result(window, attempted, metrics, report)


def traced(workload_name: str, seed: int, seconds: float) -> dict:
    from layers import (LAYER_METRICS, Installed, coverage_gaps,
                        layer_metrics)
    from repro.obs.export import validate_chrome_trace
    from speed import SpeedMeter, normalize_spans
    from spans import SpanRecorder, reconcile, self_times, to_chrome_trace
    from workloads import WORKLOADS, Window

    meter = SpeedMeter()
    # Untraced pass: fixes the operation count and the reference wall.
    workload = make(WORKLOADS[workload_name], seed)
    cluster = workload.setup(meter).cluster
    workload.warmup(cluster)
    plain = Window()
    steps = run_window(workload, cluster, plain, meter, seconds,
                       workload.STEPS, workload.MAX_STEPS)
    workload.verify(cluster, plain)
    plain_wall = sum(meter.normalize(start, end)
                     for start, end in plain.queries + plain.writes)
    del workload, cluster
    gc.collect()

    # Traced pass: fresh inputs and cluster, the same operations.
    workload = make(WORKLOADS[workload_name], seed)
    rec = SpanRecorder()
    installed = Installed(rec)
    try:
        rec.active = True
        span = rec.open("op.setup")
        cluster = workload.setup(meter).cluster
        rec.close(span)
        setup_ops = set(range(rec.op_count))
        setup_counters = dict(rec.counters)
        rec.counters.clear()
        rec.active = False
        workload.warmup(cluster)
        broker = cluster.brokers[0]
        before = {name: broker.metrics.count(name)
                  for name in ("cache_hits", "cache_misses", "retries")}
        window = Window()
        first_op = rec.op_count
        rec.active = True
        run_window(workload, cluster, window, meter, 0.0, steps, steps, rec)
        rec.active = False
        window_ops = set(range(first_op, rec.op_count))
        delta = {name: broker.metrics.count(name) - value
                 for name, value in before.items()}
        workload.verify(cluster, window)
        bytes_per_row = workload.stored_bytes_per_row(cluster)
    finally:
        installed.uninstall()

    raw_spans = rec.spans
    gaps = coverage_gaps(workload_name, raw_spans)
    if gaps:
        raise SystemExit(f"{workload_name}: traced layers recorded no "
                         f"calls: {', '.join(gaps)}")
    spans = normalize_spans(raw_spans, meter)
    selves = self_times(spans)
    recon = reconcile(spans, selves, window_ops)
    values = layer_metrics(spans, selves, rec.counters, setup_counters,
                           setup_ops, window_ops, {
        "queries": len(window.queries),
        "rows_produced": window.write_rows,
        "cache_hits": delta["cache_hits"],
        "cache_misses": delta["cache_misses"],
        "retries": delta["retries"],
        "lag_rows": window.lag_rows,
        "bytes_per_row": bytes_per_row,
        "overhead_ratio": recon.wall_s / plain_wall,
    })
    units = {m.name: m.unit for m in LAYER_METRICS}
    metrics = {name: (values[name], units[name]) for name in units}

    classes: dict[str, set[int]] = {}
    for span in spans:
        if span.parent < 0 and span.op in window_ops:
            classes.setdefault(span.name, set()).add(span.op)
    walls = {span.op: span.end - span.start
             for span in spans if span.parent < 0}
    slowest = sorted(window_ops, key=lambda op: -walls[op])
    keep = (setup_ops | set(sorted(window_ops)[:TRACE_FIRST_OPS])
            | set(slowest[:TRACE_SLOWEST_OPS]))
    chrome = validate_chrome_trace(
        to_chrome_trace(raw_spans, keep, raw_spans[0].start))
    out = HERE / "out" / f"{workload_name}-seed{seed}.trace.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(chrome))

    report = {
        "workload": workload_name,
        "seed": seed,
        "traced operations": len(window_ops),
        "traced wall s": recon.wall_s,
        "untraced wall s": plain_wall,
        **{f"self s: {layer}": own
           for layer, own in sorted(recon.layer_self_s.items(),
                                    key=lambda kv: -kv[1])},
        "self s: unattributed": recon.unattributed_s,
        **{f"{name} split": _split(reconcile(spans, selves, ops), len(ops))
           for name, ops in sorted(classes.items())},
        "chrome trace": str(out.relative_to(HERE.parent)),
    }
    merged = Window(errors=plain.errors + window.errors,
                    partials=plain.partials + window.partials,
                    mismatches=plain.mismatches + window.mismatches)
    return result(merged, plain.attempted + window.attempted, metrics,
                  report)


def _split(recon, ops: int) -> str:
    """``12 ops, 6.60 ms/op: engine 40%, ...`` for one class of ops."""
    shares = sorted(recon.layer_self_s.items(), key=lambda kv: -kv[1])
    parts = ", ".join(f"{layer} {own / recon.wall_s:.0%}"
                      for layer, own in shares[:5])
    return f"{ops} ops, {recon.wall_s / ops * 1e3:.2f} ms/op: {parts}"


def result(window, attempted: int, metrics: dict, report: dict) -> dict:
    for key, value in report.items():
        print(f"{key:>30}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:>30}: {value:.6g} {unit}")
    return {
        "correct": window.failed == 0,
        "attempted": attempted,
        "failed": window.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lookup", "rollup", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    run = traced if args.trace else end_to_end
    outcome = run(args.workload, args.seed, args.seconds)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        sys.stdout.flush()
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
