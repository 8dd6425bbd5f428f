"""The per-layer trace: timing wrappers around each layer's entry points.

Each :class:`Hook` names one function of ``src/repro`` at the name its
callers look up (a module global for functions imported by name, a class
attribute for methods) and the span it records. Installing the hooks
replaces those attributes with wrappers that open a span on a
:class:`~spans.SpanRecorder` around the original call; uninstalling puts
the originals back. Nothing in ``src/`` knows about the wrappers.

:data:`LAYER_METRICS` lists every per-layer metric, its unit, and the
end-to-end metric and workload it is predicted to move (on the other
workloads the prediction is no change). :func:`layer_metrics` computes
them from the recorded spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

from repro.net.codec import payload_bytes
from spans import Span, SpanRecorder, layer_of, reconcile

ALL = ("lookup", "rollup", "ingest")
OFFLINE = ("lookup", "rollup")

Observer = Callable[[SpanRecorder, Any, tuple, dict], None]


@dataclass(frozen=True)
class Hook:
    """One wrapped function: ``owner`` is ``module`` or ``module:Class``."""

    owner: str
    attr: str
    span: str
    #: Workloads on which the wrapper must record at least one call
    #: (set-up or measured window); zero calls there fails the run, so a
    #: rename or re-import in ``src/`` cannot silently zero a layer.
    required: tuple[str, ...] = ()
    observe: Observer | None = None


# -- observers: counts taken at the layer boundary --------------------------


def _count_pruned(rec, result, args, kwargs):
    if result is not None:
        rec.count("cache.pruned")


def _count_servers(rec, result, args, kwargs):
    rec.count("routing.servers", len(result))


def _count_docs(rec, result, args, kwargs):
    rec.count("engine.docs_scanned", result.stats.num_docs_scanned)
    rec.count("engine.total_docs", result.stats.total_docs)


def _count_groups(rec, result, args, kwargs):
    server_results = args[1] if len(args) > 1 else kwargs["server_results"]
    for server_result in server_results:
        if server_result.group_by is not None:
            rec.count("merge.groups", len(server_result.group_by.groups))


def _count_bytes(rec, result, args, kwargs):
    # Serializing the tree to count its bytes is tracing work, not codec
    # work: its own span keeps it out of every layer but ``trace``.
    index = rec.open("trace.bytes")
    try:
        blobs = args[1] if len(args) > 1 else kwargs.get("blobs")
        rec.count("net.bytes", payload_bytes(result, blobs))
    finally:
        rec.close(index)


def _count_build(rec, result, args, kwargs):
    parent = rec.parent_name()
    if parent == "segment.snapshot":
        rec.count("segment.snapshot_rebuilds")
    elif parent != "segment.seal":
        rec.count("segment.build_rows", result.num_docs)


def _count_commit(rec, result, args, kwargs):
    if result:
        rec.count("completion.commits")


def _count_produced(rec, result, args, kwargs):
    rec.count("kafka.rows", result)


HOOKS: tuple[Hook, ...] = (
    Hook("repro.cluster.broker", "parse", "pql.parse", ALL),
    Hook("repro.cluster.broker", "optimize", "pql.optimize", ALL),
    Hook("repro.cluster.broker:BrokerInstance", "execute",
         "broker.execute", ALL),
    Hook("repro.cluster.table:TableConfig", "from_dict",
         "broker.config_decode", ALL),
    Hook("repro.zk.store:ZkStore", "get", "zk.get"),
    Hook("repro.zk.store:ZkStore", "get_or_default", "zk.get_or_default",
         ALL),
    Hook("repro.zk.store:ZkStore", "children", "zk.children", ALL),
    Hook("repro.cache.result_cache:BrokerResultCache", "get", "cache.get",
         ALL),
    Hook("repro.cache.result_cache:BrokerResultCache", "put", "cache.put",
         ALL),
    Hook("repro.cluster.server", "prune_reason", "cache.prune", ALL,
         _count_pruned),
    Hook("repro.routing.balanced:BalancedRouting", "route",
         "routing.route", ALL, _count_servers),
    Hook("repro.routing.large_cluster:LargeClusterRouting", "route",
         "routing.route", (), _count_servers),
    Hook("repro.routing.partition_aware:PartitionAwareRouting", "route",
         "routing.route", (), _count_servers),
    Hook("repro.net.transport:Transport", "request", "net.request", ALL),
    Hook("repro.net.transport", "encode", "net.encode", ALL, _count_bytes),
    Hook("repro.net.transport", "decode", "net.decode", ALL),
    Hook("repro.cluster.server:ServerInstance", "execute", "server.execute",
         ALL),
    Hook("repro.cluster.server:ServerInstance", "process_transition",
         "server.transition", ALL),
    Hook("repro.cluster.server:ServerInstance", "consuming_offset",
         "server.consuming_offset", ("ingest",)),
    Hook("repro.cluster.server:ServerInstance", "consume_tick",
         "server.consume_tick", ("ingest",)),
    Hook("repro.store.remote:DeepStoreService", "fetch", "store.fetch"),
    Hook("repro.cluster.server", "execute_segment", "engine.execute", ALL,
         _count_docs),
    Hook("repro.engine.executor", "plan_segment", "engine.plan", ALL),
    Hook("repro.cluster.server", "combine_segment_results",
         "merge.combine", ALL),
    Hook("repro.cluster.broker", "reduce_server_results", "merge.reduce",
         ALL, _count_groups),
    Hook("repro.segment.mutable:MutableSegment", "snapshot",
         "segment.snapshot", ("ingest",)),
    Hook("repro.segment.mutable:MutableSegment", "seal", "segment.seal",
         ("ingest",)),
    Hook("repro.segment.builder:SegmentBuilder", "build", "segment.build",
         ALL, _count_build),
    Hook("repro.kafka.broker:SimKafka", "produce_all", "kafka.produce",
         ("ingest",), _count_produced),
    Hook("repro.cluster.controller:Controller", "segment_consumed",
         "completion.consumed", ("ingest",)),
    Hook("repro.cluster.controller:Controller", "commit_segment",
         "completion.commit", ("ingest",), _count_commit),
    Hook("repro.cluster.controller:Controller", "upload_segment",
         "controller.upload", OFFLINE),
)


def _wrap(fn: Callable, name: str, rec: SpanRecorder,
          observe: Observer | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        if observe is not None:
            observe(rec, result, args, kwargs)
        return result

    return wrapper


class Installed:
    """The hooks installed on one recorder; ``uninstall`` restores."""

    def __init__(self, rec: SpanRecorder, hooks=HOOKS):
        self._saved: list[tuple[Any, str, Any]] = []
        try:
            for hook in hooks:
                self._install(hook, rec)
        except BaseException:
            self.uninstall()
            raise

    def _install(self, hook: Hook, rec: SpanRecorder) -> None:
        module_name, __, class_name = hook.owner.partition(":")
        target: Any = importlib.import_module(module_name)
        if class_name:
            target = getattr(target, class_name)
        original = vars(target).get(hook.attr)
        if original is None:
            raise AttributeError(
                f"{hook.owner} defines no {hook.attr!r} to trace")
        if isinstance(original, classmethod):
            wrapped: Any = classmethod(
                _wrap(original.__func__, hook.span, rec, hook.observe))
        elif callable(original):
            wrapped = _wrap(original, hook.span, rec, hook.observe)
        else:
            raise TypeError(f"{hook.owner}.{hook.attr} is not callable")
        setattr(target, hook.attr, wrapped)
        self._saved.append((target, hook.attr, original))

    def uninstall(self) -> None:
        while self._saved:
            target, attr, original = self._saved.pop()
            setattr(target, attr, original)


def coverage_gaps(workload: str, spans: list[Span],
                  hooks=HOOKS) -> list[str]:
    """Hooked spans that recorded no call on a workload that needs them."""
    seen = {span.name for span in spans}
    return sorted({hook.span for hook in hooks
                   if workload in hook.required and hook.span not in seen})


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: "<end-to-end metric> on <workload>" this layer should move.
    moves: str


LAYER_METRICS: tuple[LayerMetric, ...] = (
    LayerMetric("pql.parse_ms", "ms", "lower", "query_p50_ms on lookup"),
    LayerMetric("broker.self_ms", "ms", "lower", "query_p50_ms on lookup"),
    LayerMetric("broker.config_decodes", "count", "lower",
                "query_p50_ms on lookup"),
    LayerMetric("broker.config_ms", "ms", "lower", "query_p50_ms on lookup"),
    LayerMetric("broker.retries", "count", "lower",
                "error rate (failed/attempted) on all"),
    LayerMetric("zk.reads", "count", "lower", "query_p50_ms on lookup"),
    LayerMetric("cache.hit_ratio", "ratio", "higher",
                "query_qps and query_p50_ms on lookup"),
    LayerMetric("cache.ms", "ms", "lower",
                "query_qps and query_p50_ms on lookup"),
    LayerMetric("cache.prune_ratio", "ratio", "higher",
                "query_p50_ms on rollup"),
    LayerMetric("cache.prune_ms", "ms", "lower", "query_p50_ms on rollup"),
    LayerMetric("routing.route_ms", "ms", "lower", "query_p50_ms on lookup"),
    LayerMetric("routing.servers_per_query", "count", "lower",
                "query_p50_ms on lookup"),
    LayerMetric("net.requests", "count", "lower",
                "query_p50_ms on lookup, query_p99_ms on rollup"),
    LayerMetric("net.request_ms", "ms", "lower",
                "query_p50_ms on lookup, query_p99_ms on rollup"),
    LayerMetric("net.encode_ms", "ms", "lower",
                "query_p50_ms on lookup, query_p99_ms on rollup"),
    LayerMetric("net.decode_ms", "ms", "lower",
                "query_p50_ms on lookup, query_p99_ms on rollup"),
    LayerMetric("net.bytes", "bytes", "lower",
                "query_p50_ms on lookup, query_p99_ms on rollup"),
    LayerMetric("server.execute_ms", "ms", "lower",
                "query_p50_ms on rollup"),
    LayerMetric("server.segments", "count", "lower",
                "query_p50_ms on rollup"),
    LayerMetric("server.consume_ms_per_krow", "ms", "lower",
                "ingest_rows_per_s on ingest"),
    LayerMetric("engine.plan_ms", "ms", "lower",
                "query_p50_ms on rollup and ingest"),
    LayerMetric("engine.plans", "count", "lower",
                "query_p50_ms on rollup and ingest"),
    LayerMetric("engine.execute_ms", "ms", "lower",
                "query_p50_ms on rollup and ingest"),
    LayerMetric("engine.docs_scanned", "count", "lower",
                "query_p50_ms on rollup and ingest"),
    LayerMetric("engine.scan_ratio", "ratio", "lower",
                "query_p50_ms on rollup and ingest"),
    LayerMetric("merge.combine_ms", "ms", "lower", "query_p99_ms on rollup"),
    LayerMetric("merge.reduce_ms", "ms", "lower", "query_p99_ms on rollup"),
    LayerMetric("merge.groups", "count", "lower", "query_p99_ms on rollup"),
    LayerMetric("segment.snapshot_ms", "ms", "lower",
                "query_p50_ms and query_p99_ms on ingest"),
    LayerMetric("segment.snapshot_rebuild_ratio", "ratio", "lower",
                "query_p50_ms and query_p99_ms on ingest"),
    LayerMetric("segment.seal_ms", "ms", "lower",
                "freshness_p99_ms on ingest"),
    LayerMetric("segment.build_ms_per_krow", "ms", "lower",
                "setup_s on lookup and rollup"),
    LayerMetric("segment.bytes_per_row", "bytes", "lower",
                "peak_rss_mb on all"),
    LayerMetric("kafka.produce_ms_per_krow", "ms", "lower",
                "ingest_rows_per_s on ingest"),
    LayerMetric("kafka.lag_rows", "rows", "lower",
                "freshness_p99_ms on ingest"),
    LayerMetric("completion.commits", "count", "lower",
                "freshness_p99_ms on ingest"),
    LayerMetric("completion.ms", "ms", "lower",
                "freshness_p99_ms on ingest"),
    LayerMetric("controller.upload_ms", "ms", "lower",
                "setup_s on lookup and rollup"),
    LayerMetric("trace.unattributed_ms", "ms", "lower",
                "none: reconciliation check"),
    LayerMetric("trace.overhead_ratio", "ratio", "lower",
                "none: cost of tracing"),
)


@dataclass
class Tally:
    """Per-span-name call counts and self times over a set of ops."""

    calls: dict[str, int]
    self_s: dict[str, float]

    def ms(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names) * 1e3


def tally(spans: list[Span], selves: list[float], ops: set[int]) -> Tally:
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for span, value in zip(spans, selves):
        if span.op in ops and span.parent >= 0:
            calls[span.name] += 1
            own[span.name] += value
    return Tally(dict(calls), dict(own))


def subtree_layer_ms(spans: list[Span], selves: list[float], ops: set[int],
                     root_name: str) -> float:
    """Self time of ``root_name``'s layer inside ``root_name`` subtrees
    (e.g. a snapshot plus the SegmentBuilder.build it triggers)."""
    layer = layer_of(root_name)
    inside = [False] * len(spans)
    total = 0.0
    for index, span in enumerate(spans):
        if span.op not in ops:
            continue
        inside[index] = span.name == root_name or (
            span.parent >= 0 and inside[span.parent])
        if inside[index] and layer_of(span.name) == layer:
            total += selves[index]
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], selves: list[float],
                  counters: dict[str, float], setup_counters: dict[str, float],
                  setup_ops: set[int], window_ops: set[int],
                  run: dict[str, float]) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value, normalized per query unless its
    name says otherwise. ``run`` carries what the loop measured outside
    the spans: ``queries``, ``rows_produced``, ``cache_hits``,
    ``cache_misses``, ``retries``, ``lag_rows``, ``bytes_per_row`` and
    ``overhead_ratio``."""
    w = tally(spans, selves, window_ops)
    s = tally(spans, selves, setup_ops)
    c = counters
    queries = run["queries"]
    commits = c.get("completion.commits", 0.0)
    rows = run["rows_produced"]
    recon = reconcile(spans, selves, window_ops)

    def per_query(value: float) -> float:
        return _ratio(value, queries)

    return {
        "pql.parse_ms": per_query(w.ms("pql.parse", "pql.optimize")),
        "broker.self_ms": per_query(w.ms("broker.execute")),
        "broker.config_decodes": per_query(
            w.calls.get("broker.config_decode", 0)),
        "broker.config_ms": per_query(w.ms("broker.config_decode")),
        "broker.retries": per_query(run["retries"]),
        "zk.reads": per_query(sum(
            w.calls.get(name, 0)
            for name in ("zk.get", "zk.get_or_default", "zk.children"))),
        "cache.hit_ratio": _ratio(
            run["cache_hits"], run["cache_hits"] + run["cache_misses"]),
        "cache.ms": per_query(w.ms("cache.get", "cache.put")),
        "cache.prune_ratio": _ratio(c.get("cache.pruned", 0.0),
                                    w.calls.get("cache.prune", 0)),
        "cache.prune_ms": per_query(w.ms("cache.prune")),
        "routing.route_ms": per_query(w.ms("routing.route")),
        "routing.servers_per_query": per_query(
            c.get("routing.servers", 0.0)),
        "net.requests": per_query(w.calls.get("net.request", 0)),
        "net.request_ms": per_query(w.ms("net.request")),
        "net.encode_ms": per_query(w.ms("net.encode")),
        "net.decode_ms": per_query(w.ms("net.decode")),
        "net.bytes": per_query(c.get("net.bytes", 0.0)),
        "server.execute_ms": per_query(w.ms("server.execute")),
        "server.segments": per_query(w.calls.get("engine.execute", 0)),
        "server.consume_ms_per_krow": _ratio(
            w.ms("server.consume_tick"), rows / 1e3),
        "engine.plan_ms": per_query(w.ms("engine.plan")),
        "engine.plans": per_query(w.calls.get("engine.plan", 0)),
        "engine.execute_ms": per_query(w.ms("engine.execute")),
        "engine.docs_scanned": per_query(
            c.get("engine.docs_scanned", 0.0)),
        "engine.scan_ratio": _ratio(c.get("engine.docs_scanned", 0.0),
                                    c.get("engine.total_docs", 0.0)),
        "merge.combine_ms": per_query(w.ms("merge.combine")),
        "merge.reduce_ms": per_query(w.ms("merge.reduce")),
        "merge.groups": per_query(c.get("merge.groups", 0.0)),
        "segment.snapshot_ms": per_query(1e3 * subtree_layer_ms(
            spans, selves, window_ops, "segment.snapshot")),
        "segment.snapshot_rebuild_ratio": _ratio(
            c.get("segment.snapshot_rebuilds", 0.0),
            w.calls.get("segment.snapshot", 0)),
        "segment.seal_ms": _ratio(1e3 * subtree_layer_ms(
            spans, selves, window_ops, "segment.seal"), commits),
        "segment.build_ms_per_krow": _ratio(
            s.ms("segment.build"),
            setup_counters.get("segment.build_rows", 0.0) / 1e3),
        "segment.bytes_per_row": run["bytes_per_row"],
        "kafka.produce_ms_per_krow": _ratio(w.ms("kafka.produce"),
                                            rows / 1e3),
        "kafka.lag_rows": run["lag_rows"],
        "completion.commits": commits,
        "completion.ms": _ratio(
            w.ms("completion.consumed", "completion.commit"), commits),
        "controller.upload_ms": _ratio(
            s.ms("controller.upload"), s.calls.get("controller.upload", 0)),
        "trace.unattributed_ms": per_query(recon.unattributed_s * 1e3),
        "trace.overhead_ratio": run["overhead_ratio"],
    }
