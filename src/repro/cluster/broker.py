"""Pinot brokers (§3.2, §3.3.2-3.3.3).

Brokers parse and optimize queries, pick a routing table, scatter the
query to servers, gather the per-server partial results, and merge them
into the final response. They listen to external-view changes and
rebuild routing tables as replicas come and go. For hybrid tables the
broker transparently rewrites one logical query into an offline and a
realtime query split at the time boundary (Fig 6).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace

from repro.cache.bus import TableEpochs
from repro.cache.pruner import equality_constraints as _equality_constraints
from repro.cache.result_cache import BrokerResultCache, CachedResult
from repro.cluster.health import (
    EVENT_EJECTED,
    EVENT_HEALED,
    FailureDetector,
    HealthPolicy,
    QueuePressure,
)
from repro.cluster.table import TableConfig, TableType
from repro.cluster.tenant import TenantQuotaManager
from repro.common.timeutils import time_boundary
from repro.engine.merge import reduce_server_results
from repro.engine.results import BrokerResponse, ServerResult
from repro.errors import (
    ClusterError,
    RoutingError,
    ServerBusyError,
    ThrottledError,
)
from repro.helix.manager import HelixManager
from repro.helix.statemachine import SegmentState
from repro.net import CallResult, HedgePolicy, LatencyTracker, SimClock
from repro.obs.metrics import BrokerMetrics
from repro.obs.trace import (
    STATUS_CANCELLED,
    STATUS_ERROR,
    STATUS_OK,
    Span,
    SpanContext,
    Trace,
    Tracer,
)
from repro.pql.ast_nodes import (
    AggFunc,
    Aggregation,
    HavingCondition,
    OrderBy,
    Query,
)
from repro.pql.parser import parse
from repro.pql.rewriter import optimize, split_hybrid
from repro.routing.balanced import BalancedRouting
from repro.routing.base import RoutingStrategy, TableRoutingSnapshot
from repro.routing.large_cluster import LargeClusterRouting
from repro.routing.partition_aware import PartitionAwareRouting

_QUERYABLE_STATES = frozenset(
    {SegmentState.ONLINE.value, SegmentState.CONSUMING.value}
)

#: Smart-approximation rewrites (§4.3 follow-up work): exact functions
#: whose partial state grows with the data, and the bounded-state sketch
#: function the broker swaps in when the estimated input size crosses
#: the configured threshold.
_APPROX_REWRITES = {
    AggFunc.DISTINCTCOUNT: AggFunc.DISTINCTCOUNTHLL,
    AggFunc.PERCENTILE50: AggFunc.PERCENTILEEST50,
    AggFunc.PERCENTILE90: AggFunc.PERCENTILEEST90,
    AggFunc.PERCENTILE95: AggFunc.PERCENTILEEST95,
    AggFunc.PERCENTILE99: AggFunc.PERCENTILEEST99,
}

#: Rewrites gated on the target column's distinct-value count (the
#: exact state is a value set); the rest gate on total row count (the
#: exact state is the raw sample).
_CARDINALITY_GATED = frozenset({AggFunc.DISTINCTCOUNT})


def _make_strategy(config: TableConfig,
                   rng: random.Random) -> RoutingStrategy:
    name = config.routing_strategy
    options = dict(config.routing_options)
    if name == "balanced":
        return BalancedRouting(rng=rng, **options)
    if name == "large_cluster":
        return LargeClusterRouting(rng=rng, **options)
    if name == "partition_aware":
        return PartitionAwareRouting(rng=rng, **options)
    raise ClusterError(f"unknown routing strategy {name!r}")


@dataclass(frozen=True)
class QueryLogEntry:
    """One executed query's footprint, mined for auto-indexing (§5.2)."""

    table: str
    filter_columns: frozenset[str]
    entries_scanned_in_filter: int
    docs_scanned: int


@dataclass
class _FailedSubRequest:
    """One failed scatter sub-request awaiting failover."""

    instance: str
    segments: list[str]
    result: ServerResult
    tried: set[str]


@dataclass
class _ScatterOutcome:
    """Everything one physical query's scatter/gather produced."""

    results: list[ServerResult] = field(default_factory=list)
    recovered_errors: list[str] = field(default_factory=list)
    pruned: int = 0
    contacted: set[str] = field(default_factory=set)
    responded: set[str] = field(default_factory=set)
    retries: int = 0
    segments_failed_over: int = 0
    #: True when any sub-request ran out of deadline budget; such a
    #: response must never be cached even if it merged cleanly.
    deadline_exhausted: bool = False
    #: Virtual instant the broker finished waiting on sub-requests (the
    #: gather barrier) — the query's own wall, independent of whatever
    #: the shared clock has reached serving other traffic.
    finished_at: float = 0.0
    #: Hedged duplicates issued for this physical query.
    hedges: int = 0
    #: Accumulated link + queue time across all sub-requests (the
    #: per-query "network" stage).
    network_ms: float = 0.0


class BrokerInstance:
    """One Pinot broker."""

    #: Bound on the retained query log (oldest entries are dropped).
    QUERY_LOG_LIMIT = 10_000
    #: Per sub-request attempt bound: the primary dispatch plus up to
    #: two failovers to other replicas.
    MAX_SUBREQUEST_ATTEMPTS = 3
    #: Base of the exponential backoff charged against the query's
    #: deadline before each retry (simulated — no real sleep).
    RETRY_BACKOFF_BASE_MS = 25.0

    def __init__(self, instance_id: str, helix: HelixManager,
                 quotas: TenantQuotaManager | None = None,
                 seed: int = 0, clock: SimClock | None = None,
                 hedging: HedgePolicy | None = None,
                 tracer: Tracer | None = None,
                 health: HealthPolicy | FailureDetector | None = None,
                 use_approximate_function: bool = False,
                 approx_threshold: int = 10_000):
        self.instance_id = instance_id
        self._helix = helix
        #: Smart approximations (off by default): when enabled — per
        #: cluster here, or per query via
        #: ``OPTION(useApproximateFunction=...)`` — the broker rewrites
        #: exact DISTINCTCOUNT/PERCENTILE aggregations to their
        #: bounded-state sketch variants once the estimated input
        #: (distinct values / total rows) reaches ``approx_threshold``.
        self.use_approximate_function = use_approximate_function
        self.approx_threshold = approx_threshold
        #: All sub-requests travel over the cluster transport; deadline
        #: math, backoff accounting, and quota refill read its clock.
        self._transport = helix.transport
        self._clock = clock if clock is not None else helix.transport.clock
        #: Hedged sub-requests (off unless a policy is supplied): track
        #: per-table sub-request latencies and re-issue stragglers.
        self._hedging = hedging if hedging is not None and hedging.enabled \
            else None
        self._latency = (LatencyTracker(self._hedging)
                         if self._hedging is not None else None)
        #: Failure detector (off unless configured, matching real
        #: Pinot's opt-in broker module): scores every sub-request
        #: outcome, ejects sick servers from routing, probes them back.
        if isinstance(health, FailureDetector):
            self.health: FailureDetector | None = health
        elif isinstance(health, HealthPolicy):
            self.health = FailureDetector(health)
        else:
            self.health = None
        #: Smoothed inbound-queue utilization across contacted servers;
        #: drives adaptive admission (tenant-priority load shedding).
        self.pressure = QueuePressure()
        self._quotas = quotas
        self._rng = random.Random(seed)
        self._strategies: dict[str, RoutingStrategy] = {}
        self._dirty: set[str] = set()
        self.queries_served = 0
        self.query_log: list[QueryLogEntry] = []
        self.metrics = BrokerMetrics()
        #: Distributed tracing (repro.obs): sampling off by default,
        #: per-query opt-in via ``OPTION(trace=true)``.
        self.tracer = tracer if tracer is not None else Tracer(
            clock=self._clock, component=instance_id, seed=seed,
        )
        #: Result cache + the per-table epochs its keys embed; epochs
        #: bump on every invalidation-bus event for the table.
        self.result_cache = BrokerResultCache(clock=self._clock)
        self._epochs = TableEpochs(bus=helix.invalidation_bus)
        self._routing_versions: dict[str, int] = {}
        helix.watch_external_view(self._on_view_change)

    # -- routing-table maintenance (§3.3.2) -----------------------------------

    def _on_view_change(self, event: str, path: str) -> None:
        table = path.rsplit("/", 1)[-1]
        self._dirty.add(table)

    def _strategy_for(self, table: str) -> RoutingStrategy:
        if table not in self._strategies:
            config = self._table_config(table)
            self._strategies[table] = _make_strategy(config, self._rng)
            self._dirty.add(table)
        if table in self._dirty:
            self._rebuild(table)
            self._dirty.discard(table)
        return self._strategies[table]

    def _rebuild(self, table: str) -> None:
        self._routing_versions[table] = (
            self._routing_versions.get(table, 0) + 1
        )
        config = self._table_config(table)
        view = self._helix.external_view(table)
        live = set(self._helix.live_instances())
        segment_to_instances: dict[str, list[str]] = {}
        for segment, replica_states in view.items():
            replicas = [
                instance for instance, state in replica_states.items()
                if state in _QUERYABLE_STATES and instance in live
            ]
            if replicas:
                segment_to_instances[segment] = sorted(replicas)
        snapshot = TableRoutingSnapshot(
            segment_to_instances=segment_to_instances,
            segment_partitions=self._segment_partitions(
                table, config, segment_to_instances
            ),
            partition_column=(config.partition.column
                              if config.partition else None),
            num_partitions=(config.partition.num_partitions
                            if config.partition else None),
        )
        self._strategies[table].rebuild(snapshot)

    def _segment_partitions(self, table: str, config: TableConfig,
                            segments: dict[str, list[str]]) -> dict[str, int]:
        if config.partition is None:
            return {}
        partitions: dict[str, int] = {}
        for segment in segments:
            meta = self._segment_meta(table, segment)
            partition = meta.get("partition_id", meta.get("partition"))
            if partition is not None:
                partitions[segment] = partition
        return partitions

    def _segment_meta(self, table: str, segment: str) -> dict:
        """A segment's published metadata: the offline record, else the
        realtime one, else empty."""
        return (self._helix.get_property(f"segments/{table}/{segment}")
                or self._helix.get_property(f"realtime/{table}/{segment}")
                or {})

    def _table_config(self, table: str) -> TableConfig:
        payload = self._helix.get_property(f"tableconfigs/{table}")
        if payload is None:
            raise ClusterError(f"no such table: {table!r}")
        return TableConfig.from_dict(payload)

    # -- query execution (§3.3.3) ------------------------------------------------

    def execute(self, pql: str | Query, tenant: str | None = None,
                now: float | None = None,
                at: float | None = None) -> BrokerResponse:
        """Run one query end to end and return the broker response.

        The scatter/gather is failure-hardened (§3.3.3 step 7 and the
        resilience follow-up work): failed sub-requests are retried on
        different replicas within the query's ``OPTION(timeoutMs=...)``
        deadline, and when no replica can serve some segments the
        merged response is returned with ``partial=True`` and per-server
        error detail instead of failing the whole query.

        ``at`` pins the query's virtual start (and scatter departure)
        time, letting callers model concurrent load: several queries
        issued ``at`` the same instant contend for the same server
        queues even though this process runs them sequentially.
        """
        started = at if at is not None else self._clock.now()
        query = parse(pql) if isinstance(pql, str) else pql
        query = optimize(query)

        physical = self._resolve_physical_queries(query)
        query, physical, rewrites = self._maybe_rewrite_approx(query,
                                                               physical)
        first_config = self._table_config(physical[0].table)
        tenant = tenant or first_config.tenant
        if self._quotas is not None:
            clock = now if now is not None else self._clock.now()
            try:
                self._quotas.admit(tenant, clock,
                                   pressure=self.pressure.value)
            except ThrottledError as exc:
                self.metrics.incr("admission_shed"
                                  if exc.reason == "overload"
                                  else "throttled")
                raise

        self.metrics.incr("queries")
        timeout_ms = query.options.get("timeoutMs")
        deadline = (started + timeout_ms / 1e3
                    if timeout_ms is not None else None)
        stage_times: dict[str, float] = {}

        #: Per-query trace (repro.obs): None unless sampled in or
        #: forced with OPTION(trace=true) — the untraced path pays only
        #: this call and a few None checks.
        trace = self.tracer.start_trace(
            "query", at=started, force=bool(query.options.get("trace")),
            table=query.table, pql=str(query),
        )
        if trace is not None:
            self.metrics.incr("traces")

        cache_key = None
        if query.options.get("skipCache"):
            self.metrics.incr("cache_bypass")
        else:
            cache_started = self._clock.now()
            cache_key = self._cache_key(physical)
            cached = (self.result_cache.get(cache_key)
                      if cache_key is not None else None)
            self._record_stage(
                "cache", (self._clock.now() - cache_started) * 1e3,
                stage_times)
            if trace is not None:
                outcome_label = ("bypass" if cache_key is None
                                 else "hit" if cached is not None
                                 else "miss")
                trace.add_span(
                    "cache", trace.root, cache_started, self._clock.now(),
                    component=self.instance_id, outcome=outcome_label,
                )
            if cache_key is None:
                # Consuming offsets unknown (e.g. a replica died
                # mid-query): bypass rather than risk a stale hit.
                self.metrics.incr("cache_bypass")
            elif cached is not None:
                return self._serve_from_cache(cached, tenant, now,
                                              started, stage_times, trace)
            else:
                self.metrics.incr("cache_misses")

        server_results: list[ServerResult] = []
        recovered: list[str] = []
        log_entries: list[QueryLogEntry] = []
        contacted: set[str] = set()
        responded: set[str] = set()
        pruned_total = 0
        retries = 0
        failed_over = 0
        deadline_exhausted = False
        finished = started
        for physical_query in physical:
            outcome = self._scatter_gather(physical_query, deadline,
                                           stage_times, depart_at=at,
                                           trace=trace)
            at = None  # only the first physical query departs at `at`
            finished = max(finished, outcome.finished_at)
            server_results.extend(outcome.results)
            recovered.extend(outcome.recovered_errors)
            pruned_total += outcome.pruned
            contacted |= outcome.contacted
            responded |= outcome.responded
            retries += outcome.retries
            failed_over += outcome.segments_failed_over
            deadline_exhausted |= outcome.deadline_exhausted
            entry = self._record_query_log(physical_query, outcome.results)
            if entry is not None:
                log_entries.append(entry)

        elapsed_ms = (max(started, finished) - started) * 1e3
        if self._quotas is not None:
            clock = now if now is not None else self._clock.now()
            self._quotas.charge(tenant, elapsed_ms / 1e3, clock)
        self.queries_served += 1
        merge_started = self._clock.now()
        response = reduce_server_results(query, server_results, elapsed_ms,
                                         recovered_exceptions=recovered)
        merge_ended = self._clock.now()
        self._record_stage("merge", (merge_ended - merge_started) * 1e3,
                           stage_times)
        if trace is not None:
            trace.add_span("merge", trace.root, merge_started, merge_ended,
                           component=self.instance_id,
                           rows=len(response.table))
        response.num_servers_queried = len(contacted)
        response.num_servers_responded = len(responded)
        response.num_segments_pruned_by_broker = pruned_total
        response.num_retries = retries
        response.num_segments_failed_over = failed_over
        response.stage_times_ms = stage_times
        response.rewrites = rewrites
        if response.is_partial:
            # Partial answers must never be cached: a retry after the
            # failure heals would keep returning the degraded result.
            self.metrics.incr("partial_responses")
        elif cache_key is not None and not deadline_exhausted:
            self.result_cache.put(cache_key, response, log_entries)
        if trace is not None:
            # Attach via replace() AFTER the cache put: the cache stores
            # the response by reference, and cached entries must stay
            # trace-free (a later hit is its own, much shorter, trace).
            trace.root.attributes.update(
                partial=response.is_partial,
                servers_queried=len(contacted),
                servers_responded=len(responded),
                retries=retries,
                rows=len(response.table),
            )
            self.tracer.finish_trace(
                trace,
                status=STATUS_ERROR if response.is_partial else STATUS_OK,
            )
            response = replace(response, trace=trace.to_dict())
        return response

    # -- result cache (repro.cache) -----------------------------------------

    def _cache_key(self, physical: list[Query]) -> tuple | None:
        """The result-cache key for one logical query's physical plan.

        Per physical query: normalized plan text, the table's segment
        epoch, the routing-table version, and the consuming-segment
        offsets. Returns None (bypass caching) when any consuming
        replica's offset cannot be determined — a key that cannot prove
        freshness must not be cached under.
        """
        parts = []
        for physical_query in physical:
            table = physical_query.table
            self._strategy_for(table)  # refresh routing if dirty
            fingerprint = self._consuming_fingerprint(table)
            if fingerprint is None:
                return None
            parts.append((
                table,
                str(physical_query),
                bool(physical_query.options.get("skipPrune")),
                self._epochs.epoch(table),
                self._routing_versions.get(table, 0),
                fingerprint,
            ))
        return tuple(parts)

    def _consuming_fingerprint(self, table: str) -> tuple | None:
        """The (segment, instance, offset) triples of every CONSUMING
        replica — offline tables return (). Embedding live offsets in
        the key gives realtime/hybrid caching zero staleness by
        construction: any newly consumed event changes the key."""
        view = self._helix.external_view(table)
        entries = []
        for segment, replica_states in view.items():
            for instance, state in replica_states.items():
                if state != SegmentState.CONSUMING.value:
                    continue
                participant = self._helix.participant(instance)
                if participant is None or not hasattr(
                        participant, "consuming_offset"):
                    return None
                try:
                    offset = self._transport.call(
                        self.instance_id, instance,
                        "consuming_offset", table, segment,
                    )
                except ClusterError:
                    offset = None
                if offset is None:
                    return None
                entries.append((segment, instance, offset))
        return tuple(sorted(entries))

    def _serve_from_cache(self, cached: CachedResult, tenant: str | None,
                          now: float | None, started: float,
                          stage_times: dict[str, float],
                          trace: Trace | None = None) -> BrokerResponse:
        """Answer from the result cache, keeping every side effect a
        real execution would have had: quota charging, the query log
        (auto-index mining, §5.2), and query counters."""
        self.metrics.incr("cache_hits")
        self.query_log.extend(cached.log_entries)
        if len(self.query_log) > self.QUERY_LOG_LIMIT:
            del self.query_log[:len(self.query_log) // 2]
        elapsed_ms = max(0.0, self._clock.now() - started) * 1e3
        if self._quotas is not None:
            clock = now if now is not None else self._clock.now()
            self._quotas.charge(tenant, elapsed_ms / 1e3, clock)
        self.queries_served += 1
        trace_dict = None
        if trace is not None:
            # A cache hit's trace is just root + the cache span: no
            # route/scatter/rpc spans because no server was contacted.
            trace.root.attributes["cache_hit"] = True
            self.tracer.finish_trace(trace)
            trace_dict = trace.to_dict()
        return replace(
            cached.response,
            cache_hit=True,
            time_used_ms=elapsed_ms,
            stage_times_ms=dict(stage_times),
            trace=trace_dict,
        )

    # -- smart approximations ------------------------------------------------

    def _maybe_rewrite_approx(
        self, query: Query, physical: list[Query],
    ) -> tuple[Query, list[Query], tuple[str, ...]]:
        """Swap exact DISTINCTCOUNT/PERCENTILE for sketch variants when
        enabled and the estimated input crosses the threshold.

        Runs *before* the cache key is computed, and the rewritten
        select list is part of the physical plan text the key embeds —
        so exact and approximate answers can never collide in the
        result cache.
        """
        option = query.options.get("useApproximateFunction")
        enabled = (bool(option) if option is not None
                   else self.use_approximate_function)
        if not enabled:
            return query, physical, ()
        targets = [a for a in query.aggregations
                   if a.func in _APPROX_REWRITES]
        if not targets:
            return query, physical, ()
        total_docs, cardinalities = self._approx_estimates(
            physical, {a.column for a in targets
                       if a.func in _CARDINALITY_GATED})
        mapping: dict[Aggregation, Aggregation] = {}
        rewrites: list[str] = []
        for aggregation in targets:
            if aggregation.func in _CARDINALITY_GATED:
                estimate = cardinalities.get(aggregation.column, 0)
            else:
                estimate = total_docs
            if estimate < self.approx_threshold:
                continue
            rewritten = Aggregation(_APPROX_REWRITES[aggregation.func],
                                    aggregation.column)
            mapping[aggregation] = rewritten
            rewrites.append(f"{aggregation} -> {rewritten}")
        if not mapping:
            return query, physical, ()
        query = self._apply_rewrites(query, mapping)
        self.metrics.incr("approx_rewrites")
        return query, self._resolve_physical_queries(query), tuple(rewrites)

    def _approx_estimates(
        self, physical: list[Query], columns: set[str],
    ) -> tuple[int, dict[str, int]]:
        """Summed segment-metadata estimates across every physical
        table: total stored docs, and per-column distinct-value counts
        (falling back to the segment's doc count when a segment predates
        cardinality publishing)."""
        total_docs = 0
        cardinalities: dict[str, int] = {}
        for physical_query in physical:
            table = physical_query.table
            for segment in self._helix.external_view(table):
                meta = self._segment_meta(table, segment)
                num_docs = meta.get("num_docs") or 0
                total_docs += num_docs
                cards = meta.get("cardinalities") or {}
                for column in columns:
                    cardinalities[column] = (
                        cardinalities.get(column, 0)
                        + cards.get(column, num_docs)
                    )
        return total_docs, cardinalities

    @staticmethod
    def _apply_rewrites(query: Query,
                        mapping: dict[Aggregation, Aggregation]) -> Query:
        """Rebuild the query with every mapped aggregation replaced —
        consistently across select, ORDER BY and HAVING, which all
        reference aggregations by value."""
        select = tuple(
            mapping.get(item, item) if isinstance(item, Aggregation)
            else item
            for item in query.select
        )
        order_by = tuple(
            OrderBy(mapping[o.expression], o.descending)
            if isinstance(o.expression, Aggregation)
            and o.expression in mapping else o
            for o in query.order_by
        )
        having = tuple(
            HavingCondition(mapping.get(h.aggregation, h.aggregation),
                            h.op, h.value)
            for h in query.having
        )
        return Query(
            table=query.table, select=select, where=query.where,
            group_by=query.group_by, having=having, order_by=order_by,
            limit=query.limit, offset=query.offset,
            select_star=query.select_star, options=dict(query.options),
        )

    def _record_stage(self, stage: str, elapsed_ms: float,
                      stage_times: dict[str, float]) -> None:
        self.metrics.record_stage(stage, elapsed_ms)
        stage_times[stage] = stage_times.get(stage, 0.0) + elapsed_ms

    def _resolve_physical_queries(self, query: Query) -> list[Query]:
        """Map the logical table to physical queries, splitting hybrid
        tables at the time boundary (§3.3.3, Fig 6)."""
        logical = query.table
        offline = f"{logical}_{TableType.OFFLINE.value}"
        realtime = f"{logical}_{TableType.REALTIME.value}"
        has_offline = self._helix.get_property(
            f"tableconfigs/{offline}") is not None
        has_realtime = self._helix.get_property(
            f"tableconfigs/{realtime}") is not None
        if not has_offline and not has_realtime:
            # Allow physical names directly (e.g. "events_OFFLINE").
            if self._helix.get_property(f"tableconfigs/{logical}") is not None:
                return [query]
            raise ClusterError(f"no such table: {logical!r}")
        if has_offline and not has_realtime:
            return [query.with_table(offline)]
        if has_realtime and not has_offline:
            return [query.with_table(realtime)]

        config = self._table_config(offline)
        time_column = config.time_column
        if time_column is None:
            raise ClusterError(
                f"hybrid table {logical!r} requires a time column"
            )
        boundary = self._time_boundary(offline, config)
        if boundary is None:
            # No offline data yet; serve everything from realtime.
            return [query.with_table(realtime)]
        offline_query, realtime_query = split_hybrid(
            query, time_column, boundary, offline, realtime
        )
        return [offline_query, realtime_query]

    def _time_boundary(self, offline_table: str,
                       config: TableConfig) -> int | None:
        max_time: int | None = None
        for segment in self._helix.list_properties(
            f"segments/{offline_table}"
        ):
            meta = self._helix.get_property(
                f"segments/{offline_table}/{segment}"
            ) or {}
            segment_max = meta.get("max_time")
            if segment_max is not None:
                max_time = (segment_max if max_time is None
                            else max(max_time, segment_max))
        if max_time is None:
            return None
        # Use the table's configured granularity *including its size*:
        # with e.g. (DAYS, 7) buckets, a boundary of max_time - 1 would
        # let the offline side serve a partially-pushed trailing bucket
        # and drop the realtime rows that complete it. max - size is
        # always <= the last fully-covered bucket's end, so offline
        # (time <= boundary) and realtime (time > boundary) partition
        # the axis with no gap and no overlap.
        return time_boundary(max_time, config.retention_granularity)

    def _scatter_gather(self, query: Query, deadline: float | None,
                        stage_times: dict[str, float],
                        depart_at: float | None = None,
                        trace: Trace | None = None) -> _ScatterOutcome:
        """Route, scatter, and gather one physical query with replica
        failover, hedging, and graceful degradation."""
        outcome = _ScatterOutcome()

        route_started = self._clock.now()
        strategy = self._strategy_for(query.table)
        try:
            routing_table = strategy.route(query)
        except RoutingError as exc:
            route_ended = self._clock.now()
            self._record_stage(
                "route", (route_ended - route_started) * 1e3, stage_times)
            if trace is not None:
                span = trace.add_span(
                    "route", trace.root, route_started, route_ended,
                    component=self.instance_id, table=query.table,
                )
                span.set_error(str(exc), error_type="RoutingError")
            outcome.results.append(
                ServerResult(server=self.instance_id, error=str(exc))
            )
            outcome.finished_at = self._clock.now()
            return outcome
        routing_table, pruned = self._prune_by_time(query, routing_table)
        routing_table, bloom_pruned = self._prune_by_bloom(query,
                                                           routing_table)
        outcome.pruned = pruned + bloom_pruned
        #: Instances whose dispatch this query is probe traffic (the
        #: capped trickle sent to ejected servers).
        probes: set[str] = set()
        routing_table = self._apply_health(strategy, routing_table, probes)
        route_ended = self._clock.now()
        self._record_stage(
            "route", (route_ended - route_started) * 1e3, stage_times)
        if trace is not None:
            trace.add_span(
                "route", trace.root, route_started, route_ended,
                component=self.instance_id, table=query.table,
                servers=len(routing_table),
                segments_pruned=outcome.pruned,
            )

        # Scatter: the primary fan-out over the chosen routing table.
        # Every sub-request departs at the same virtual instant — the
        # broker sends them concurrently, even though this process
        # executes the handlers one after another.
        scatter_started = self._clock.now()
        t0 = depart_at if depart_at is not None else scatter_started
        scatter_span = None
        if trace is not None:
            scatter_span = trace.add_span(
                "scatter", trace.root, t0, None,
                component=self.instance_id, table=query.table,
                fanout=len(routing_table),
            )
        failures: deque[_FailedSubRequest] = deque()
        in_flight: list[tuple[str, list[str], ServerResult,
                              CallResult | None, Span | None]] = []
        for instance, segments in routing_table.items():
            result, call, span = self._dispatch(
                instance, query, segments, deadline, outcome,
                depart_at=t0, trace=trace, parent=scatter_span,
                probe=instance in probes,
            )
            in_flight.append((instance, segments, result, call, span))

        barrier = t0
        for instance, segments, result, call, span in in_flight:
            winner_call = call
            #: Every replica this sub-request touched (primary plus any
            #: hedge) — a failure is enqueued with ALL of them so the
            #: gather reselect can never re-pick a replica that just
            #: failed (hedge losers included).
            attempted = {instance}
            if call is not None:
                result, winner_call = self._maybe_hedge(
                    strategy, query, instance, segments, result, call,
                    t0, deadline, outcome, attempted, probes,
                    trace=trace, parent=scatter_span, primary_span=span,
                )
            if winner_call is not None:
                barrier = max(barrier, winner_call.completed)
                if self._latency is not None and result.error is None:
                    # Only the winner's own flight time (departure to
                    # completion) feeds the percentile window. Counting
                    # from t0 would fold the budget wait into every
                    # hedged sample, compounding the budget by the
                    # multiplier each query until hedging disabled
                    # itself; counting stragglers would do the same.
                    self._latency.observe(query.table,
                                          winner_call.duration_s)
            if result.error is None:
                outcome.results.append(result)
                outcome.responded.add(result.server)
            else:
                failures.append(_FailedSubRequest(
                    instance, segments, result, tried=attempted
                ))
        # The broker's gather barrier: it has now waited for every
        # primary (and winning hedge) response on the virtual timeline.
        self._clock.advance_to(barrier)
        finished = barrier
        if scatter_span is not None:
            scatter_span.end_s = self._clock.now()
        self._record_stage(
            "scatter", (self._clock.now() - scatter_started) * 1e3,
            stage_times)

        # Gather: fail sub-requests over to other replicas, bounded by
        # MAX_SUBREQUEST_ATTEMPTS and the remaining deadline budget.
        gather_started = self._clock.now()
        gather_span = None
        if trace is not None and failures:
            gather_span = trace.add_span(
                "gather", trace.root, gather_started, None,
                component=self.instance_id, table=query.table,
                failed_subrequests=len(failures),
            )
        while failures:
            failed = failures.popleft()
            attempt = len(failed.tried)
            backoff_ms = self.RETRY_BACKOFF_BASE_MS * (2 ** (attempt - 1))
            within_deadline = (
                deadline is None
                or self._clock.now() + backoff_ms / 1e3 < deadline
            )
            if attempt >= self.MAX_SUBREQUEST_ATTEMPTS or not within_deadline:
                if not within_deadline:
                    self.metrics.incr("deadline_exhausted")
                    outcome.deadline_exhausted = True
                    reason = "deadline exhausted"
                else:
                    reason = f"retry attempts exhausted ({attempt})"
                # Attribute the give-up to the server that actually
                # produced the last error (failed.result.server), with
                # the replicas already tried spelled out.
                outcome.results.append(replace(
                    failed.result,
                    error=(f"{failed.result.error} [gave up: {reason}; "
                           f"tried {sorted(failed.tried)}]"),
                ))
                continue
            reroute, unroutable = self._reselect(
                strategy, failed.segments, failed.tried, probes)
            if unroutable:
                # No replica left for *these* segments: report exactly
                # which segments are stuck and which replicas failed,
                # attributed to the server of the last real error —
                # not blanket-blamed on the primary when only a subset
                # of its segments is unroutable.
                self.metrics.incr("segments_unroutable", len(unroutable))
                outcome.results.append(ServerResult(
                    server=failed.result.server,
                    error=(f"segments {sorted(unroutable)} have no "
                           f"untried replica (tried "
                           f"{sorted(failed.tried)}); last error: "
                           f"{failed.result.error}"),
                ))
            for instance, segments in reroute.items():
                self.metrics.incr("retries")
                self.metrics.incr("retry_backoff_ms", backoff_ms)
                outcome.retries += 1
                result, call, retry_span = self._dispatch(
                    instance, query, segments, deadline, outcome,
                    trace=trace, parent=gather_span,
                    probe=instance in probes,
                )
                if retry_span is not None:
                    retry_span.attributes["retry_attempt"] = attempt
                if call is not None:
                    self._clock.advance_to(call.completed)
                    finished = max(finished, call.completed)
                if result.error is None:
                    outcome.results.append(result)
                    outcome.responded.add(instance)
                    outcome.segments_failed_over += len(segments)
                    self.metrics.incr("failovers")
                    self.metrics.incr("segments_failed_over",
                                      len(segments))
                    outcome.recovered_errors.append(
                        f"{failed.instance}: {failed.result.error} "
                        f"(recovered on {instance})"
                    )
                else:
                    failures.append(_FailedSubRequest(
                        instance, segments, result,
                        tried=failed.tried | {instance},
                    ))
        if gather_span is not None:
            gather_span.end_s = self._clock.now()
        self._record_stage(
            "gather", (self._clock.now() - gather_started) * 1e3,
            stage_times)
        self._record_stage("network", outcome.network_ms, stage_times)
        outcome.finished_at = finished
        return outcome

    def _maybe_hedge(self, strategy: RoutingStrategy, query: Query,
                     instance: str, segments: list[str],
                     result: ServerResult, call: CallResult, t0: float,
                     deadline: float | None, outcome: _ScatterOutcome,
                     attempted: set[str], probes: set[str],
                     trace: Trace | None = None,
                     parent: Span | None = None,
                     primary_span: Span | None = None,
                     ) -> tuple[ServerResult, CallResult]:
        """Re-issue a straggling sub-request to another replica once its
        latency exceeds the percentile budget; first response wins. A
        sub-request that *failed* outright is the ultimate straggler:
        it is hedged immediately (departing when the failure is known)
        instead of waiting for the gather loop's backoff.

        Returns the winning (result, call) pair. The loser is cancelled:
        its response is discarded and it never reaches the merge. In a
        trace, the hedge appears as a sibling rpc span of the primary,
        and the loser's span is marked ``cancelled``.

        Every replica contacted here is added to ``attempted`` so that
        when the sub-request still ends up failing, the gather loop's
        reselect excludes the losing hedge replica too — without this,
        reselect could immediately re-pick the very server whose hedge
        just failed.
        """
        if self._latency is None:
            return result, call
        assert self._hedging is not None
        failed_primary = result.error is not None
        budget = self._latency.budget_s(query.table)
        if not failed_primary and call.completed - t0 <= budget:
            return result, call
        if outcome.hedges >= self._hedging.max_hedges_per_query:
            return result, call
        reroute, unroutable = self._reselect(strategy, segments,
                                             set(attempted), probes)
        if unroutable or len(reroute) != 1:
            # No single alternate replica hosts the whole segment set;
            # hedging a split would multiply fan-out, so don't.
            return result, call
        (alternate, alt_segments), = reroute.items()
        outcome.hedges += 1
        attempted.add(alternate)
        self.metrics.incr("hedges")
        depart = call.completed if failed_primary else t0 + budget
        hedge_result, hedge_call, hedge_span = self._dispatch(
            alternate, query, alt_segments, deadline, outcome,
            depart_at=depart, hedge=True, trace=trace, parent=parent,
            probe=alternate in probes,
        )
        if failed_primary:
            if hedge_call is not None and hedge_result.error is None:
                # The hedge repaired the failure before the gather loop
                # ever saw it.
                self.metrics.incr("hedge_wins")
                self.metrics.incr("segments_failed_over",
                                  len(alt_segments))
                outcome.segments_failed_over += len(alt_segments)
                outcome.recovered_errors.append(
                    f"{instance}: {result.error} "
                    f"(recovered on {alternate} via hedge)"
                )
                if primary_span is not None:
                    primary_span.attributes["hedge_loser"] = True
                if hedge_span is not None:
                    hedge_span.attributes["hedge_winner"] = True
                return hedge_result, hedge_call
            # Hedge failed too: keep the primary's error; ``attempted``
            # now carries both replicas for the gather reselect.
            return result, call
        if (hedge_call is not None and hedge_result.error is None
                and hedge_call.completed < call.completed):
            # The hedge beat the straggler: first response wins, the
            # original sub-request is cancelled unread.
            self.metrics.incr("hedge_wins")
            self.metrics.incr("hedges_cancelled")
            if primary_span is not None:
                primary_span.status = STATUS_CANCELLED
                primary_span.attributes["hedge_loser"] = True
            if hedge_span is not None:
                hedge_span.attributes["hedge_winner"] = True
            return hedge_result, hedge_call
        self.metrics.incr("hedges_cancelled")
        if hedge_span is not None:
            hedge_span.status = STATUS_CANCELLED
            hedge_span.attributes["hedge_loser"] = True
        return result, call

    def _dispatch(self, instance: str, query: Query, segments: list[str],
                  deadline: float | None, outcome: _ScatterOutcome,
                  depart_at: float | None = None, hedge: bool = False,
                  trace: Trace | None = None, parent: Span | None = None,
                  probe: bool = False,
                  ) -> tuple[ServerResult, CallResult | None, Span | None]:
        """Send one sub-request over the transport, mapping transport
        failures (unreachable, overloaded) and an exhausted deadline
        onto error results the merge can degrade around.

        When the query is traced, the sub-request's span context crosses
        the codec boundary with the call (like an HTTP trace header) and
        the server's spans come back attached to the response; this
        method grafts them under an ``rpc`` span with ``network`` /
        ``queue`` / ``execute`` children.
        """
        outcome.contacted.add(instance)
        self.metrics.incr("hedge_requests" if hedge else "scatter_requests")
        depart = depart_at if depart_at is not None else self._clock.now()
        if deadline is not None and depart > deadline:
            self.metrics.incr("deadline_exhausted")
            outcome.deadline_exhausted = True
            if trace is not None:
                span = trace.add_span(
                    "rpc", parent or trace.root, depart, depart,
                    component=self.instance_id, server=instance,
                    hedge=hedge,
                )
                span.set_error("broker deadline exceeded",
                               error_type="DeadlineExceeded")
            return ServerResult(server=instance,
                                error="broker deadline exceeded"), None, None
        if self.health is not None:
            self.health.record_dispatch(instance, now=depart, probe=probe)
        ctx = None
        execute_span_id = None
        if trace is not None:
            # Reserve the server-side execute span's id up front so the
            # server parents its own spans under it while the broker is
            # still waiting for the response.
            execute_span_id = trace.allocate_id()
            ctx = SpanContext(trace_id=trace.trace_id,
                              span_id=execute_span_id, sampled=True)
        call = self._transport.request(
            self.instance_id, instance, "execute",
            query, query.table, segments, depart_at=depart,
            trace_ctx=ctx,
        )
        self.metrics.incr("network_link_ms", call.link_s * 1e3)
        self.metrics.incr("queue_wait_ms", call.queue_s * 1e3)
        if call.queue_depth > self.metrics.count("max_queue_depth"):
            self.metrics.counters["max_queue_depth"] = call.queue_depth
        outcome.network_ms += (call.link_s + call.queue_s) * 1e3
        span = None
        if trace is not None:
            span = trace.add_span(
                "rpc", parent or trace.root, call.departed, call.completed,
                component=self.instance_id, server=instance,
                segments=len(segments), hedge=hedge,
            )
            trace.add_span(
                "network", span, call.departed, call.arrived,
                component=self.instance_id, server=instance,
                link_ms=call.link_s * 1e3,
                request_bytes=call.request_bytes,
                response_bytes=call.response_bytes,
            )
            if call.handled:
                trace.add_span(
                    "queue", span, call.arrived, call.started,
                    component=instance, queue_depth=call.queue_depth,
                )
                trace.add_span(
                    "execute", span, call.started,
                    call.started + call.service_s,
                    span_id=execute_span_id, component=instance,
                )
                trace.extend(call.remote_spans)
            elif call.rejected:
                rejection = trace.add_span(
                    "queue", span, call.arrived, call.arrived,
                    component=instance, queue_depth=call.queue_depth,
                    rejected=True,
                )
                rejection.status = STATUS_ERROR
        self._observe_pressure(instance, call)
        if call.error is not None:
            if isinstance(call.error, ServerBusyError):
                self.metrics.incr("server_busy_rejections")
                # A full queue is overload, not sickness: it feeds the
                # admission pressure signal, never the health score.
            else:
                self.metrics.incr("servers_unreachable")
                self._observe_health(instance, failure=True,
                                     now=call.completed)
            if span is not None:
                span.set_error(str(call.error),
                               error_type=type(call.error).__name__,
                               rejected=call.rejected)
            return ServerResult(server=instance,
                                error=str(call.error)), call, span
        result = call.value
        if result.error is not None:
            self.metrics.incr("server_errors")
            self._observe_health(instance, failure=True,
                                 now=call.completed)
            if span is not None:
                span.set_error(result.error, error_type="ServerError")
        else:
            # Injected/simulated latency lives in elapsed_ms, not the
            # transport timing, so score the larger of the two.
            self._observe_health(
                instance, failure=False,
                latency_s=max(call.duration_s, result.elapsed_ms / 1e3),
                now=call.completed,
            )
        return result, call, span

    def _observe_pressure(self, instance: str, call: CallResult) -> None:
        """Feed the admission-control pressure signal from this call's
        observed inbound-queue utilization (1.0 on outright rejection)."""
        endpoint = self._transport.endpoint(instance)
        if endpoint is None or endpoint.queue_capacity <= 0:
            return
        utilization = (1.0 if call.rejected
                       else call.queue_depth / endpoint.queue_capacity)
        self.pressure.observe(utilization)

    def _observe_health(self, instance: str, failure: bool,
                        latency_s: float = 0.0,
                        now: float | None = None) -> None:
        """Feed the failure detector; mirror transitions into metrics."""
        if self.health is None:
            return
        at = now if now is not None else self._clock.now()
        if failure:
            event = self.health.observe_failure(instance, at)
        else:
            event = self.health.observe_success(instance, latency_s, at)
        if event == EVENT_EJECTED:
            self.metrics.incr("health_ejections")
        elif event == EVENT_HEALED:
            self.metrics.incr("health_heals")

    def _apply_health(self, strategy: RoutingStrategy, routing_table,
                      probes: set[str]):
        """Route-time health filter: segments routed to ejected servers
        move to healthy replicas; each ejected server instead receives
        its segments as a cadence-capped probe when the trickle budget
        allows, and as a *forced* probe when it is the last replica
        standing (correctness beats ejection hygiene)."""
        detector = self.health
        if detector is None:
            return routing_table
        ejected = detector.ejected_set()
        if not ejected:
            return routing_table
        now = self._clock.now()
        healthy: dict[str, list[str]] = {}
        for instance, segments in routing_table.items():
            if instance not in ejected:
                healthy.setdefault(instance, []).extend(segments)
                continue
            if detector.try_probe(instance, now):
                probes.add(instance)
                self.metrics.incr("health_probes")
                healthy.setdefault(instance, []).extend(segments)
                continue
            reroute, unroutable = strategy.reselect(segments, ejected)
            if reroute:
                self.metrics.incr(
                    "health_reroutes",
                    sum(len(s) for s in reroute.values()))
            for alt, alt_segments in reroute.items():
                healthy.setdefault(alt, []).extend(alt_segments)
            if unroutable:
                # Only ejected replicas host these segments: probe the
                # original holder out of cadence rather than return an
                # unroutable partial answer.
                detector.try_probe(instance, now, force=True)
                probes.add(instance)
                self.metrics.incr("health_probes")
                healthy.setdefault(instance, []).extend(unroutable)
        return healthy

    def _reselect(self, strategy: RoutingStrategy, segments: list[str],
                  tried: set[str], probes: set[str]
                  ) -> tuple[dict[str, list[str]], list[str]]:
        """``strategy.reselect`` that also avoids ejected servers,
        falling back to them (as forced probes) when they hold the only
        remaining replica for some segments."""
        if self.health is None:
            return strategy.reselect(segments, tried)
        ejected = self.health.ejected_set()
        if not ejected:
            return strategy.reselect(segments, tried)
        reroute, unroutable = strategy.reselect(segments, tried | ejected)
        if unroutable:
            fallback, unroutable = strategy.reselect(unroutable, tried)
            now = self._clock.now()
            for instance, fsegs in fallback.items():
                if self.health.is_ejected(instance):
                    self.health.try_probe(instance, now, force=True)
                    probes.add(instance)
                    self.metrics.incr("health_probes")
                reroute.setdefault(instance, []).extend(fsegs)
        return reroute, unroutable

    def _prune_by_time(self, query: Query, routing_table):
        """Drop segments whose time range cannot match the query before
        contacting any server — servers left with no segments are not
        contacted at all (reduces fan-out for time-scoped queries)."""
        if query.where is None:
            return routing_table, 0
        config = self._table_config(query.table)
        time_column = config.time_column
        if time_column is None:
            return routing_table, 0
        from repro.engine.planner import time_bounds

        low, high = time_bounds(query.where, time_column)
        if low is None and high is None:
            return routing_table, 0

        pruned = 0
        out: dict[str, list[str]] = {}
        for instance, segments in routing_table.items():
            kept = []
            for segment in segments:
                meta = self._segment_meta(query.table, segment)
                min_time = meta.get("min_time")
                max_time = meta.get("max_time")
                if (min_time is not None and high is not None
                        and min_time > high):
                    pruned += 1
                    continue
                if (max_time is not None and low is not None
                        and max_time < low):
                    pruned += 1
                    continue
                kept.append(segment)
            if kept:
                out[instance] = kept
        return out, pruned

    def _prune_by_bloom(self, query: Query, routing_table):
        """Bloom-filter pruning: drop segments whose distinct-value
        bloom filter proves an EQ/IN value cannot occur (never a false
        negative, so pruning is always safe)."""
        if query.where is None:
            return routing_table, 0
        constraints = _equality_constraints(query.where)
        if not constraints:
            return routing_table, 0
        from repro.segment.bloom import BloomFilter

        bloom_cache: dict[tuple[str, str], BloomFilter | None] = {}

        def bloom_for(segment: str, column: str):
            key = (segment, column)
            if key not in bloom_cache:
                meta = self._helix.get_property(
                    f"segments/{query.table}/{segment}") or {}
                payload = (meta.get("blooms") or {}).get(column)
                bloom_cache[key] = (
                    BloomFilter.from_payload(payload) if payload else None
                )
            return bloom_cache[key]

        pruned = 0
        out: dict[str, list[str]] = {}
        for instance, segments in routing_table.items():
            kept = []
            for segment in segments:
                skip = False
                for column, values in constraints.items():
                    bloom = bloom_for(segment, column)
                    if bloom is None:
                        continue
                    if not any(bloom.might_contain(v) for v in values):
                        skip = True
                        break
                if skip:
                    pruned += 1
                else:
                    kept.append(segment)
            if kept:
                out[instance] = kept
        return out, pruned

    def _record_query_log(self, query: Query,
                          results: list[ServerResult]
                          ) -> QueryLogEntry | None:
        """Record the query's filter footprint; the controller's
        auto-index analysis mines this log (§5.2). Returns the entry so
        the result cache can replay it on hits."""
        from repro.pql.ast_nodes import predicate_columns

        if query.where is None:
            return None
        entries = sum(r.stats.num_entries_scanned_in_filter
                      for r in results if r.error is None)
        docs = sum(r.stats.num_docs_scanned
                   for r in results if r.error is None)
        entry = QueryLogEntry(
            table=query.table,
            filter_columns=frozenset(predicate_columns(query.where)),
            entries_scanned_in_filter=entries,
            docs_scanned=docs,
        )
        self.query_log.append(entry)
        if len(self.query_log) > self.QUERY_LOG_LIMIT:
            del self.query_log[:len(self.query_log) // 2]
        return entry

    def explain(self, pql: str | Query) -> dict[str, dict[str, str]]:
        """Per-server, per-segment physical plan descriptions for a
        query, without executing it."""
        query = optimize(parse(pql) if isinstance(pql, str) else pql)
        out: dict[str, dict[str, str]] = {}
        for physical_query in self._resolve_physical_queries(query):
            strategy = self._strategy_for(physical_query.table)
            try:
                routing_table = strategy.route(physical_query)
            except RoutingError:
                continue
            for instance, segments in routing_table.items():
                server = self._helix.participant(instance)
                if server is None or not hasattr(server, "explain"):
                    continue
                try:
                    plans = self._transport.call(
                        self.instance_id, instance, "explain",
                        physical_query, physical_query.table, segments,
                    )
                except ClusterError:
                    continue
                out.setdefault(instance, {}).update(plans)
        return out

    def slow_queries(self, k: int | None = None) -> list[dict]:
        """Top-K traced queries by duration (the broker's slow-query
        log), newest window first. Only traced queries appear: turn up
        the tracer's sample rate or use ``OPTION(trace=true)``."""
        return self.tracer.slow_log.summaries(k)

    def fanout_for(self, pql: str | Query) -> int:
        """Number of servers one execution of this query would contact
        (instrumentation for the Fig 16 routing comparison)."""
        query = optimize(parse(pql) if isinstance(pql, str) else pql)
        physical = self._resolve_physical_queries(query)
        servers: set[str] = set()
        for physical_query in physical:
            strategy = self._strategy_for(physical_query.table)
            servers.update(strategy.route(physical_query))
        return len(servers)
