"""The benchmark's three workloads, driven through ``PinotCluster``.

Every workload is one closed loop with one client: the next operation
starts only after the previous one returned. The whole cluster runs
in-process on that one thread, so one client already saturates it. All
inputs come from the ``repro.workloads`` generators under the run's
seed; the cluster receives only the generated records and PQL.

* ``lookup`` -- WVMP profile-view lookups (Fig 15): little engine work
  per query, so fixed per-query costs dominate. Its distinct queries
  outnumber the broker result cache's 1,024 entries.
* ``rollup`` -- anomaly-detection dashboards (Fig 11) plus high-
  cardinality share-analytics group-bys (Fig 14): engine work across
  many segments sets the median, group-by partials through the codec
  and the broker reduce set the tail. Its distinct queries fit in the
  result cache.
* ``ingest`` -- realtime impressions (Fig 16 data, §3.3.6): each step
  produces a batch to Kafka, consumes it, then queries tables whose
  consuming segments just changed, so the result cache does almost
  nothing. The only workload that exercises Kafka, consumption, sealing
  and segment completion.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.cluster.pinot import PinotCluster
from repro.cluster.table import StreamConfig, TableConfig
from repro.errors import PinotError
from repro.pql.ast_nodes import And, CompareOp, Comparison
from repro.pql.parser import parse
from repro.sim.oracle import expected_rows, rows_match
from repro.workloads import anomaly, impressions, share_analytics, wvmp
from repro.workloads.generator import INDUSTRIES, SENIORITIES

from speed import SpeedMeter
from spans import SpanRecorder

#: Share of timed responses kept for the answer check, and its cap.
CHECK_SHARE = 0.05
MAX_CHECKS = 60
#: Speed probes taken between the parts of a set-up (see speed.py).
SETUP_PROBES = 3
#: Warm-up queries (drawn under another seed) before timing starts.
WARMUP_QUERIES = 200
NUM_SERVERS = 3
REPLICATION = 2


@dataclass
class Window:
    """What one measured loop saw. Operations are kept as their
    (start, end) on ``time.perf_counter``."""

    queries: list[tuple[float, float]] = field(default_factory=list)
    writes: list[tuple[float, float]] = field(default_factory=list)
    write_rows: int = 0
    errors: int = 0
    partials: int = 0
    mismatches: int = 0
    checked: int = 0
    lag_rows: float = 0.0
    #: (pql, actual rows, candidate records) kept for the answer check.
    samples: list[tuple[str, list, list]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.queries) + len(self.writes)

    @property
    def failed(self) -> int:
        return self.errors + self.partials + self.mismatches


@dataclass
class Setup:
    cluster: PinotCluster
    #: (start, end) of each timed part of the set-up; the benchmark may
    #: run its speed probe between parts.
    parts: list[tuple[float, float]]
    #: (start, end, rows) of every write step done during set-up.
    pushes: list[tuple[float, float, int]]


class RecordIndex:
    """One table's records grouped by one column's value, so the oracle
    only evaluates rows a query's top-level equality on that column can
    match (the full predicate is still evaluated on each of them)."""

    def __init__(self, column: str):
        self.column = column
        self._groups: dict[Any, list] = {}
        self.all: list[Mapping[str, Any]] = []

    def add(self, records: Sequence[Mapping[str, Any]]) -> None:
        self.all.extend(records)
        for record in records:
            self._groups.setdefault(record[self.column], []).append(record)

    def candidates(self, where) -> list[Mapping[str, Any]]:
        leaves = where.children if isinstance(where, And) else (where,)
        for leaf in leaves:
            if (isinstance(leaf, Comparison) and leaf.op is CompareOp.EQ
                    and leaf.column == self.column):
                return list(self._groups.get(leaf.value, ()))
        return list(self.all)


def candidates(tables: Mapping[str, RecordIndex],
               pql: str) -> list[Mapping[str, Any]]:
    """The records of the query's table its WHERE clause could match."""
    query = parse(pql)
    return tables[query.table].candidates(query.where)


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self._check_rng = random.Random(seed * 7919 + 17)

    # -- the parts each workload defines ------------------------------------

    def setup(self, meter: SpeedMeter) -> Setup:
        raise NotImplementedError

    def warmup(self, cluster: PinotCluster) -> None:
        for pql in self.warmup_queries():
            cluster.execute(pql)

    def warmup_queries(self) -> list[str]:
        raise NotImplementedError

    def step(self, cluster: PinotCluster, index: int, window: Window,
             rec: SpanRecorder | None) -> None:
        raise NotImplementedError

    #: Steps the measured window runs. A step is one timed query, or for
    #: ingest a write step and then a query. Every workload times at
    #: least 1,000 queries, so p99 has ten samples beyond it, and more
    #: than the window's floor of ``--seconds`` takes on the reference
    #: machine, so the work measured is the same on both sides of a
    #: comparison.
    STEPS = 0
    #: Steps the inputs cover, should the ``--seconds`` floor outlast
    #: ``STEPS`` on a much faster program.
    MAX_STEPS = 0
    #: Times the window is run, each time on a freshly set-up cluster
    #: (end-to-end runs only). More passes average more of the machine's
    #: speed drift without growing the working set of one pass.
    PASSES = 1

    def query_class(self, pql: str) -> str:
        """Name of the query's class; its traced root span is
        ``op.<class>``, so the trace splits time by class."""
        return "query"

    def verify(self, cluster: PinotCluster, window: Window) -> None:
        """Answer checks run after the measured window."""
        for pql, actual, records in window.samples:
            window.checked += 1
            if not rows_match(actual, expected_rows(parse(pql), records)):
                window.mismatches += 1
        window.samples.clear()

    def stored_bytes_per_row(self, cluster: PinotCluster) -> float:
        size = rows = 0
        store = cluster.object_store
        for table in cluster.leader_controller().list_tables():
            for name in store.list_segments(table):
                rows += store.get(table, name).num_docs
            size += store.size_bytes(table)
        return size / rows if rows else 0.0

    # -- shared helpers -------------------------------------------------------

    def query(self, cluster: PinotCluster, pql: str, window: Window,
              rec: SpanRecorder | None,
              tables: Mapping[str, RecordIndex]) -> None:
        """One timed query; keeps a seeded sample for the answer check."""
        span = (rec.open(f"op.{self.query_class(pql)}")
                if rec is not None else -1)
        started = time.perf_counter()
        try:
            response = cluster.execute(pql)
        except PinotError:
            response = None
        finally:
            window.queries.append((started, time.perf_counter()))
            if rec is not None:
                rec.close(span)
        if response is None:
            window.errors += 1
        elif response.is_partial:
            window.partials += 1
        elif (self._check_rng.random() < CHECK_SHARE
              and len(window.samples) + window.checked < MAX_CHECKS):
            window.samples.append((pql, list(response.rows),
                                   candidates(tables, pql)))


# -- offline workloads --------------------------------------------------------


def setup_offline(tables: Sequence[tuple[TableConfig, list, int]],
                  meter: SpeedMeter) -> Setup:
    """Cluster construction, table creation, and one build-and-upload
    write step per segment (the Hadoop push of §3.3.5)."""
    meter.between(SETUP_PROBES)
    started = time.perf_counter()
    cluster = PinotCluster(num_servers=NUM_SERVERS)
    for config, __, __ in tables:
        cluster.create_table(config)
    parts = [(started, time.perf_counter())]
    pushes = []
    for config, records, rows_per_segment in tables:
        for offset in range(0, len(records), rows_per_segment):
            chunk = records[offset:offset + rows_per_segment]
            meter.between(SETUP_PROBES)
            started = time.perf_counter()
            for segment in cluster.build_segments(config.name, chunk,
                                                  rows_per_segment):
                cluster.leader_controller().upload_segment(config.name,
                                                           segment)
            parts.append((started, time.perf_counter()))
            pushes.append((*parts[-1], len(chunk)))
    meter.between(SETUP_PROBES)
    return Setup(cluster, parts, pushes)


class OfflineWorkload(Workload):
    """Offline tables set up once, then queried from a seeded stream."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.queries = self.make_queries(seed, self.MAX_STEPS)

    def make_queries(self, seed: int, count: int) -> list[str]:
        raise NotImplementedError

    def warmup_queries(self) -> list[str]:
        return self.make_queries(self.seed + 100_003, WARMUP_QUERIES)

    def step(self, cluster, index, window, rec):
        self.query(cluster, self.queries[index], window, rec, self.tables)


class Lookup(OfflineWorkload):
    name = "lookup"
    ROWS = 200_000
    ROWS_PER_SEGMENT = 25_000  # 8 segments, sorted on vieweeId
    STEPS = 3_000
    MAX_STEPS = 20_000
    PASSES = 2

    def __init__(self, seed: int):
        self.records = wvmp.generate_records(self.ROWS, seed=seed)
        self.tables = {"wvmp": RecordIndex("vieweeId")}
        self.tables["wvmp"].add(self.records)
        super().__init__(seed)

    def make_queries(self, seed: int, count: int) -> list[str]:
        return wvmp.generate_queries(count, seed=seed + 1)

    def setup(self, meter: SpeedMeter) -> Setup:
        config = TableConfig.offline(
            "wvmp", wvmp.schema(), replication=REPLICATION,
            segment_config=wvmp.segment_config("sorted"))
        return setup_offline(
            [(config, self.records, self.ROWS_PER_SEGMENT)], meter)


class Rollup(OfflineWorkload):
    name = "rollup"
    ANOMALY_ROWS = 200_000
    ANOMALY_ROWS_PER_SEGMENT = 10_000  # 20 inverted-index segments
    SHARES_ROWS = 200_000
    SHARES_ROWS_PER_SEGMENT = 50_000  # 4 segments sorted on itemId
    STEPS = 1_000
    MAX_STEPS = 8_000
    PASSES = 2
    #: Every tenth query is a high-cardinality shares group-by; the
    #: rest come from the anomaly-detection query log.
    GROUP_BY_EVERY = 10

    def __init__(self, seed: int):
        self.anomaly = anomaly.generate_records(self.ANOMALY_ROWS, seed=seed)
        self.shares = share_analytics.generate_records(self.SHARES_ROWS,
                                                       seed=seed + 1)
        self.tables = {"anomaly": RecordIndex("metricName"),
                       "shares": RecordIndex("viewerIndustry")}
        self.tables["anomaly"].add(self.anomaly)
        self.tables["shares"].add(self.shares)
        super().__init__(seed)

    def make_queries(self, seed: int, count: int) -> list[str]:
        rng = random.Random(seed + 2)
        dashboards = iter(anomaly.generate_queries(count, seed=seed + 3))
        return [self.viewer_group_by(rng)
                if index % self.GROUP_BY_EVERY == self.GROUP_BY_EVERY - 1
                else next(dashboards)
                for index in range(count)]

    def query_class(self, pql: str) -> str:
        return "viewer_group_by" if "GROUP BY viewerId" in pql else "dashboard"

    @staticmethod
    def viewer_group_by(rng: random.Random) -> str:
        """Top viewers of one industry: about 5k groups per query."""
        industry = INDUSTRIES[rng.randrange(len(INDUSTRIES))]
        seniority = SENIORITIES[rng.randrange(len(SENIORITIES))]
        day = share_analytics.FIRST_DAY + rng.randrange(3)
        return (f"SELECT sum(views) FROM shares "
                f"WHERE viewerIndustry = '{industry}' AND day >= {day} "
                f"AND viewerSeniority <> '{seniority}' "
                f"GROUP BY viewerId TOP 10")

    def setup(self, meter: SpeedMeter) -> Setup:
        anomaly_config = TableConfig.offline(
            "anomaly", anomaly.schema(), replication=REPLICATION,
            segment_config=anomaly.segment_config("inverted"))
        shares_config = TableConfig.offline(
            "shares", share_analytics.schema(), replication=REPLICATION,
            segment_config=share_analytics.segment_config())
        return setup_offline([
            (anomaly_config, self.anomaly, self.ANOMALY_ROWS_PER_SEGMENT),
            (shares_config, self.shares, self.SHARES_ROWS_PER_SEGMENT),
        ], meter)


# -- realtime workload ---------------------------------------------------------


class Ingest(Workload):
    name = "ingest"
    STEPS = 1_000
    MAX_STEPS = 2_000
    TOPIC = "impressions"
    PARTITIONS = 4
    BATCH_ROWS = 50
    #: Rows per consuming segment before it seals and commits: 1,000
    #: steps of 50 rows commit about 48 segments.
    FLUSH_ROWS = 1_000
    RECORDS_PER_POLL = 500
    #: Consumption ticks one write step may take before it is a failure.
    MAX_TICKS = 200
    #: Queries re-run against the drained table for the answer check.
    DRAINED_CHECKS = 20

    def __init__(self, seed: int):
        super().__init__(seed)
        self.records = impressions.generate_records(
            self.BATCH_ROWS * self.MAX_STEPS, seed=seed)
        self.queries = impressions.generate_queries(self.MAX_STEPS,
                                                    seed=seed + 1)
        self.tables = {"impressions": RecordIndex("memberId")}

    def warmup_queries(self) -> list[str]:
        return impressions.generate_queries(WARMUP_QUERIES,
                                            seed=self.seed + 100_003)

    def setup(self, meter: SpeedMeter) -> Setup:
        meter.between(SETUP_PROBES)
        started = time.perf_counter()
        cluster = PinotCluster(num_servers=NUM_SERVERS)
        cluster.create_kafka_topic(self.TOPIC, self.PARTITIONS)
        cluster.create_table(TableConfig.realtime(
            "impressions", impressions.schema(),
            StreamConfig(self.TOPIC, flush_threshold_rows=self.FLUSH_ROWS,
                         records_per_poll=self.RECORDS_PER_POLL),
            replication=REPLICATION))
        parts = [(started, time.perf_counter())]
        meter.between(SETUP_PROBES)
        return Setup(cluster, parts, [])

    @staticmethod
    def consumed(cluster: PinotCluster) -> int:
        """Stream offsets consumed, summed over every replica."""
        return sum(server.stream_progress() for server in cluster.servers)

    def step(self, cluster, index, window, rec):
        batch = self.records[index * self.BATCH_ROWS:
                             (index + 1) * self.BATCH_ROWS]
        target = REPLICATION * (window.write_rows + len(batch))
        span = rec.open("op.write") if rec is not None else -1
        started = time.perf_counter()
        ticks = 0
        lag = 0
        try:
            cluster.ingest(self.TOPIC, batch, key_column="memberId")
            while True:
                cluster.process_realtime()
                ticks += 1
                behind = target - self.consumed(cluster)
                if ticks == 1:
                    lag = behind
                if behind <= 0 or ticks >= self.MAX_TICKS:
                    break
        except PinotError:
            behind = 1
        finally:
            window.writes.append((started, time.perf_counter()))
            if rec is not None:
                rec.close(span)
        if behind > 0:
            window.errors += 1
        window.write_rows += len(batch)
        window.lag_rows = max(window.lag_rows, lag / REPLICATION)
        self.tables["impressions"].add(batch)
        self.query(cluster, self.queries[index], window, rec, self.tables)

    def verify(self, cluster, window):
        # Sampled responses were taken with every produced row consumed,
        # so they are checked against the rows produced before them.
        super().verify(cluster, window)
        cluster.drain_realtime()
        total = cluster.execute("SELECT count(*) FROM impressions")
        window.checked += 1
        if total.is_partial or total.rows != [(window.write_rows,)]:
            window.mismatches += 1
        steps = len(window.queries)
        rng = random.Random(self.seed + 5)
        for index in rng.sample(range(steps),
                                min(self.DRAINED_CHECKS, steps)):
            pql = self.queries[index]
            response = cluster.execute(pql)
            window.checked += 1
            if response.is_partial or not rows_match(
                    response.rows,
                    expected_rows(parse(pql), candidates(self.tables, pql))):
                window.mismatches += 1


WORKLOADS = {cls.name: cls for cls in (Lookup, Rollup, Ingest)}
