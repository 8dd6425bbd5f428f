"""Property: the full tiered-storage round trip is lossless.

Hypothesis generates random upsert histories; each is consumed into a
mutable segment, sealed, uploaded through the on-disk format
(FileObjectStore), "evicted", and cold-reloaded. The reloaded segment
must be byte-identical column by column, the primary-key index rebuilt
from the reloaded copy must mask exactly the same docIds, and every
query must answer identically over the original and the reloaded
segment on both the batch engine and the scalar oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.objectstore import FileObjectStore
from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.scalar import execute_segment_scalar
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentConfig
from repro.segment.mutable import MutableSegment
from repro.upsert import TableUpsertManager, UpsertConfig

TABLE = "events_REALTIME"
SEGMENT = "events__0__0"
NUM_KEYS = 6
COUNTRIES = list("uvw")

QUERIES = [
    "SELECT count(*) FROM t",
    "SELECT sum(m), min(m), max(m) FROM t",
    "SELECT sum(m) FROM t WHERE c = 'u' OR m > 20",
    "SELECT sum(m), count(*) FROM t GROUP BY c TOP 10",
    "SELECT distinctcount(k) FROM t WHERE m <= 30",
]

histories = st.lists(
    st.tuples(st.integers(0, NUM_KEYS - 1),   # primary key
              st.integers(0, 2),              # country index
              st.integers(0, 40)),            # metric
    min_size=1, max_size=50,
)


def schema():
    return Schema("events", [
        dimension("k", DataType.LONG), dimension("c"),
        metric("m", DataType.LONG), time_column("day", DataType.INT),
    ])


def assert_segments_identical(original, reloaded):
    assert reloaded.name == original.name
    assert reloaded.num_docs == original.num_docs
    assert reloaded.schema.column_names == original.schema.column_names
    for name in original.schema.column_names:
        ours, theirs = original.column(name), reloaded.column(name)
        assert np.array_equal(ours.dict_ids(), theirs.dict_ids()), name
        assert np.array_equal(ours.values(), theirs.values()), name
        assert ours.dictionary.cardinality == theirs.dictionary.cardinality
    assert original.metadata.min_time == reloaded.metadata.min_time
    assert original.metadata.max_time == reloaded.metadata.max_time


def mask_of(manager, num_docs):
    selection = manager.selection_for(SEGMENT, num_docs)
    if selection is None:
        return np.ones(num_docs, dtype=bool)
    return selection.mask(num_docs)


def rows(pql, segment, engine, valid_docs=None):
    query = optimize(parse(pql))
    result = engine(segment, query, valid_docs=valid_docs)
    server = combine_segment_results(query, [result])
    response = reduce_server_results(query, [server])
    if query.group_by:
        width = len(query.group_by)
        return {tuple(r[:width]): tuple(r[width:])
                for r in response.rows}
    return response.rows


@settings(max_examples=30, deadline=None)
@given(history=histories)
def test_seal_upload_evict_reload_is_lossless(history, tmp_path_factory):
    store = FileObjectStore(tmp_path_factory.mktemp("deepstore"))
    mutable = MutableSegment(SEGMENT, TABLE, schema(), SegmentConfig())
    config = UpsertConfig(mode="upsert", key_columns=("k",))
    manager = TableUpsertManager(TABLE, config)
    for key, country, m in history:
        record = {"k": key, "c": COUNTRIES[country], "m": m,
                  "day": 17000 + (m % 4)}
        manager.apply(SEGMENT, mutable.num_docs, record)
        mutable.index(record)
    sealed = mutable.seal()

    # Upload through the real on-disk format, then cold-reload — the
    # deep-store round trip every eviction forces on the next query.
    store.put(TABLE, sealed)
    reloaded = store.get(TABLE, SEGMENT)
    assert reloaded is not sealed
    assert_segments_identical(sealed, reloaded)
    assert (reloaded.estimated_size_bytes()
            == sealed.estimated_size_bytes())

    # The PK index rebuilt from the reloaded copy (what a server does
    # after restart/failover) masks exactly the same docIds.
    rebuilt = TableUpsertManager(TABLE, config)
    rebuilt.rebuild([reloaded], [])
    mask_before = mask_of(manager, sealed.num_docs)
    mask_after = mask_of(rebuilt, reloaded.num_docs)
    assert np.array_equal(mask_before, mask_after)

    # Query equivalence on both engines, masked and unmasked.
    sel_before = manager.selection_for(SEGMENT, sealed.num_docs)
    sel_after = rebuilt.selection_for(SEGMENT, reloaded.num_docs)
    for pql in QUERIES:
        for engine in (execute_segment, execute_segment_scalar):
            assert (rows(pql, sealed, engine)
                    == rows(pql, reloaded, engine)), pql
            assert (rows(pql, sealed, engine, sel_before)
                    == rows(pql, reloaded, engine, sel_after)), pql
