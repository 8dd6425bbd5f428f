"""Parity of the columnar segment builder with plain Python over rows.

A random record stream is indexed into a :class:`MutableSegment` with
snapshots taken in between, one schema evolution and one DISCARD
replacement mid-stream, then sealed under a config with a sorted,
inverted, bloom and partition column. Every snapshot and the sealed
segment must decode, doc by doc, to the normalized rows, and carry the
dictionaries and statistics those rows imply. The reference never calls
the builder: it is ``Schema.normalize`` plus list/set/min/max.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.errors import SegmentError
from repro.kafka.partitioner import kafka_partition
from repro.segment.bloom import BloomFilter
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.segment.forward import SortedForwardIndex
from repro.segment.mutable import MutableSegment

NUM_PARTITIONS = 4

SCHEMA = Schema("events", [
    dimension("shard", DataType.INT),
    dimension("s"),
    dimension("i", DataType.INT),
    dimension("b", DataType.BOOLEAN),
    dimension("tags", DataType.STRING, multi_value=True),
    dimension("nums", DataType.LONG, multi_value=True),
    metric("l", DataType.LONG),
    metric("f", DataType.FLOAT),
    metric("d", DataType.DOUBLE),
    time_column("t", DataType.LONG),
])
EXTRA = dimension("extra", DataType.DOUBLE)

SEAL_CONFIG = SegmentConfig(
    sorted_column="s",
    inverted_columns=("i", "tags", "s"),
    bloom_columns=("s", "nums"),
    partition_column="shard",
    num_partitions=NUM_PARTITIONS,
)

SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
DOUBLES = st.one_of(
    SIGNED_ZEROS, st.floats(-1e6, 1e6, allow_nan=False), st.integers(-3, 3))
# FLOAT cells hold float32: values a float32 cannot tell apart are one
# value, and must share one dictionary entry.
FLOATS = st.one_of(SIGNED_ZEROS, st.floats(-1e30, 1e30, allow_nan=False),
                   st.sampled_from([0.1, 0.1 + 1e-12, 1.5]))
STRINGS = st.text(alphabet="abé中 ", max_size=3)


def records(shard: int) -> st.SearchStrategy[dict]:
    """Raw records; every non-partition column may be left out so the
    schema default fills it."""
    optional = {
        "s": STRINGS,
        "i": st.integers(-(2**31), 2**31 - 1) | st.integers(-3, 3),
        "b": st.booleans() | st.sampled_from(["true", "0"]),
        "tags": st.lists(STRINGS, max_size=3),
        "nums": st.lists(st.integers(-(2**63), 2**63 - 1) | st.integers(-2, 2),
                         max_size=3),
        "l": st.integers(-(2**63), 2**63 - 1) | st.integers(-3, 3),
        "f": FLOATS,
        "d": DOUBLES,
        "t": st.integers(-10, 10),
    }
    return st.fixed_dictionaries({"shard": st.just(shard)},
                                 optional=optional)


# -- reference: plain Python over the normalized rows -------------------------

def canonical(dtype: DataType, value):
    """The value a segment cell of ``dtype`` holds for ``value``."""
    if dtype is DataType.FLOAT:
        return float(np.float32(value))
    return value


def expected_row(schema: Schema, row: dict) -> dict:
    out = {}
    for spec in schema:
        value = row[spec.name]
        out[spec.name] = ([canonical(spec.dtype, v) for v in value]
                          if spec.multi_value
                          else canonical(spec.dtype, value))
    return out


def column_values(schema: Schema, rows: list[dict], name: str) -> list:
    spec = schema.field(name)
    if not spec.multi_value:
        return [row[name] for row in rows]
    flat = [v for row in rows for v in row[name]]
    # An all-empty multi-value column still holds its default.
    return flat or [canonical(spec.dtype, spec.default)]


def check_segment(segment, schema: Schema, rows: list[dict]) -> None:
    """``segment`` holds exactly ``rows`` (already canonical), in order."""
    assert segment.num_docs == len(rows)
    assert [segment.record(doc) for doc in range(len(rows))] == rows
    for spec in schema:
        values = column_values(schema, rows, spec.name)
        distinct = sorted(set(values))
        column = segment.column(spec.name)
        meta = column.metadata
        # Sorted, strictly ascending, one entry per equality class.
        assert column.dictionary.to_list() == distinct
        assert meta.cardinality == len(distinct)
        assert meta.min_value == min(values)
        assert meta.max_value == max(values)
        if spec.multi_value:
            assert meta.total_entries == sum(len(r[spec.name]) for r in rows)
        if column.inverted is not None:
            for dict_id, value in enumerate(distinct):
                docs = [doc for doc, row in enumerate(rows)
                        if value == row[spec.name]
                        or (spec.multi_value and value in row[spec.name])]
                assert column.inverted.docs_for(dict_id).to_array().tolist() \
                    == docs
    times = [row["t"] for row in rows]
    assert (segment.metadata.min_time, segment.metadata.max_time) == (
        min(times), max(times))
    assert segment.metadata.partition_id == kafka_partition(
        rows[0]["shard"], NUM_PARTITIONS)


def snapshot_ids(segment) -> list[np.ndarray]:
    return [segment.column(name).forward.dict_ids()
            if not segment.column(name).is_multi_value
            else segment.column(name).forward.flat_ids()
            for name in segment.column_names]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_stream_snapshots_and_seal_match_rows(data):
    shard = data.draw(st.integers(-50, 50), label="shard")
    stream = data.draw(st.lists(records(shard), min_size=1, max_size=30),
                       label="stream")
    steps = len(stream)
    evolve_at = data.draw(st.integers(0, steps), label="evolve_at")
    discard_at = data.draw(st.integers(0, steps), label="discard_at")
    snapshot_at = data.draw(st.sets(st.integers(0, steps)),
                            label="snapshot_at")
    mutable = MutableSegment("events__0__0", "events", SCHEMA, SEAL_CONFIG)
    schema = SCHEMA
    rows: list[dict] = []  # the reference: normalized rows, arrival order

    for step in range(steps + 1):
        if step == evolve_at:
            mutable.add_column(EXTRA)
            schema = schema.with_column(EXTRA)
            rows = [{**row, EXTRA.name: EXTRA.default} for row in rows]
        if step == discard_at:
            keep = data.draw(st.integers(0, step), label="keep")
            replacement = stream[:keep]
            mutable.discard_and_replace(replacement)
            rows = [schema.normalize(record) for record in replacement]
        if step in snapshot_at:
            snapshot = mutable.snapshot()
            if not rows:
                assert snapshot is None
            else:
                expected = [expected_row(schema, row) for row in rows]
                check_segment(snapshot, schema, expected)
                assert not any(isinstance(c.forward, SortedForwardIndex)
                               for c in map(snapshot.column,
                                            snapshot.column_names))
                # No new rows: the same snapshot, and a forced rebuild
                # assigns the same ids.
                assert mutable.snapshot() is snapshot
                mutable.invalidate_snapshot()
                rebuilt = mutable.snapshot()
                for a, b in zip(snapshot_ids(snapshot), snapshot_ids(rebuilt)):
                    assert a.tolist() == b.tolist()
        if step == steps:
            break
        record = dict(stream[step])
        if EXTRA.name in schema:
            record[EXTRA.name] = data.draw(DOUBLES, label="extra")
        rows.append(schema.normalize(record))
        assert mutable.index(record) == rows[-1]

    assert mutable.records() == rows
    if not rows:
        return
    sealed = mutable.seal()
    expected = sorted((expected_row(schema, row) for row in rows),
                      key=lambda row: row["s"])
    check_segment(sealed, schema, expected)
    assert sealed.column("s").is_sorted
    assert sealed.metadata.sorted_column == "s"
    for name in SEAL_CONFIG.bloom_columns:
        bloom = BloomFilter.from_payload(sealed.column(name).metadata.bloom)
        assert all(bloom.might_contain(v)
                   for v in column_values(schema, expected, name))


@pytest.mark.parametrize("dtype", [DataType.FLOAT, DataType.DOUBLE])
def test_nan_cell_rejected_at_build(dtype):
    builder = SegmentBuilder("seg", "t", Schema("t", [metric("m", dtype)]))
    builder.add({"m": float("nan")})
    with pytest.raises(SegmentError, match="not in dictionary"):
        builder.build()
