"""Segment builder: records -> :class:`ImmutableSegment`.

The builder is columnar from the first row. :meth:`SegmentBuilder.add`
normalizes a record against the schema once and appends each value to
its column's accumulator: an insertion-order value -> id map (Pinot's
mutable dictionary) plus a growable id buffer. :meth:`SegmentBuilder.build`
leaves the accumulators untouched: it sorts each column's *distinct*
values into a sorted dictionary (§3.1), remaps the buffered ids through
one rank array, optionally reorders documents by a *sorted column*
(§4.2), bit-packs every forward index, builds requested inverted
indexes and bloom filters, computes the column statistics the planner
relies on, and optionally attaches a star-tree (§4.3) and timestamp
rollups. A consuming segment keeps one builder for its whole life and
builds from it for every snapshot and once more to seal.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from repro.common.schema import Schema
from repro.common.types import DataType, FieldSpec
from repro.errors import SegmentError
from repro.segment.bitpack import PackedIntArray, bits_required
from repro.segment.dictionary import Dictionary
from repro.segment.forward import (
    MultiValueForwardIndex,
    SingleValueForwardIndex,
    SortedForwardIndex,
)
from repro.segment.inverted import InvertedIndex
from repro.segment.metadata import ColumnMetadata, SegmentMetadata
from repro.segment.segment import Column, ImmutableSegment

if TYPE_CHECKING:  # pragma: no cover
    from repro.startree.builder import StarTreeConfig


@dataclass
class SegmentConfig:
    """Build-time options for a segment.

    Attributes:
        sorted_column: Column by which to physically reorder records; its
            forward index becomes a :class:`SortedForwardIndex` (§4.2).
        inverted_columns: Columns to build bitmap inverted indexes for
            at build time (more can be added on demand later).
        star_tree: Optional star-tree configuration (§4.3).
        partition_column / num_partitions: When set, the builder records
            the partition id of the segment's data for partition-aware
            routing (§4.4); all records must map to one partition.
        timestamp_index: Time granularities (in time-column units) to
            pre-aggregate into rollups at build time; the planner serves
            aligned ``GROUP BY timebucket(...)`` queries from them.
    """

    sorted_column: str | None = None
    inverted_columns: tuple[str, ...] = ()
    #: Columns to build distinct-value bloom filters for; the broker
    #: uses them to prune whole segments for EQ/IN queries.
    bloom_columns: tuple[str, ...] = ()
    star_tree: "StarTreeConfig | None" = None
    partition_column: str | None = None
    num_partitions: int | None = None
    timestamp_index: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if (self.partition_column is None) != (self.num_partitions is None):
            raise SegmentError(
                "partition_column and num_partitions must be set together"
            )


class _ColumnAccumulator:
    """Append-time encoding of one column.

    ``ids`` maps each distinct value to an id in first-seen order (equal
    values, e.g. ``0.0`` and ``-0.0``, share the first one's id);
    ``buffer`` holds one id per document, or per entry for a multi-value
    column, whose ``ends`` hold each document's end offset into it.
    """

    __slots__ = ("spec", "name", "ids", "buffer", "ends")

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.name = spec.name
        self.ids: dict[Any, int] = {}
        self.buffer = array("I")
        self.ends = array("q") if spec.multi_value else None

    def append(self, value: Any) -> None:
        """Add one document's value (its list of values, if multi-value)."""
        ids = self.ids
        if self.ends is None:
            self.buffer.append(ids.setdefault(value, len(ids)))
            return
        for item in value:
            self.buffer.append(ids.setdefault(item, len(ids)))
        self.ends.append(len(self.buffer))

    def encode(self) -> tuple[Dictionary, np.ndarray]:
        """The sorted dictionary, and the buffered ids remapped into it."""
        dtype = self.spec.dtype
        # An all-empty multi-value column still needs a dictionary.
        distinct = list(self.ids) or [self.spec.default]
        if dtype is DataType.STRING:
            # np.unique is slow on object arrays; sort the few distinct
            # strings in Python instead.
            order = sorted(range(len(distinct)), key=distinct.__getitem__)
            values = np.array([distinct[i] for i in order], dtype=object)
            rank = np.empty(len(order), dtype=np.uint32)
            rank[order] = np.arange(len(order), dtype=np.uint32)
        else:
            # Also merges distinct inputs that one FLOAT value represents.
            values, rank = np.unique(
                np.asarray(distinct, dtype=dtype.numpy_dtype),
                return_inverse=True,
            )
            if values.dtype.kind == "f" and np.isnan(values[-1]):
                raise SegmentError(f"value {values[-1]!r} not in dictionary")
        ids = rank[np.array(self.buffer, dtype=np.uint32)]
        return Dictionary(dtype, values), ids.astype(np.uint32, copy=False)

    def decode(self, order: np.ndarray | None) -> list[Any]:
        """Each document's value (a fresh list for multi-value cells)."""
        distinct = list(self.ids)
        if self.ends is None:
            cells: list[Any] = [distinct[i] for i in self.buffer]
        else:
            flat = [distinct[i] for i in self.buffer]
            starts = [0, *self.ends[:-1]]
            cells = [flat[s:e] for s, e in zip(starts, self.ends)]
        if order is None:
            return cells
        return [cells[i] for i in order.tolist()]


@dataclass
class SegmentBuilder:
    """Accumulates records column by column and builds immutable
    segments from them."""

    segment_name: str
    table_name: str
    schema: Schema
    config: SegmentConfig = field(default_factory=SegmentConfig)

    def __post_init__(self) -> None:
        self._columns = [_ColumnAccumulator(spec) for spec in self.schema]
        self._num_docs = 0
        for name in (self.config.sorted_column,
                     self.config.partition_column):
            if name is not None and self.schema.field(name).multi_value:
                raise SegmentError(
                    f"sorted/partition column {name!r} cannot be "
                    "multi-value"
                )
        for name in (*self.config.inverted_columns,
                     *self.config.bloom_columns):
            self.schema.field(name)  # validates existence

    def add(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Normalize ``record`` and append it; returns the normalized row."""
        row = self.schema.normalize(record)
        self.append(row)
        return row

    def add_all(self, records: Iterable[Mapping[str, Any]]) -> None:
        for record in records:
            self.add(record)

    def append(self, row: Mapping[str, Any]) -> None:
        """Append a row already normalized against :attr:`schema`."""
        for acc in self._columns:
            acc.append(row[acc.name])
        self._num_docs += 1

    def add_column(self, spec: FieldSpec) -> None:
        """Schema evolution (§5.2): append ``spec`` to the schema and fill
        it with the column default for every row added so far."""
        self.schema = self.schema.with_column(spec)
        acc = _ColumnAccumulator(spec)
        default = spec.coerce(None)
        for __ in range(self._num_docs):
            acc.append(default)
        self._columns.append(acc)

    def __len__(self) -> int:
        return self._num_docs

    def records(self, order: np.ndarray | None = None) -> list[dict[str, Any]]:
        """The normalized rows added so far, in arrival order or in the
        document ``order`` given."""
        names = [acc.name for acc in self._columns]
        columns = [acc.decode(order) for acc in self._columns]
        return [dict(zip(names, values)) for values in zip(*columns)]

    # -- build ----------------------------------------------------------

    def build(self, config: SegmentConfig | None = None) -> ImmutableSegment:
        """Build a segment from the rows added so far, under ``config``
        (default: the builder's own). The builder stays usable."""
        config = self.config if config is None else config
        if not self._num_docs:
            raise SegmentError(
                f"segment {self.segment_name!r} has no records"
            )
        encoded = [acc.encode() for acc in self._columns]
        sorted_col = config.sorted_column
        order = None
        if sorted_col is not None:
            position = self.schema.column_names.index(sorted_col)
            # Stable, so equal keys keep arrival order, as sorting the
            # rows by the column's value would.
            order = np.argsort(encoded[position][1], kind="stable")

        columns: dict[str, Column] = {}
        for acc, (dictionary, ids) in zip(self._columns, encoded):
            columns[acc.name] = self._build_column(
                acc, dictionary, ids, order, config)

        metadata = SegmentMetadata(
            segment_name=self.segment_name,
            table_name=self.table_name,
            num_docs=self._num_docs,
            columns={name: column.metadata
                     for name, column in columns.items()},
            sorted_column=sorted_col,
            time_column=self.schema.time_column,
        )
        self._fill_time_metadata(metadata, columns)
        self._fill_partition_metadata(metadata, columns, config)

        star_tree = time_index = None
        # The star-tree and rollup builders read rows, in document order.
        records = (self.records(order)
                   if config.star_tree is not None or config.timestamp_index
                   else [])
        if config.star_tree is not None:
            from repro.startree.builder import build_star_tree

            star_tree = build_star_tree(self.schema, records,
                                        config.star_tree)
        if config.timestamp_index:
            from repro.segment.timeindex import build_time_index

            time_index = build_time_index(self.schema, records,
                                          config.timestamp_index)
            if time_index is not None:
                metadata.time_index_bytes = time_index.nbytes
        return ImmutableSegment(metadata, self.schema, columns, star_tree,
                                time_index)

    # -- internals ---------------------------------------------------------

    def _build_column(self, acc: _ColumnAccumulator, dictionary: Dictionary,
                      ids: np.ndarray, order: np.ndarray | None,
                      config: SegmentConfig) -> Column:
        spec, name = acc.spec, acc.name
        cardinality = dictionary.cardinality
        is_sorted_column = name == config.sorted_column
        forward: Any
        if spec.multi_value:
            offsets = np.concatenate(([0], np.array(acc.ends,
                                                    dtype=np.int64)))
            if order is not None:
                ids, offsets = _permute_cells(ids, offsets, order)
            forward = MultiValueForwardIndex(
                PackedIntArray.from_values(ids), offsets)
        else:
            if order is not None:
                ids = ids[order]
            if is_sorted_column:
                forward = SortedForwardIndex.from_sorted_dict_ids(
                    ids, cardinality)
            else:
                forward = SingleValueForwardIndex.from_dict_ids(ids)
        inverted = None
        if name in config.inverted_columns:
            inverted = InvertedIndex.build(forward, cardinality)
        meta = ColumnMetadata(
            name=name,
            dtype=spec.dtype,
            role=spec.role,
            cardinality=cardinality,
            min_value=_plain(dictionary.min_value),
            max_value=_plain(dictionary.max_value),
            multi_value=spec.multi_value,
            is_sorted=is_sorted_column,
            has_inverted_index=inverted is not None,
            total_docs=self._num_docs,
            total_entries=len(ids),
            bit_width=bits_required(cardinality - 1),
            dictionary_bytes=dictionary.nbytes,
            forward_bytes=forward.nbytes,
            inverted_bytes=inverted.nbytes if inverted else 0,
        )
        if name in config.bloom_columns:
            from repro.segment.bloom import BloomFilter

            bloom = BloomFilter.for_capacity(cardinality, fpp=0.01)
            bloom.add_many(dictionary.to_list())
            meta.bloom = bloom.to_payload()
        return Column(spec, dictionary, forward, meta, inverted)

    def _fill_time_metadata(self, metadata: SegmentMetadata,
                            columns: Mapping[str, Column]) -> None:
        time_col = self.schema.time_column
        if time_col is None:
            return
        dictionary = columns[time_col].dictionary
        metadata.min_time = int(dictionary.min_value)
        metadata.max_time = int(dictionary.max_value)

    def _fill_partition_metadata(self, metadata: SegmentMetadata,
                                 columns: Mapping[str, Column],
                                 config: SegmentConfig) -> None:
        column = config.partition_column
        if column is None:
            return
        from repro.kafka.partitioner import kafka_partition

        num = config.num_partitions
        partitions = {
            kafka_partition(value, num)
            for value in columns[column].dictionary.to_list()
        }
        if len(partitions) != 1:
            raise SegmentError(
                f"segment {self.segment_name!r} spans partitions "
                f"{sorted(partitions)}; a partitioned segment must hold "
                "exactly one partition"
            )
        metadata.partition_column = column
        metadata.num_partitions = num
        metadata.partition_id = partitions.pop()


def _permute_cells(flat: np.ndarray, offsets: np.ndarray,
                   order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reorder multi-value cells so new document ``j`` is old ``order[j]``."""
    lengths = np.diff(offsets)[order]
    new_offsets = np.concatenate(([0], np.cumsum(lengths)))
    gather = (np.repeat(offsets[:-1][order] - new_offsets[:-1], lengths)
              + np.arange(new_offsets[-1]))
    return flat[gather], new_offsets


def _plain(value: Any) -> Any:
    """Numpy scalars as plain Python, for JSON metadata I/O."""
    return value.item() if isinstance(value, np.generic) else value
