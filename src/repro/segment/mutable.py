"""Mutable (consuming) realtime segments (§3.3.1, §3.3.6).

While a replica is in the CONSUMING state it appends Kafka events to a
mutable in-memory segment. Queries must see those rows with seconds-level
freshness, so the mutable segment can produce a queryable snapshot at
any time; when the end criteria is reached the segment is *sealed* into
a regular immutable segment, flushed, and committed.

Rows are encoded once, on arrival, into a columnar
:class:`~repro.segment.builder.SegmentBuilder`; a snapshot or the seal
builds from those per-column accumulators without revisiting rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Iterable, Mapping

from repro.common.schema import Schema
from repro.common.types import FieldSpec
from repro.errors import SegmentError
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.segment.segment import ImmutableSegment


class MutableSegment:
    """An append-only in-memory segment for realtime consumption."""

    def __init__(self, segment_name: str, table_name: str, schema: Schema,
                 config: SegmentConfig | None = None):
        self.segment_name = segment_name
        self.table_name = table_name
        self.config = config or SegmentConfig()
        # Snapshots keep arrival order, so upsert valid-docId bitmaps
        # stay aligned, and skip the structures only the seal builds.
        self._snapshot_config = replace(
            self.config, sorted_column=None, bloom_columns=(),
            star_tree=None, timestamp_index=(),
        )
        self._builder = SegmentBuilder(segment_name, table_name, schema,
                                       self.config)
        self._sealed = False
        # Snapshot cache: rebuilding an immutable view is only needed
        # when new rows have arrived since the last snapshot.
        self._snapshot: ImmutableSegment | None = None
        self._snapshot_rows = -1
        self.start_offset: int | None = None
        self.end_offset: int | None = None

    @property
    def schema(self) -> Schema:
        return self._builder.schema

    # -- ingestion -------------------------------------------------------

    def index(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Append one event (already decoded from the stream); returns
        the row as normalized against :attr:`schema`."""
        self._check_open()
        return self._builder.add(record)

    def append(self, row: Mapping[str, Any]) -> None:
        """Append a row the caller already normalized against
        :attr:`schema`."""
        self._check_open()
        self._builder.append(row)

    def _check_open(self) -> None:
        if self._sealed:
            raise SegmentError(
                f"segment {self.segment_name!r} is sealed; cannot index"
            )

    def add_column(self, spec: FieldSpec) -> None:
        """Schema evolution (§5.2): add a default-filled column."""
        self._builder.add_column(spec)
        self.invalidate_snapshot()

    @property
    def num_docs(self) -> int:
        return len(self._builder)

    @property
    def is_sealed(self) -> bool:
        return self._sealed

    def records(self) -> list[dict[str, Any]]:
        """The normalized rows consumed so far, decoded from the columns."""
        return self._builder.records()

    def estimated_size_bytes(self) -> int:
        """Byte accounting for an in-flight consuming segment.

        No built indexes exist yet, so the estimate is row-shaped:
        rows x columns x 8 bytes, the same floor the sealed form's
        metadata-derived size bottoms out at.
        """
        return max(1024, self.num_docs * len(self.schema.column_names) * 8)

    # -- querying --------------------------------------------------------

    def snapshot(self) -> ImmutableSegment | None:
        """A queryable immutable view of the rows consumed so far.

        Returns None while empty. The snapshot is cached and only
        rebuilt when new rows have arrived; a rebuild sorts each
        column's distinct values and remaps the buffered ids, so it
        never re-reads rows.
        """
        if not self.num_docs:
            return None
        if self._snapshot is None or self._snapshot_rows != self.num_docs:
            self._snapshot = self._builder.build(self._snapshot_config)
            self._snapshot_rows = self.num_docs
        return self._snapshot

    def invalidate_snapshot(self) -> None:
        """Force the next :meth:`snapshot` to rebuild (e.g. after a
        schema change added a column)."""
        self._snapshot = None
        self._snapshot_rows = -1

    # -- sealing -----------------------------------------------------------

    def seal(self) -> ImmutableSegment:
        """Freeze into a fully built immutable segment (flush, §3.3.6).

        Sealing applies the full build config — physical sort order,
        inverted indexes, star-tree — which consuming segments skip;
        this mirrors how offline/completed segments are better optimized
        than consuming ones.
        """
        if not self.num_docs:
            raise SegmentError(
                f"cannot seal empty segment {self.segment_name!r}"
            )
        self._sealed = True
        return self._builder.build()

    def discard_and_replace(self, records: Iterable[Mapping[str, Any]]) -> None:
        """Replace local rows with an authoritative copy (DISCARD, §3.3.6)."""
        if self._sealed:
            raise SegmentError("cannot replace rows of a sealed segment")
        builder = SegmentBuilder(self.segment_name, self.table_name,
                                 self.schema, self.config)
        builder.add_all(records)
        self._builder = builder
        self.invalidate_snapshot()
