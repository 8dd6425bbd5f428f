"""Scalar-oracle parity over the segments a simulation run builds.

While :func:`scalar_parity` is active, every segment execution a server
makes also runs :func:`~repro.engine.scalar.execute_segment_scalar` on
the same segment, query and valid-docId mask, and compares the two
results reduced to rows. Served results stay the batch engine's, so a
run's observations and digest are unchanged; the check covers exactly
what the sim builds — consuming snapshots, upsert masks, and segments
reloaded after faults and rebalances.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

import repro.cluster.server as server_module
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.scalar import execute_segment_scalar
from repro.errors import PinotError


@dataclass
class ParityCheck:
    """Segment executions compared so far and the ones that differed."""

    checked: int = 0
    mismatches: list[str] = field(default_factory=list)


def _reduced_rows(query, result) -> list | dict:
    """One segment's result reduced to rows; group-by rows keyed by
    their group so the comparison ignores the order of tied groups."""
    rows = reduce_server_results(
        query, [combine_segment_results(query, [result])]).rows
    if not query.group_by:
        return rows
    width = len(query.group_by)
    return {tuple(row[:width]): tuple(row[width:]) for row in rows}


@contextmanager
def scalar_parity() -> Iterator[ParityCheck]:
    """Cross-check every server segment execution against the scalar
    oracle for the duration of the ``with`` block."""
    check = ParityCheck()
    serving = server_module.execute_segment

    def execute_checked(segment, query, valid_docs=None):
        result = serving(segment, query, valid_docs=valid_docs)
        check.checked += 1
        try:
            oracle = _reduced_rows(query, execute_segment_scalar(
                segment, query, valid_docs=valid_docs))
        except PinotError as exc:
            oracle = f"scalar raised {exc!r}"
        served = _reduced_rows(query, result)
        if served != oracle:
            check.mismatches.append(
                f"segment {segment.name}: query {query}: "
                f"served {served!r} != scalar {oracle!r}")
        return result

    server_module.execute_segment = execute_checked
    try:
        yield check
    finally:
        server_module.execute_segment = serving
