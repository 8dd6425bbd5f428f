"""Combining and reducing partial results (§3.3.3 steps 6-8).

Two levels of merging mirror the production system:

* :func:`combine_segment_results` — a server combines the partial
  results of all its segments into one :class:`ServerResult`;
* :func:`reduce_server_results` — the broker merges per-server results,
  finalizes aggregation states, applies ordering / offset / limit, and
  produces the :class:`BrokerResponse`. Server errors or timeouts mark
  the response partial instead of failing it (step 7).

Each level merges its columnar group-by partials in one pass
(:func:`_merge_group_by`), and the broker finalizes state columns
whole, converting only the returned TOP-n window to Python values.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engine.aggregates import function_for
from repro.engine.groupby import combine_codes
from repro.engine.results import (
    AggregationPartial,
    BrokerResponse,
    ExecutionStats,
    GroupByPartial,
    ResultTable,
    SegmentResult,
    ServerResult,
    SelectionPartial,
    group_order,
    group_sort_key,
    row_sort_key,
)
from repro.pql.ast_nodes import Query


def combine_segment_results(query: Query, results: list[SegmentResult],
                            server: str = "local") -> ServerResult:
    """Merge per-segment partial results on one server."""
    combined = ServerResult(server=server)
    stats = ExecutionStats()
    group_partials: list[GroupByPartial] = []
    for result in results:
        stats.merge(result.stats)
        if result.aggregation is not None:
            if combined.aggregation is None:
                combined.aggregation = AggregationPartial.empty(
                    query.aggregations
                )
            combined.aggregation.merge(result.aggregation,
                                       query.aggregations)
        if result.group_by is not None:
            group_partials.append(result.group_by)
        if result.selection is not None:
            if combined.selection is None:
                combined.selection = SelectionPartial(
                    result.selection.columns
                )
            combined.selection.rows.extend(result.selection.rows)
    if group_partials:
        combined.group_by = _merge_group_by(query, group_partials)
    _trim_selection(query, combined.selection)
    combined.stats = stats
    return combined


def _trim_selection(query: Query, selection: SelectionPartial | None) -> None:
    if selection is None:
        return
    needed = query.limit + query.offset
    if not query.order_by:
        del selection.rows[needed:]
        return
    key = row_sort_key(query, selection.columns)
    if key is not None:
        selection.rows.sort(key=key)
    del selection.rows[needed:]


def reduce_server_results(query: Query, server_results: list[ServerResult],
                          time_used_ms: float = 0.0,
                          recovered_exceptions: list[str] | None = None,
                          ) -> BrokerResponse:
    """Broker-side reduce: merge per-server results into the response.

    ``recovered_exceptions`` are errors the broker already repaired by
    retrying on another replica; they are surfaced for observability but
    do not mark the response partial — only errors in
    ``server_results`` (segments no replica could serve) do.
    """
    stats = ExecutionStats()
    exceptions: list[str] = []
    aggregation: AggregationPartial | None = None
    group_partials: list[GroupByPartial] = []
    selection: SelectionPartial | None = None

    for result in server_results:
        if result.error is not None:
            exceptions.append(f"{result.server}: {result.error}")
            continue
        stats.merge(result.stats)
        if result.aggregation is not None:
            if aggregation is None:
                aggregation = AggregationPartial.empty(query.aggregations)
            aggregation.merge(result.aggregation, query.aggregations)
        if result.group_by is not None:
            group_partials.append(result.group_by)
        if result.selection is not None:
            if selection is None:
                selection = SelectionPartial(result.selection.columns)
            selection.rows.extend(result.selection.rows)

    if query.group_by:
        table = _finalize_group_by(
            query, _merge_group_by(query, group_partials))
    elif query.is_aggregation:
        table = _finalize_aggregation(
            query, aggregation or AggregationPartial.empty(query.aggregations)
        )
    else:
        table = _finalize_selection(query, selection)

    return BrokerResponse(
        table=table,
        stats=stats,
        is_partial=bool(exceptions),
        exceptions=exceptions,
        time_used_ms=time_used_ms,
        recovered_exceptions=list(recovered_exceptions or ()),
    )


def _finalize_aggregation(query: Query,
                          partial: AggregationPartial) -> ResultTable:
    columns = tuple(str(a) for a in query.aggregations)
    row = tuple(
        function_for(a).finalize(state)
        for a, state in zip(query.aggregations, partial.states)
    )
    return ResultTable(columns, [row])


def _merge_group_by(query: Query,
                    partials: list[GroupByPartial]) -> GroupByPartial:
    """Merge group-by partials in one pass.

    Every key and state column is concatenated in input order, the
    groups are numbered once, and each aggregation folds its state
    column per group in row order — so a float SUM accumulates in the
    same order as merging the partials one after another would.
    Partials without groups are dropped before any numpy work.
    """
    partials = [p for p in partials if p.num_groups]
    if len(partials) <= 1:
        return partials[0] if partials else GroupByPartial()
    keys, codes = _number_groups([
        np.concatenate([p.keys[i] for p in partials])
        for i in range(len(partials[0].keys))
    ])
    num_groups = len(keys[0])
    states = [
        function_for(a).merge_grouped(
            _concat([p.states[j] for p in partials]), codes, num_groups)
        for j, a in enumerate(query.aggregations)
    ]
    return GroupByPartial(keys, states)


def _number_groups(key_columns: list[np.ndarray]
                   ) -> tuple[list[np.ndarray], np.ndarray]:
    """(one key column per group-by expression holding each distinct
    key once, the group code of every input row)."""
    if len(key_columns) == 1:
        unique, codes = np.unique(key_columns[0], return_inverse=True)
        return [unique], codes
    uniques, id_columns = [], []
    for column in key_columns:
        unique, ids = np.unique(column, return_inverse=True)
        uniques.append(unique)
        id_columns.append(ids)
    codes, unique_ids = combine_codes([len(u) for u in uniques], id_columns)
    return [u[ids] for u, ids in zip(uniques, unique_ids)], codes


def _concat(columns: list[Any]) -> Any:
    """Concatenate state columns of one aggregation."""
    if isinstance(columns[0], np.ndarray):
        return np.concatenate(columns)
    return [state for column in columns for state in column]


def _take(column: Any, rows: np.ndarray) -> Any:
    if isinstance(column, np.ndarray):
        return column[rows]
    return [column[i] for i in rows.tolist()]


def _as_list(column: Any) -> list[Any]:
    return column.tolist() if isinstance(column, np.ndarray) else column


def _finalize_group_by(query: Query, partial: GroupByPartial) -> ResultTable:
    columns = tuple(str(g) for g in query.group_by) + tuple(
        str(a) for a in query.aggregations
    )
    if not partial.num_groups:
        return ResultTable(columns, [])
    aggregations = query.aggregations
    values = [function_for(a).finalize_grouped(column)
              for a, column in zip(aggregations, partial.states)]
    rows = np.arange(partial.num_groups)
    # HAVING: iceberg filtering on the finalized aggregates (§4.3).
    for condition in query.having:
        column = values[aggregations.index(condition.aggregation)]
        keep = [condition.matches(v) for v in _as_list(_take(column, rows))]
        rows = rows[np.array(keep, dtype=bool)]
    rows = _top_candidates(query, partial.keys, values, rows)
    keys = zip(*(column[rows].tolist() for column in partial.keys))
    finalized = zip(*(_as_list(_take(column, rows)) for column in values))
    entries = sorted(zip(keys, finalized), key=group_sort_key(query))
    window = entries[query.offset:query.offset + query.limit]
    return ResultTable(columns, [key + vals for key, vals in window])


def _top_candidates(query: Query, keys: list[np.ndarray],
                    values: list[Any], rows: np.ndarray) -> np.ndarray:
    """The ``rows`` that can reach the TOP-n window: those whose primary
    sort value is at or beyond the (offset + limit)-th, ties at the cut
    kept. All rows stay candidates when that column is not finite
    numeric; :func:`group_sort_key` then orders only the candidates."""
    needed = query.offset + query.limit
    if needed >= len(rows):
        return rows
    kind, index, descending = group_order(query)[0]
    column = values[index] if kind == "agg" else keys[index]
    if not isinstance(column, np.ndarray) or column.dtype.kind not in "iuf":
        return rows
    primary = column[rows]
    if not np.isfinite(primary).all():
        return rows
    if needed == 0:
        return rows[:0]
    if descending:
        cut = np.partition(primary, len(primary) - needed)[-needed]
        return rows[primary >= cut]
    cut = np.partition(primary, needed - 1)[needed - 1]
    return rows[primary <= cut]


def _finalize_selection(query: Query,
                        selection: SelectionPartial | None) -> ResultTable:
    if selection is None:
        columns = tuple(i.name for i in query.projections) or ("*",)
        return ResultTable(columns, [])
    rows = selection.rows
    if query.order_by:
        key = row_sort_key(query, selection.columns)
        if key is not None:
            rows = sorted(rows, key=key)
    rows = rows[query.offset:query.offset + query.limit]
    return ResultTable(selection.columns, list(rows))
