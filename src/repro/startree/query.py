"""Star-tree query execution (§4.3, Figs 9 & 10).

``supports_query`` decides whether a query can be answered from the
pre-aggregated records — the planner transparently uses the star-tree
when it can and falls back to raw execution otherwise, exactly as the
paper describes. A query qualifies when:

* every aggregation is COUNT/SUM/MIN/MAX/AVG over a pre-aggregated
  metric (or ``COUNT(*)``);
* every filtered / grouped column is a tree dimension;
* the filter is a conjunction of per-dimension EQ / IN / range
  constraints (the broker rewriter already fuses ``browser = 'firefox'
  OR browser = 'safari'`` into one IN, so Fig 10's OR query qualifies;
  OR across *different* dimensions and negations fall back to raw
  execution). Ranges work because each dimension's star-tree dictionary
  is sorted, so BETWEEN / comparison predicates resolve to contiguous
  id sets.

Execution walks the tree: for a constrained dimension it descends into
the matching value children (multiple navigations for IN); for a
grouped dimension it descends into every value child; for an
unconstrained, ungrouped dimension it takes the star child, which is
where the pre-aggregation pays off.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.engine.aggregates import function_for, preaggregated_state_column
from repro.engine.groupby import combine_codes
from repro.engine.results import (
    AggregationPartial,
    GroupByPartial,
    key_column,
)
from repro.errors import ExecutionError
from repro.pql.ast_nodes import (
    AggFunc,
    And,
    Between,
    CompareOp,
    Comparison,
    In,
    Predicate,
    Query,
)
from repro.startree.node import StarTree, StarTreeNode

_SUPPORTED_FUNCS = frozenset({AggFunc.COUNT, AggFunc.SUM, AggFunc.MIN,
                              AggFunc.MAX, AggFunc.AVG})


def supports_query(tree: StarTree, query: Query) -> bool:
    """Whether the star-tree can answer ``query`` exactly."""
    if not query.is_aggregation:
        return False
    for aggregation in query.aggregations:
        if aggregation.func not in _SUPPORTED_FUNCS:
            return False
        if aggregation.column != "*" and (
            aggregation.column not in tree.metric_columns
        ):
            return False
    if any(column not in tree.dimensions for column in query.group_by):
        return False
    if query.where is None:
        return True
    constraints = _extract_constraints(tree, query.where)
    return constraints is not None


def _id_range(tree: StarTree, dim_index: int, low: Any, high: Any,
              low_inclusive: bool, high_inclusive: bool) -> set[int]:
    """Ids of dictionary values inside a range (dictionaries are sorted,
    so ranges resolve to contiguous id runs)."""
    import bisect

    values = tree.dictionaries[dim_index]
    if low is None:
        lo = 0
    elif low_inclusive:
        lo = bisect.bisect_left(values, low)
    else:
        lo = bisect.bisect_right(values, low)
    if high is None:
        hi = len(values)
    elif high_inclusive:
        hi = bisect.bisect_right(values, high)
    else:
        hi = bisect.bisect_left(values, high)
    return set(range(lo, max(lo, hi)))


def _leaf_ids(tree: StarTree, leaf: Predicate) -> tuple[int, set[int]] | None:
    """(dim_index, allowed dictionary ids) for one leaf, or None."""
    if isinstance(leaf, Comparison):
        if leaf.column not in tree.dimensions:
            return None
        index = tree.dimension_index(leaf.column)
        op, value = leaf.op, leaf.value
        if op is CompareOp.EQ:
            dict_id = tree.id_of(index, value)
            return index, (set() if dict_id is None else {dict_id})
        if op is CompareOp.LT:
            return index, _id_range(tree, index, None, value, True, False)
        if op is CompareOp.LTE:
            return index, _id_range(tree, index, None, value, True, True)
        if op is CompareOp.GT:
            return index, _id_range(tree, index, value, None, False, True)
        if op is CompareOp.GTE:
            return index, _id_range(tree, index, value, None, True, True)
        return None  # NEQ falls back to raw execution
    if isinstance(leaf, In):
        if leaf.negated or leaf.column not in tree.dimensions:
            return None
        index = tree.dimension_index(leaf.column)
        ids = {tree.id_of(index, v) for v in leaf.values} - {None}
        return index, ids  # type: ignore[return-value]
    if isinstance(leaf, Between):
        if leaf.column not in tree.dimensions:
            return None
        index = tree.dimension_index(leaf.column)
        return index, _id_range(tree, index, leaf.low, leaf.high, True, True)
    return None


def _extract_constraints(
    tree: StarTree, predicate: Predicate
) -> dict[int, set[int]] | None:
    """Per-dimension allowed-id constraints, or None when unsupported.

    Returns ``{dim_index: allowed dictionary ids}``; unsupported shapes
    (OR across dimensions, negation) yield None — raw fallback.
    """
    leaves: list[Predicate]
    if isinstance(predicate, And):
        leaves = list(predicate.children)
    else:
        leaves = [predicate]
    constraints: dict[int, set[int]] = {}
    for leaf in leaves:
        resolved = _leaf_ids(tree, leaf)
        if resolved is None:
            return None
        index, ids = resolved
        if index in constraints:
            constraints[index] &= ids  # AND of constraints on one dim
        else:
            constraints[index] = ids
    return constraints


def execute_on_star_tree(
    tree: StarTree, query: Query
) -> tuple[AggregationPartial | GroupByPartial, int]:
    """Execute a supported query; returns (partial, records_scanned)."""
    id_constraints = (
        _extract_constraints(tree, query.where)
        if query.where is not None else {}
    )
    if id_constraints is None:
        raise ExecutionError("query not supported by star-tree")
    for ids in id_constraints.values():
        if not ids:
            # A constrained value absent from the segment: no matches.
            empty = (
                GroupByPartial() if query.group_by
                else AggregationPartial.empty(query.aggregations)
            )
            return empty, 0

    group_dims = {tree.dimension_index(c) for c in query.group_by}

    ranges: list[tuple[int, int]] = []
    _traverse(tree.root, tree, id_constraints, group_dims, ranges)
    rows = _rows_from_ranges(ranges)

    # Post-filter: leaves reached before all constrained dimensions were
    # consumed still contain non-matching records.
    for dim_index, ids in id_constraints.items():
        if not len(rows):
            break
        column = tree.dim_ids[rows, dim_index]
        rows = rows[np.isin(column, list(ids))]

    scanned = int(len(rows))
    if query.group_by:
        return _group_by(tree, query, rows), scanned
    return _aggregate(tree, query, rows), scanned


def _traverse(node: StarTreeNode, tree: StarTree,
              constraints: dict[int, set[int]], group_dims: set[int],
              ranges: list[tuple[int, int]]) -> None:
    if node.is_leaf:
        ranges.append((node.start, node.end))
        return
    depth = node.depth
    if depth in constraints:
        for value_id in constraints[depth]:
            child = node.children.get(value_id)
            if child is not None:
                _traverse(child, tree, constraints, group_dims, ranges)
        return
    if depth in group_dims:
        for child in node.children.values():
            _traverse(child, tree, constraints, group_dims, ranges)
        return
    assert node.star_child is not None
    _traverse(node.star_child, tree, constraints, group_dims, ranges)


def _rows_from_ranges(ranges: list[tuple[int, int]]) -> np.ndarray:
    parts = [np.arange(start, end, dtype=np.int64) for start, end in ranges]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def _agg_state(tree: StarTree, func: AggFunc, column: str,
               rows: np.ndarray) -> Any:
    counts = tree.counts[rows]
    if func is AggFunc.COUNT:
        return int(counts.sum())
    metric = tree.metrics[column]
    if func is AggFunc.SUM:
        return float(metric.sums[rows].sum()) if len(rows) else 0.0
    if func is AggFunc.MIN:
        return float(metric.mins[rows].min()) if len(rows) else float("inf")
    if func is AggFunc.MAX:
        return float(metric.maxs[rows].max()) if len(rows) else float("-inf")
    if func is AggFunc.AVG:
        if not len(rows):
            return (0.0, 0)
        return (float(metric.sums[rows].sum()), int(counts.sum()))
    raise ExecutionError(f"star-tree cannot serve {func}")


def _aggregate(tree: StarTree, query: Query,
               rows: np.ndarray) -> AggregationPartial:
    states = [
        _agg_state(tree, a.func, a.column, rows) for a in query.aggregations
    ]
    return AggregationPartial(states)


def _group_by(tree: StarTree, query: Query,
              rows: np.ndarray) -> GroupByPartial:
    if not len(rows):
        return GroupByPartial()
    dims = [tree.dimension_index(c) for c in query.group_by]
    # Selected rows never carry STAR_ID in grouped dimensions (see
    # traversal invariants), so dictionary ids are the group key ids.
    codes, unique_ids = combine_codes(
        [len(tree.dictionaries[dim]) for dim in dims],
        [tree.dim_ids[rows, dim] for dim in dims],
    )
    keys = [
        key_column([tree.dictionaries[dim][i] for i in ids.tolist()])
        for dim, ids in zip(dims, unique_ids)
    ]
    num_groups = len(keys[0])
    counts = tree.counts[rows]
    states = []
    for aggregation in query.aggregations:
        if aggregation.func is AggFunc.COUNT:
            column = counts
        else:
            metric = tree.metrics[aggregation.column]
            column = preaggregated_state_column(
                aggregation.func, counts, metric.sums[rows],
                metric.mins[rows], metric.maxs[rows])
        states.append(function_for(aggregation).merge_grouped(
            column, codes, num_groups))
    return GroupByPartial(keys, states)
