"""Aggregation functions with mergeable partial states.

Query execution in Pinot is distributed: every segment produces a
partial aggregation state, servers combine their segments' states, and
the broker merges the per-server states into the final value (§3.3.3
steps 6-7). Each function here therefore defines:

* ``init_empty`` — identity state,
* ``aggregate(values)`` — state from a numpy array of column values,
* ``merge(a, b)`` — combine two states,
* ``finalize(state)`` — final result value.

Group-by partials are columnar (:class:`~repro.engine.results.
GroupByPartial`): one *state column* per aggregation, row ``i`` being
group ``i``'s state. COUNT's column is int64; SUM, MIN and MAX are
float64; AVG and MINMAXRANGE are float64 arrays of shape ``(n, 2)``, a
pair of columns (AVG's count is exact below 2**53); the object-state
functions keep a plain list of their scalar states. Every
function therefore also defines grouped counterparts:

* ``aggregate_grouped(values, codes, num_groups)`` — state column from
  raw values,
* ``state_column(states)`` — state column from a list of scalar states,
* ``merge_grouped(column, codes, num_groups)`` — fold the rows of a
  state column that share a group code into one row per group, in row
  order,
* ``finalize_grouped(column)`` — finalized values, one per group.

``DISTINCTCOUNT`` and the percentiles keep exact intermediate sets /
samples; production Pinot uses sketches (HLL, quantile digests) for
these, which trade accuracy for bounded size — exactness is the better
default for a reproduction because the tests can assert equality.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.errors import ExecutionError
from repro.pql.ast_nodes import AggFunc, Aggregation


def _group_slices(values: np.ndarray, codes: np.ndarray,
                  num_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort ``values`` by group code (stably, preserving document order
    within each group) and return ``(sorted_values, bounds)`` where
    group ``g`` occupies ``sorted_values[bounds[g]:bounds[g + 1]]``.

    One argsort replaces a per-row Python dispatch loop for every
    set/sample-state aggregation (DISTINCTCOUNT, HLL, percentiles).
    """
    order = np.argsort(codes, kind="stable")
    bounds = np.searchsorted(codes[order], np.arange(num_groups + 1))
    return values[order], bounds


class AggregateFunction:
    """Interface for one aggregation function."""

    #: Whether the function needs the raw column values (False for COUNT).
    needs_values = True

    def init_empty(self) -> Any:
        raise NotImplementedError

    def aggregate(self, values: np.ndarray) -> Any:
        raise NotImplementedError

    def aggregate_grouped(self, values: np.ndarray, codes: np.ndarray,
                          num_groups: int) -> list[Any]:
        """Vectorized per-group aggregation; ``codes`` maps each value to
        its group index in ``[0, num_groups)``."""
        raise NotImplementedError

    def merge(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    def finalize(self, state: Any) -> Any:
        raise NotImplementedError

    # Object states: the column is a list, and the grouped operations
    # loop over the scalar ``merge``/``finalize`` so their rules stay
    # defined once.

    def state_column(self, states: list[Any]) -> Any:
        return list(states)

    def merge_grouped(self, column: Any, codes: np.ndarray,
                      num_groups: int) -> Any:
        merged: list[Any] = [None] * num_groups
        for code, state in zip(codes.tolist(), column):
            mine = merged[code]
            merged[code] = state if mine is None else self.merge(mine, state)
        return merged

    def finalize_grouped(self, column: Any) -> Any:
        return [self.finalize(state) for state in column]


#: How one position of a numeric state merges: (ufunc, identity).
_Part = tuple[np.ufunc, float]
_ADD: _Part = (np.add, 0)
_MIN: _Part = (np.minimum, math.inf)
_MAX: _Part = (np.maximum, -math.inf)


def _reduce_grouped(part: _Part, dtype: type, column: np.ndarray,
                    codes: np.ndarray, num_groups: int) -> np.ndarray:
    """Fold ``column`` per group code with the part's ufunc. Rows are
    applied in order, so a float SUM accumulates exactly as a chain of
    scalar ``a + b`` merges would."""
    ufunc, identity = part
    if ufunc is np.add and dtype is np.float64:
        return np.bincount(codes, weights=column, minlength=num_groups)
    out = np.full(num_groups, identity, dtype=dtype)
    ufunc.at(out, codes, column)
    return out


class _NumericFunction(AggregateFunction):
    """A function whose state is one number, or a fixed-size tuple of
    them kept as the columns of a 2-D array."""

    dtype: type = np.float64
    #: One part for a scalar state; one per position for tuple states.
    parts: tuple[_Part, ...] = ()

    def row_states(self, values: np.ndarray) -> np.ndarray:
        """The state column with one row per raw value."""
        return values.astype(np.float64)

    def aggregate_grouped(self, values, codes, num_groups):
        return self.merge_grouped(self.row_states(values), codes,
                                  num_groups)

    def state_column(self, states):
        return np.array(states, dtype=self.dtype)

    def merge_grouped(self, column, codes, num_groups):
        if column.ndim == 1:
            return _reduce_grouped(self.parts[0], self.dtype, column, codes,
                                   num_groups)
        return np.column_stack([
            _reduce_grouped(part, self.dtype, column[:, i], codes,
                            num_groups)
            for i, part in enumerate(self.parts)
        ])

    def finalize_grouped(self, column):
        return column


class CountFunction(_NumericFunction):
    needs_values = False
    dtype = np.int64
    parts = (_ADD,)

    def init_empty(self) -> int:
        return 0

    def aggregate(self, values: np.ndarray) -> int:
        return int(len(values))

    def aggregate_grouped(self, values, codes, num_groups):
        return np.bincount(codes, minlength=num_groups).astype(
            np.int64, copy=False)

    def merge(self, a: int, b: int) -> int:
        return a + b

    def finalize(self, state: int) -> int:
        return state


class SumFunction(_NumericFunction):
    parts = (_ADD,)

    def init_empty(self) -> float:
        return 0.0

    def aggregate(self, values: np.ndarray) -> float:
        return float(values.sum()) if len(values) else 0.0

    def merge(self, a: float, b: float) -> float:
        return a + b

    def finalize(self, state: float) -> float:
        return state


class MinFunction(_NumericFunction):
    parts = (_MIN,)

    def init_empty(self) -> float:
        return math.inf

    def aggregate(self, values: np.ndarray) -> float:
        return float(values.min()) if len(values) else math.inf

    def merge(self, a: float, b: float) -> float:
        return min(a, b)

    def finalize(self, state: float) -> float:
        return state


class MaxFunction(_NumericFunction):
    parts = (_MAX,)

    def init_empty(self) -> float:
        return -math.inf

    def aggregate(self, values: np.ndarray) -> float:
        return float(values.max()) if len(values) else -math.inf

    def merge(self, a: float, b: float) -> float:
        return max(a, b)

    def finalize(self, state: float) -> float:
        return state


class AvgFunction(_NumericFunction):
    """State is (sum, count); merged exactly, finalized to sum/count."""

    parts = (_ADD, _ADD)

    def init_empty(self) -> tuple[float, int]:
        return (0.0, 0)

    def aggregate(self, values: np.ndarray) -> tuple[float, int]:
        if not len(values):
            return (0.0, 0)
        return (float(values.sum()), int(len(values)))

    def row_states(self, values):
        return np.column_stack((values.astype(np.float64),
                                np.ones(len(values))))

    def merge(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def finalize(self, state) -> float:
        total, count = state
        return total / count if count else 0.0

    def finalize_grouped(self, column):
        totals, counts = column[:, 0], column[:, 1]
        out = np.zeros(len(totals))
        np.divide(totals, counts, out=out, where=counts != 0)
        return out


class MinMaxRangeFunction(_NumericFunction):
    parts = (_MIN, _MAX)

    def init_empty(self):
        return (math.inf, -math.inf)

    def aggregate(self, values: np.ndarray):
        if not len(values):
            return (math.inf, -math.inf)
        return (float(values.min()), float(values.max()))

    def row_states(self, values):
        v = values.astype(np.float64)
        return np.column_stack((v, v))

    def merge(self, a, b):
        return (min(a[0], b[0]), max(a[1], b[1]))

    def finalize(self, state) -> float:
        low, high = state
        if math.isinf(low):
            return 0.0
        return high - low

    def finalize_grouped(self, column):
        lows, highs = column[:, 0], column[:, 1]
        return np.where(np.isinf(lows), 0.0, highs - lows)


class DistinctCountFunction(AggregateFunction):
    """Exact distinct count; the partial state is the value set."""

    def init_empty(self) -> frozenset:
        return frozenset()

    def aggregate(self, values: np.ndarray) -> frozenset:
        return frozenset(values.tolist())

    def aggregate_grouped(self, values, codes, num_groups):
        sorted_values, bounds = _group_slices(values, codes, num_groups)
        return [
            frozenset(sorted_values[bounds[g]:bounds[g + 1]].tolist())
            for g in range(num_groups)
        ]

    def merge(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def finalize(self, state: frozenset) -> int:
        return len(state)


class DistinctCountHllFunction(AggregateFunction):
    """Approximate distinct count with a mergeable HyperLogLog state.

    The sketch keeps the partial state at a fixed 4 KiB regardless of
    cardinality (~1.6% standard error at precision 12) — the bounded
    alternative to the exact set-based DISTINCTCOUNT, matching the
    sketch aggregations production Pinot later shipped.
    """

    def __init__(self, precision: int = 12):
        self.precision = precision

    def _new(self):
        from repro.engine.sketches import HyperLogLog

        return HyperLogLog(self.precision)

    def init_empty(self):
        return self._new()

    def aggregate(self, values: np.ndarray):
        sketch = self._new()
        sketch.add_many(values)
        return sketch

    def aggregate_grouped(self, values, codes, num_groups):
        # Hash every value once with the vectorized bulk path, then
        # slice the *hashes* per group — register-identical to hashing
        # group by group, but one numpy pass instead of a Python loop.
        from repro.engine.sketches import hash64_array

        hashed = hash64_array(np.asarray(values))
        sorted_hashes, bounds = _group_slices(hashed, codes, num_groups)
        sketches = [self._new() for _ in range(num_groups)]
        for g, sketch in enumerate(sketches):
            sketch.add_hashes(sorted_hashes[bounds[g]:bounds[g + 1]])
        return sketches

    def merge(self, a, b):
        return a.merge(b)

    def finalize(self, state) -> int:
        return state.cardinality()


class PercentileFunction(AggregateFunction):
    """Exact percentile; the partial state is the raw value sample.

    Production Pinot offers PERCENTILEEST / T-digest variants with
    bounded state; an exact implementation keeps the reproduction's
    results deterministic and assertable.
    """

    def __init__(self, quantile: float):
        self.quantile = quantile

    def init_empty(self) -> tuple:
        return ()

    def aggregate(self, values: np.ndarray) -> tuple:
        return tuple(values.tolist())

    def aggregate_grouped(self, values, codes, num_groups):
        sorted_values, bounds = _group_slices(values, codes, num_groups)
        return [
            tuple(sorted_values[bounds[g]:bounds[g + 1]].tolist())
            for g in range(num_groups)
        ]

    def merge(self, a: tuple, b: tuple) -> tuple:
        return a + b

    def finalize(self, state: tuple) -> float | None:
        if not state:
            # Null marker: a percentile of no rows is not 0.0 (a real
            # p99 can be 0.0) — match how empty groups report elsewhere.
            return None
        return float(np.percentile(np.asarray(state), self.quantile))


class PercentileEstFunction(AggregateFunction):
    """Approximate percentile over a mergeable quantile sketch.

    The partial state is a :class:`~repro.engine.approx.QuantileSketch`
    — bounded size regardless of row count, deterministic, and exact
    below ``k`` values. Both engines build states by feeding values in
    document order, so partial states are identical across the
    vectorized and scalar paths.
    """

    def __init__(self, quantile: float):
        self.quantile = quantile

    def _new(self):
        from repro.engine.approx import QuantileSketch

        return QuantileSketch()

    def init_empty(self):
        return self._new()

    def aggregate(self, values: np.ndarray):
        sketch = self._new()
        sketch.add_many(values)
        return sketch

    def aggregate_grouped(self, values, codes, num_groups):
        sorted_values, bounds = _group_slices(values, codes, num_groups)
        sketches = [self._new() for _ in range(num_groups)]
        for g, sketch in enumerate(sketches):
            sketch.add_many(sorted_values[bounds[g]:bounds[g + 1]])
        return sketches

    def merge(self, a, b):
        return a.merge(b)

    def finalize(self, state) -> float | None:
        return state.quantile(self.quantile)


_FUNCTIONS: dict[AggFunc, AggregateFunction] = {
    AggFunc.COUNT: CountFunction(),
    AggFunc.SUM: SumFunction(),
    AggFunc.MIN: MinFunction(),
    AggFunc.MAX: MaxFunction(),
    AggFunc.AVG: AvgFunction(),
    AggFunc.MINMAXRANGE: MinMaxRangeFunction(),
    AggFunc.DISTINCTCOUNT: DistinctCountFunction(),
    AggFunc.DISTINCTCOUNTHLL: DistinctCountHllFunction(),
    AggFunc.PERCENTILE50: PercentileFunction(50.0),
    AggFunc.PERCENTILE90: PercentileFunction(90.0),
    AggFunc.PERCENTILE95: PercentileFunction(95.0),
    AggFunc.PERCENTILE99: PercentileFunction(99.0),
    AggFunc.PERCENTILEEST50: PercentileEstFunction(50.0),
    AggFunc.PERCENTILEEST90: PercentileEstFunction(90.0),
    AggFunc.PERCENTILEEST95: PercentileEstFunction(95.0),
    AggFunc.PERCENTILEEST99: PercentileEstFunction(99.0),
}


def preaggregated_state_column(func: AggFunc, counts: np.ndarray,
                               sums: np.ndarray, mins: np.ndarray,
                               maxs: np.ndarray) -> Any:
    """The state column of a metric aggregation over pre-aggregated
    records (star-tree records, timestamp-index buckets). Each record
    already is a partial state over its rows, so grouping records is
    ``merge_grouped`` over this column; COUNT's column is ``counts``."""
    if func is AggFunc.SUM:
        return sums
    if func is AggFunc.MIN:
        return mins
    if func is AggFunc.MAX:
        return maxs
    if func is AggFunc.AVG:
        return np.column_stack((sums, counts)).astype(np.float64)
    if func is AggFunc.MINMAXRANGE:
        return np.column_stack((mins, maxs)).astype(np.float64)
    raise ExecutionError(f"{func} is not answerable from pre-aggregated "
                         "records")


#: Functions a star-tree's pre-aggregated metrics can serve directly.
#: COUNT re-aggregates as SUM of pre-aggregated counts (§4.3).
STAR_TREE_FUNCS = frozenset({AggFunc.COUNT, AggFunc.SUM, AggFunc.MIN,
                             AggFunc.MAX, AggFunc.AVG})


def function_for(aggregation: Aggregation) -> AggregateFunction:
    try:
        return _FUNCTIONS[aggregation.func]
    except KeyError:
        raise ExecutionError(
            f"unsupported aggregation {aggregation.func}"
        ) from None
