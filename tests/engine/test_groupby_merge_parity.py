"""Property-based parity for columnar group-by merge and reduce.

Hypothesis generates random records, splits them over random segments
and assigns the segments to random servers. Every segment is executed
by the vectorized engine, the scalar engine, or a random mix of the
two; each server combines its segments' partials, every server result
crosses the codec boundary as JSON text, and the broker reduces them.
The rows must equal the independent oracle's
(:func:`repro.sim.oracle.expected_rows`, compared with ``rows_match``)
and be identical across engine choices.

The comparison with ``==`` alone would hide a type regression
(``5 == 5.0`` and ``np.int64(5) == 5``), so every value's Python type
is asserted too: keys are plain Python scalars, COUNT and DISTINCTCOUNT
are ``int``, SUM and the other numeric aggregates are ``float``.

Metric values are integers, so float SUM/AVG values are exact and
ties at the TOP-n cut are decided by the group key in every path.
"""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.scalar import execute_segment_scalar
from repro.net.codec import decode, encode, json_roundtrip
from repro.pql.ast_nodes import AggFunc, TimeBucket, group_by_column
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder
from repro.sim.oracle import approx_check, diff_summary, expected_rows, rows_match

STRINGS = ["ant", "bee", "cat", "dog"]
FLOATS = [-1.5, -0.0, 0.0, 0.5, 2.25]
TAGS = ["p", "q", "r", "s"]

SCHEMA = Schema("t", [
    dimension("i", DataType.INT),
    dimension("s"),
    dimension("f", DataType.DOUBLE),
    dimension("tags", multi_value=True),
    metric("m", DataType.LONG),
    time_column("day", DataType.INT),
])

#: Python type of each group column's keys.
KEY_TYPES = {"i": int, "s": str, "f": float, "tags": str, "day": int}

#: Python type of each aggregation's finalized value (percentiles may
#: also be None).
VALUE_TYPES = {
    AggFunc.COUNT: int, AggFunc.DISTINCTCOUNT: int,
    AggFunc.DISTINCTCOUNTHLL: int, AggFunc.SUM: float, AggFunc.MIN: float,
    AggFunc.MAX: float, AggFunc.AVG: float, AggFunc.MINMAXRANGE: float,
}

#: Select lists covering every aggregation function. The first entry
#: is the default TOP-n order, so it is always an exact aggregate.
SELECT_LISTS = [
    ["count(*)", "sum(m)", "min(m)", "max(m)"],
    ["sum(m)", "avg(m)", "minmaxrange(m)"],
    ["max(m)", "distinctcount(s)", "percentile50(m)", "percentile90(m)"],
    ["count(*)", "percentile95(m)", "percentile99(m)"],
    ["min(m)", "distinctcount(i)", "percentileest50(m)",
     "percentileest90(m)"],
    ["sum(m)", "percentileest95(m)", "percentileest99(m)"],
    ["count(*)", "distinctcounthll(s)"],
]

#: Aggregates an ORDER BY may name: their values are exact in the
#: engines and the oracle alike, so ordering cannot flip on rounding.
ORDERABLE = {"count(*)", "sum(m)", "min(m)", "max(m)", "avg(m)",
             "minmaxrange(m)", "distinctcount(s)", "distinctcount(i)"}

GROUP_BYS = ["i", "s", "f", "tags", "timebucket(day, 3)", "s, i",
             "tags, f"]

records_strategy = st.lists(
    st.fixed_dictionaries({
        "i": st.integers(-3, 5),
        "s": st.sampled_from(STRINGS),
        "f": st.sampled_from(FLOATS),
        "tags": st.lists(st.sampled_from(TAGS), max_size=3, unique=True),
        "m": st.integers(0, 30),
        "day": st.integers(100, 110),
    }),
    min_size=1, max_size=60,
)


@st.composite
def query_texts(draw):
    aggregates = draw(st.sampled_from(SELECT_LISTS))
    group = draw(st.sampled_from(GROUP_BYS))
    text = f"SELECT {', '.join(aggregates)} FROM t"
    if draw(st.booleans()):
        text += f" WHERE m >= {draw(st.integers(0, 30))}"
    text += f" GROUP BY {group}"
    if draw(st.integers(0, 3)) == 0:
        op = draw(st.sampled_from([">=", "<", "!="]))
        text += f" HAVING {aggregates[0]} {op} {draw(st.integers(0, 20))}"
    ordering = draw(st.sampled_from(["default", "agg", "key"]))
    if ordering == "agg":
        target = draw(st.sampled_from(
            [a for a in aggregates if a in ORDERABLE]))
        text += f" ORDER BY {target} {draw(st.sampled_from(['ASC', 'DESC']))}"
    elif ordering == "key" and not group.startswith("timebucket"):
        column = draw(st.sampled_from([c.strip() for c in group.split(",")]))
        text += f" ORDER BY {column} {draw(st.sampled_from(['ASC', 'DESC']))}"
    limit = draw(st.integers(1, 6))
    offset = draw(st.integers(0, 3))
    text += f" LIMIT {offset}, {limit}" if offset else f" TOP {limit}"
    return text


def build_segments(records, num_segments, seed):
    rng = random.Random(seed)
    parts = [[] for __ in range(num_segments)]
    for record in records:
        parts[rng.randrange(num_segments)].append(record)
    segments = []
    for index, part in enumerate(parts):
        if part:
            builder = SegmentBuilder(f"t_{index}", "t", SCHEMA)
            builder.add_all(part)
            segments.append(builder.build())
    servers = [[] for __ in range(rng.randint(1, 3))]
    for segment in segments:
        servers[rng.randrange(len(servers))].append(segment)
    return servers


def run(query, servers, engine, seed):
    """Execute, combine per server, cross the codec, reduce."""
    rng = random.Random(seed)
    server_results = []
    for index, segments in enumerate(servers):
        results = []
        for segment in segments:
            vectorized = (engine == "vectorized"
                          or (engine == "mixed" and rng.random() < 0.5))
            execute = execute_segment if vectorized else execute_segment_scalar
            results.append(execute(segment, query))
        combined = combine_segment_results(query, results, f"s{index}")
        server_results.append(decode(json_roundtrip(encode(combined))))
    return reduce_server_results(query, server_results).rows


def assert_python_types(query, rows):
    key_types = [
        int if isinstance(g, TimeBucket) else KEY_TYPES[group_by_column(g)]
        for g in query.group_by
    ]
    for row in rows:
        for key, expected in zip(row, key_types):
            assert type(key) is expected, (row, key)
        for aggregation, value in zip(query.aggregations,
                                      row[len(key_types):]):
            expected = VALUE_TYPES.get(aggregation.func)
            if expected is None:  # percentiles: float, or None if empty
                assert value is None or type(value) is float, (row, value)
            else:
                assert type(value) is expected, (row, aggregation, value)


def check(text, records, servers, seed):
    query = optimize(parse(text))
    rows = {engine: run(query, servers, engine, seed)
            for engine in ("vectorized", "scalar", "mixed")}
    assert rows["scalar"] == rows["vectorized"], text
    assert rows["mixed"] == rows["vectorized"], text
    for engine_rows in rows.values():
        assert_python_types(query, engine_rows)
    actual = rows["vectorized"]
    if any(a.func is AggFunc.DISTINCTCOUNTHLL for a in query.aggregations):
        # The sketch is checked within its error bound over every group.
        everything = dataclasses.replace(query, having=(), order_by=(),
                                         limit=1000, offset=0)
        assert approx_check(everything, records,
                            run(everything, servers, "vectorized", seed)
                            ) is None, text
        exact = optimize(parse(text.replace("distinctcounthll",
                                            "distinctcount")))
        key_len = len(query.group_by)
        expected = expected_rows(exact, records)
        assert [row[:key_len + 1] for row in actual] == [
            row[:key_len + 1] for row in expected], text
        return
    expected = expected_rows(query, records)
    assert rows_match(actual, expected), (
        f"{text}: {diff_summary(actual, expected)}")


@settings(max_examples=150, deadline=None)
@given(records=records_strategy, text=query_texts(),
       num_segments=st.integers(1, 6), seed=st.integers(0, 2 ** 16))
def test_grouped_merge_and_reduce_match_oracle(records, text, num_segments,
                                               seed):
    servers = build_segments(records, num_segments, seed)
    check(text, records, servers, seed)


def test_ties_at_the_top_n_cut_break_on_the_group_key():
    # Four groups tie on count(*) = 2 across segments and servers; the
    # TOP-2 window after OFFSET 1 must take the 2nd and 3rd smallest
    # keys, whichever server saw which group.
    records = [{"i": i, "s": "ant", "f": 0.5, "tags": ["p"], "m": 1,
                "day": 100} for i in (7, 3, 5, 1, 7, 3, 5, 1)]
    records.append({"i": 9, "s": "bee", "f": 0.5, "tags": [], "m": 1,
                    "day": 100})
    servers = build_segments(records, 4, seed=3)
    text = "SELECT count(*), sum(m) FROM t GROUP BY i LIMIT 1, 2"
    check(text, records, servers, seed=3)
    rows = run(optimize(parse(text)), servers, "vectorized", 3)
    assert rows == [(3, 2, 2.0), (5, 2, 2.0)]


def test_signed_zero_keys_merge_into_one_group():
    def segment(name, zeros):
        builder = SegmentBuilder(name, "t", SCHEMA)
        builder.add_all([{"i": 0, "s": "ant", "f": f, "tags": ["p"],
                          "m": 2, "day": 100} for f in zeros])
        return builder.build()

    servers = [[segment("t_0", (-0.0, 0.0, 0.0))], [segment("t_1", (-0.0,))],
               [segment("t_2", (0.0,))]]
    query = optimize(parse("SELECT count(*), sum(m) FROM t GROUP BY f"))
    for engine in ("vectorized", "scalar", "mixed"):
        rows = run(query, servers, engine, 0)
        assert rows == [(0.0, 5, 10.0)], engine
        assert type(rows[0][0]) is float, engine
