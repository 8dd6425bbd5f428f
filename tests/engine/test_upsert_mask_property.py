"""Property-based upsert masking: valid-docId bitmaps ∧ DocSelection.

Hypothesis generates random upsert histories (sequences of keyed rows
where later occurrences of a key supersede earlier ones), builds an
immutable segment from the full history, and derives the latest-version
mask three ways:

1. a hand-computed reference (last occurrence per key wins);
2. :class:`~repro.upsert.index.TableUpsertManager` applied segment-wise;
3. the same manager fed row-by-row in a *shuffled* order — the winner
   order is a join semilattice, so application order must not matter.

The mask is then pushed through query execution in every DocSelection
physical form (bit mask and sorted id array, plus a directed contiguous
range case) on both engines, and all answers must be *exactly* equal —
to each other and to executing a compacted segment holding only the
winning rows with no mask at all. Metric values are integers, so
float64 sums are exact and no tolerance is needed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.schema import Schema
from repro.common.types import DataType, dimension, metric, time_column
from repro.engine.executor import execute_segment
from repro.engine.merge import combine_segment_results, reduce_server_results
from repro.engine.operators import DocSelection
from repro.engine.scalar import execute_segment_scalar
from repro.pql.parser import parse
from repro.pql.rewriter import optimize
from repro.segment.builder import SegmentBuilder, SegmentConfig
from repro.upsert import TableUpsertManager, UpsertConfig

NUM_KEYS = 8
COUNTRIES = list("uvwx")

QUERIES = [
    "SELECT count(*) FROM t",
    "SELECT sum(m), count(*) FROM t",
    "SELECT min(m), max(m) FROM t WHERE k <= 5",
    "SELECT distinctcount(k) FROM t WHERE m > 10",
    "SELECT sum(m) FROM t WHERE c = 'u' OR c = 'w'",
    "SELECT sum(m), count(*) FROM t GROUP BY c TOP 10",
    "SELECT avg(m) FROM t WHERE NOT c = 'v' GROUP BY k TOP 20",
]

histories = st.lists(
    st.tuples(st.integers(0, NUM_KEYS - 1),   # primary key
              st.integers(0, 3),              # country index
              st.integers(0, 50)),            # metric
    min_size=1, max_size=80,
)


def make_records(history):
    return [{"k": key, "c": COUNTRIES[country], "m": m, "day": 100 + (m % 5)}
            for key, country, m in history]


def build_segment(name, records):
    schema = Schema("t", [
        dimension("k", DataType.LONG), dimension("c"),
        metric("m", DataType.LONG), time_column("day", DataType.INT),
    ])
    builder = SegmentBuilder(name, "t", schema, SegmentConfig())
    builder.add_all(records)
    return builder.build()


def reference_mask(history):
    """Latest occurrence per key wins (priority = (sequence, docId))."""
    last = {}
    for doc, (key, __, __m) in enumerate(history):
        last[key] = doc
    mask = np.zeros(len(history), dtype=bool)
    mask[sorted(last.values())] = True
    return mask


def run(segment, query, engine, valid_docs):
    result = engine(segment, query, valid_docs=valid_docs)
    server = combine_segment_results(query, [result])
    return reduce_server_results(query, [server])


def rows_of(query, response):
    if query.group_by:
        width = len(query.group_by)
        return {tuple(r[:width]): tuple(r[width:]) for r in response.rows}
    return response.rows


@settings(max_examples=40, deadline=None)
@given(histories, st.randoms(use_true_random=False))
def test_upsert_mask_engine_parity(history, rng):
    records = make_records(history)
    segment = build_segment("t__0__0", records)
    expected_mask = reference_mask(history)

    config = UpsertConfig(mode="upsert", key_columns=("k",))
    manager = TableUpsertManager("t", config)
    manager.apply_segment(segment)

    # Order independence: feeding the same rows one by one in a random
    # order converges to the identical bitmap.
    shuffled = TableUpsertManager("t", config)
    order = list(enumerate(records))
    rng.shuffle(order)
    for doc_id, record in order:
        shuffled.apply("t__0__0", doc_id, record)

    for m in (manager, shuffled):
        selection = m.selection_for("t__0__0", segment.num_docs)
        got = (selection.mask(segment.num_docs) if selection is not None
               else np.ones(segment.num_docs, dtype=bool))
        assert np.array_equal(got, expected_mask)

    # A compacted segment holding only the winners, executed unmasked,
    # is the ground truth the masked full segment must reproduce.
    winners = [record for record, keep in zip(records, expected_mask)
               if keep]
    compacted = build_segment("t__0__1", winners)

    forms = [DocSelection.from_mask(expected_mask),
             DocSelection.from_docs(np.flatnonzero(expected_mask))]
    for text in QUERIES:
        query = optimize(parse(text))
        truth = rows_of(query, run(compacted, query, execute_segment, None))
        for form in forms:
            for engine in (execute_segment, execute_segment_scalar):
                got = rows_of(query, run(segment, query, engine, form))
                assert got == truth, (text, form, engine.__name__)


@pytest.mark.parametrize("start,end", [(0, 4), (2, 9), (5, 5)])
def test_contiguous_range_form(start, end):
    # Directed case for the third DocSelection shape: a dense run of
    # valid docs (e.g. every row before `start` was superseded).
    history = [(i % NUM_KEYS, i % 4, i * 3) for i in range(9)]
    records = make_records(history)
    segment = build_segment("t__0__0", records)
    valid = DocSelection.from_range(start, end)
    survivors = records[start:end]
    for text in QUERIES:
        query = optimize(parse(text))
        fast = rows_of(query, run(segment, query, execute_segment, valid))
        slow = rows_of(query,
                       run(segment, query, execute_segment_scalar, valid))
        assert fast == slow, (text, start, end)
        if survivors:
            truth = rows_of(query, run(
                build_segment("t__0__1", survivors), query, execute_segment,
                None))
            assert fast == truth, (text, start, end)
