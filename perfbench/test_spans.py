"""Tests of the traced run's arithmetic and wrappers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import pytest

from layers import HOOKS, Hook, Installed, coverage_gaps, subtree_layer_ms
from spans import Span, SpanRecorder, reconcile, self_times, to_chrome_trace


def span(name, start, end, parent=-1, op=0):
    return Span(name, float(start), float(end), parent, op)


def test_nested_spans_subtract_their_children():
    spans = [span("op.query", 0, 10),
             span("broker.execute", 1, 9, parent=0),
             span("net.request", 2, 6, parent=1),
             span("net.encode", 3, 4, parent=2)]
    assert self_times(spans) == [2.0, 4.0, 3.0, 1.0]


def test_sibling_spans_are_both_subtracted():
    spans = [span("server.execute", 0, 10),
             span("engine.execute", 1, 3, parent=0),
             span("engine.execute", 5, 8, parent=0)]
    assert self_times(spans) == [5.0, 2.0, 3.0]


def test_overlapping_children_are_subtracted_once():
    spans = [span("server.execute", 0, 10),
             span("engine.execute", 1, 5, parent=0),
             span("engine.execute", 3, 7, parent=0),
             span("engine.execute", 4, 6, parent=0)]
    assert self_times(spans)[0] == 4.0  # children cover [1, 7]


def test_children_are_clipped_to_their_parent():
    spans = [span("broker.execute", 2, 6),
             span("net.request", 0, 3, parent=0),
             span("net.request", 5, 9, parent=0)]
    assert self_times(spans)[0] == 2.0


def test_layer_self_times_and_unattributed_sum_to_wall():
    spans = [span("op.query", 0, 10, op=0),
             span("broker.execute", 1, 9, parent=0, op=0),
             span("pql.parse", 1.5, 2, parent=1, op=0),
             span("net.request", 2, 6, parent=1, op=0),
             span("net.encode", 3, 4, parent=3, op=0),
             span("op.query", 20, 25, op=1),
             span("broker.execute", 20.5, 24, parent=5, op=1),
             span("op.setup", 30, 40, op=2)]
    result = reconcile(spans, self_times(spans), {0, 1})
    assert result.wall_s == 15.0
    assert result.layer_self_s == {"broker": 7.0, "pql": 0.5, "net": 4.0}
    assert result.unattributed_s == pytest.approx(3.5)
    assert result.attributed_s + result.unattributed_s == result.wall_s


def test_subtree_layer_time_includes_same_layer_children_only():
    spans = [span("op.query", 0, 10),
             span("segment.snapshot", 1, 8, parent=0),
             span("segment.build", 2, 6, parent=1),
             span("zk.get", 6, 7, parent=1)]
    assert subtree_layer_ms(spans, self_times(spans), {0},
                            "segment.snapshot") == 6.0


def test_recorder_nests_spans_under_operations():
    rec = SpanRecorder()
    outer = rec.open("op.query")
    inner = rec.open("pql.parse")
    assert rec.parent_name() == "pql.parse"
    rec.close(inner)
    rec.close(outer)
    rec.close(rec.open("op.query"))
    spans = rec.spans
    assert [(s.name, s.parent, s.op) for s in spans] == [
        ("op.query", -1, 0), ("pql.parse", 0, 0), ("op.query", -1, 1)]
    assert all(s.end >= s.start for s in spans)
    with pytest.raises(RuntimeError):
        rec.open("op.query")
        rec.open("pql.parse")
        rec.close(2)


def test_chrome_trace_passes_the_repository_validator():
    from repro.obs.export import validate_chrome_trace

    rec = SpanRecorder()
    root = rec.open("op.query")
    rec.close(rec.open("broker.execute"))
    rec.close(root)
    spans = rec.spans
    parsed = validate_chrome_trace(
        to_chrome_trace(spans, {0}, spans[0].start))
    names = [e["name"] for e in parsed["traceEvents"] if e["ph"] == "X"]
    assert names == ["op.query", "broker.execute"]


class _Target:
    def work(self, value):
        return value * 2

    @classmethod
    def build(cls, value):
        return value + 1


def test_wrappers_record_only_while_active_and_restore_originals():
    hooks = (Hook(f"{__name__}:_Target", "work", "engine.work"),
             Hook(f"{__name__}:_Target", "build", "segment.build"))
    original = _Target.__dict__["work"]
    rec = SpanRecorder()
    installed = Installed(rec, hooks)
    try:
        assert _Target().work(2) == 4  # inactive: no span
        rec.active = True
        root = rec.open("op.query")
        assert _Target().work(3) == 6
        assert _Target.build(1) == 2
        rec.close(root)
    finally:
        installed.uninstall()
    assert _Target.__dict__["work"] is original
    assert isinstance(_Target.__dict__["build"], classmethod)
    assert [s.name for s in rec.spans] == [
        "op.query", "engine.work", "segment.build"]


def test_installing_a_missing_function_fails_loudly():
    with pytest.raises(AttributeError):
        Installed(SpanRecorder(),
                  (Hook(f"{__name__}:_Target", "renamed", "engine.x"),))


def test_every_hook_target_exists():
    Installed(SpanRecorder()).uninstall()


def test_coverage_guard_names_silent_layers():
    spans = [span("op.query", 0, 1), span("merge.reduce", 0, 1, parent=0)]
    gaps = coverage_gaps("rollup", spans)
    assert "merge.reduce" not in gaps
    assert "engine.execute" in gaps
    assert "segment.snapshot" not in gaps  # only required on ingest
    assert "segment.snapshot" in coverage_gaps("ingest", spans)
    assert all(hook.required for hook in HOOKS
               if hook.span in ("pql.parse", "merge.reduce"))


def test_traced_queries_reconcile_on_a_small_cluster():
    from repro.cluster.pinot import PinotCluster
    from repro.cluster.table import TableConfig
    from repro.workloads import wvmp

    rec = SpanRecorder()
    installed = Installed(rec)
    try:
        rec.active = True
        setup = rec.open("op.setup")
        cluster = PinotCluster(num_servers=2)
        cluster.create_table(TableConfig.offline(
            "wvmp", wvmp.schema(), replication=2,
            segment_config=wvmp.segment_config("sorted")))
        cluster.upload_records("wvmp", wvmp.generate_records(2_000, seed=3),
                               rows_per_segment=500)
        rec.close(setup)
        for pql in wvmp.generate_queries(20, seed=4):
            root = rec.open("op.query")
            cluster.execute(pql)
            rec.close(root)
    finally:
        installed.uninstall()
    spans = rec.spans
    queries = set(range(1, rec.op_count))
    result = reconcile(spans, self_times(spans), queries)
    assert result.attributed_s + result.unattributed_s == pytest.approx(
        result.wall_s)
    assert 0 <= result.unattributed_s < 0.05 * result.wall_s
    names = {s.name for s in spans if s.op in queries}
    assert {"pql.parse", "broker.execute", "net.request", "net.encode",
            "server.execute", "engine.execute", "engine.plan",
            "merge.combine", "merge.reduce"} <= names
    setup_names = {s.name for s in spans if s.op == 0}
    assert {"segment.build", "controller.upload"} <= setup_names
