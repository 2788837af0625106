"""Unit tests for tracing spans (repro.obs.trace)."""

from __future__ import annotations

import gc
import io
import json
import time

import pytest

from repro import obs
from repro.obs import trace


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    obs.clear_sinks()
    yield
    obs.disable()
    obs.reset()
    obs.clear_sinks()


class TestDisabled:
    def test_span_returns_shared_null_object(self):
        first = obs.span("a")
        second = obs.span("b", attr=1)
        assert first is second  # no allocation on the disabled path

    def test_null_span_supports_protocol(self):
        with obs.span("a") as sp:
            sp.set("key", "value")  # must not raise

    def test_sinks_receive_nothing(self):
        sink = obs.InMemorySink()
        obs.add_sink(sink)
        with obs.span("a"):
            pass
        assert sink.spans == []


class TestNesting:
    def test_hierarchy_and_depth(self):
        obs.enable()
        sink = obs.InMemorySink()
        obs.add_sink(sink)
        with obs.span("outer") as outer:
            with obs.span("inner") as inner:
                assert trace.current_span() is inner
            with obs.span("inner2") as inner2:
                pass
        assert outer.depth == 0
        assert outer.parent_id is None
        for child in (inner, inner2):
            assert child.parent_id == outer.span_id
            assert child.depth == 1
        # Children finish first, the root last.
        assert sink.spans == [inner, inner2, outer]

    def test_attributes(self):
        obs.enable()
        with obs.span("s", dtd="university") as sp:
            sp.set("result", True)
        assert sp.attrs == {"dtd": "university", "result": True}

    def test_duration_is_measured(self):
        obs.enable()
        with obs.span("s") as sp:
            pass
        assert sp.duration >= 0.0
        assert sp.end >= sp.start > 0.0

    def test_finished_spans_are_held_only_by_sinks(self):
        # Nothing links a parent to its children: with no sink
        # registered, each finished child is garbage as soon as it
        # leaves the stack, however long its root stays open.
        obs.enable()

        def live_spans():
            return sum(1 for obj in gc.get_objects()
                       if isinstance(obj, trace.Span))

        before = live_spans()
        with obs.span("root"):
            for _ in range(10_000):
                with obs.span("child"):
                    pass
            during = live_spans()
        assert during - before < 10


class TestJsonLines:
    def test_schema(self):
        obs.enable()
        stream = io.StringIO()
        obs.add_sink(obs.JsonLinesSink(stream))
        before = time.time()
        with obs.span("outer", phase="check"):
            with obs.span("inner") as sp:
                sp.set("count", 3)
        after = time.time()
        lines = stream.getvalue().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        base_keys = {"id", "parent", "depth", "name",
                     "start", "duration_ms", "attrs"}
        # Schema v2: roots carry the version marker and the wall-clock
        # epoch anchor; non-roots carry neither, and ``worker`` is
        # absent on a span this process ran.
        assert set(inner) == base_keys
        assert set(outer) == base_keys | {"v", "epoch"}
        for record in records:
            assert isinstance(record["duration_ms"], (int, float))
        assert outer["parent"] is None
        assert outer["depth"] == 0
        assert outer["v"] == trace.TRACE_VERSION == 2
        assert before - 1e-6 <= outer["epoch"] <= after + 1e-6
        assert inner["parent"] == outer["id"]
        assert inner["depth"] == 1
        assert inner["attrs"] == {"count": 3}
        assert outer["attrs"] == {"phase": "check"}

    def test_remove_sink(self):
        obs.enable()
        stream = io.StringIO()
        sink = obs.JsonLinesSink(stream)
        obs.add_sink(sink)
        obs.remove_sink(sink)
        with obs.span("a"):
            pass
        assert stream.getvalue() == ""


class TestForkReset:
    def test_reinit_after_fork_clears_state(self):
        obs.enable()
        obs.add_sink(obs.InMemorySink())
        assert trace.has_sinks()
        context_manager = obs.span("left-open")
        context_manager.__enter__()
        trace.reinit_after_fork()
        assert not trace.has_sinks()
        assert trace.current_span() is None


class TestIngestRecords:
    def _worker_records(self):
        """Records the way a worker's buffering sink collects them:
        child first, worker-local ids, worker-origin timestamps."""
        return [
            {"id": 2, "parent": 1, "depth": 1, "name": "spec.parse",
             "start": 0.010, "duration_ms": 5.0, "attrs": {}},
            {"id": 1, "parent": None, "depth": 0, "name": "runtime.task",
             "start": 0.005, "duration_ms": 20.0,
             "attrs": {"task": "t-1"},
             "counters": {"chase.steps": 7}, "v": 2, "epoch": 123.0},
        ]

    def test_reparents_under_open_span_with_fresh_ids(self):
        obs.enable()
        sink = obs.InMemorySink()
        obs.add_sink(sink)
        with obs.span("cli.batch") as root:
            count = trace.ingest_records(self._worker_records(),
                                         worker=3)
        assert count == 2
        parse_span, task_span, _root = sink.spans
        assert task_span.name == "runtime.task"
        assert task_span.parent_id == root.span_id
        assert task_span.depth == 1
        assert parse_span.name == "spec.parse"
        assert parse_span.depth == 2
        assert parse_span.parent_id == task_span.span_id
        # Fresh ids from this process's counter, no collisions.
        ids = {root.span_id, task_span.span_id, parse_span.span_id}
        assert len(ids) == 3
        # Starts are kept as shipped: perf_counter is system-wide, so
        # a forked worker's clock is this process's.
        assert task_span.start == 0.005
        assert task_span.end == pytest.approx(0.025)
        # Sinks saw the ingested spans (in shipment order) and then
        # the root when it finished.
        assert [s.name for s in sink.spans] \
            == ["spec.parse", "runtime.task", "cli.batch"]

    def test_ingested_record_fields_survive(self):
        obs.enable()
        stream = io.StringIO()
        obs.add_sink(obs.JsonLinesSink(stream))
        with obs.span("cli.batch"):
            trace.ingest_records(self._worker_records(), worker=3)
        records = [json.loads(line)
                   for line in stream.getvalue().splitlines()]
        by_name = {record["name"]: record for record in records}
        task_record = by_name["runtime.task"]
        assert task_record["attrs"] == {"task": "t-1"}
        assert task_record["worker"] == 3
        assert by_name["spec.parse"]["worker"] == 3
        assert task_record["counters"] == {"chase.steps": 7}
        # Reparented under the batch root: no longer a root record, so
        # no epoch/v marker (the stitched trace has one root).
        assert "epoch" not in task_record
        assert task_record["parent"] == by_name["cli.batch"]["id"]
        # Monotone parent/child timings after the stitch.
        assert task_record["start"] <= by_name["spec.parse"]["start"]

    def test_without_open_span_tops_stay_roots(self):
        obs.enable()
        sink = obs.InMemorySink()
        obs.add_sink(sink)
        trace.ingest_records(self._worker_records(), worker=3)
        parse_span, task_span = sink.spans
        assert task_span.name == "runtime.task"
        assert task_span.depth == 0
        assert task_span.parent_id is None
        assert parse_span.depth == 1
        assert parse_span.parent_id == task_span.span_id

    def test_worker_default_only_fills_missing(self):
        obs.enable()
        records = [{"id": 5, "parent": None, "depth": 0, "name": "a",
                    "start": 0.0, "duration_ms": 1.0, "attrs": {}}]
        sink = obs.InMemorySink()
        obs.add_sink(sink)
        with obs.span("root"):
            trace.ingest_records(records, worker=7)
        assert sink.spans[0].worker == 7

    def test_noop_while_disabled(self):
        assert trace.ingest_records(self._worker_records()) == 0

