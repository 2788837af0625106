"""Unit tests for the trace profiler (repro.obs.profile)."""

from __future__ import annotations

import json

import pytest

from repro.obs import profile as prof
from repro.obs.profile import TraceError


def span(span_id, name, duration_ms, *, parent=None, start=0.0,
         counters=None):
    record = {"id": span_id, "name": name, "duration_ms": duration_ms,
              "start": start}
    if parent is not None:
        record["parent"] = parent
    if counters:
        record["counters"] = counters
    return record


def write_trace(path, records):
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in records))
    return path


#: A small but structurally complete trace: one root, two rounds, one
#: of them with a nested step, and counter deltas at every boundary.
TRACE = [
    span(1, "cli.normalize", 100.0, start=0.0,
         counters={"closure.iterations": 50, "spans": 4}),
    span(2, "normalize.round", 60.0, parent=1, start=5.0,
         counters={"closure.iterations": 30}),
    span(3, "normalize.round", 30.0, parent=1, start=66.0,
         counters={"closure.iterations": 20}),
    span(4, "normalize.steps.create", 12.0, parent=2, start=7.0,
         counters={"closure.iterations": 4}),
]


class TestLoadTrace:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            prof.load_trace(tmp_path / "nope.jsonl")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(TraceError, match="no span records"):
            prof.load_trace(path)

    def test_invalid_json_line(self, tmp_path):
        # A bad line before the last is structural; a bad *last* line
        # is a torn record, skipped (tests/test_records.py).
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": 1, "name": "a", "duration_ms": 1}\n{oops\n'
                        '{"id": 2, "name": "b", "duration_ms": 1}\n')
        with pytest.raises(TraceError, match="bad.jsonl:2"):
            prof.load_trace(path)

    def test_missing_required_key(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"id": 1, "name": "a"}\n')
        with pytest.raises(TraceError, match="missing 'duration_ms'"):
            prof.load_trace(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "arr.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(TraceError, match="expected an object"):
            prof.load_trace(path)

    @pytest.mark.parametrize("length", [2, 3, 7])
    def test_parent_cycle_of_any_length(self, tmp_path, length):
        # A root, a span hanging off a cycle, then the cycle itself:
        # the error names the first line whose chain reaches it.
        records = [span(100, "root", 9.0), span(50, "tail", 1.0, parent=1)]
        records += [span(i, f"s{i}", 1.0, parent=i % length + 1)
                    for i in range(1, length + 1)]
        path = write_trace(tmp_path / "cycle.jsonl", records)
        loop = " -> ".join(map(str, [*range(1, length + 1), 1]))
        with pytest.raises(TraceError, match=f"cycle.jsonl:2: span 50: "
                           f"'parent' links form a cycle \\({loop}\\)"):
            prof.load_trace(path)

    def test_self_parent_is_a_root(self, tmp_path):
        path = write_trace(tmp_path / "self.jsonl",
                           [span(1, "root", 5.0, parent=1),
                            span(2, "child", 2.0, parent=1)])
        [root] = prof.build_forest(prof.load_trace(path))
        assert [child.span_id for child in root.children] == [2]


class TestForest:
    def test_parent_links_and_child_order(self):
        roots = prof.build_forest(list(TRACE))
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "cli.normalize"
        assert [child.span_id for child in root.children] == [2, 3]
        assert [child.span_id
                for child in root.children[0].children] == [4]

    def test_orphans_become_roots(self):
        records = [span(7, "lost.child", 5.0, parent=99)]
        roots = prof.build_forest(records)
        assert len(roots) == 1
        assert roots[0].name == "lost.child"

    def test_self_time_subtracts_children(self):
        roots = prof.build_forest(list(TRACE))
        root = roots[0]
        assert root.self_ms == pytest.approx(100.0 - 60.0 - 30.0)
        round_one = root.children[0]
        assert round_one.self_ms == pytest.approx(60.0 - 12.0)

    def test_self_time_clamped_at_zero(self):
        # Overlapping clocks can make children sum past the parent;
        # self time must never go negative.
        records = [span(1, "p", 10.0),
                   span(2, "c", 15.0, parent=1)]
        roots = prof.build_forest(records)
        assert roots[0].self_ms == 0.0

    def test_self_counters_subtract_children(self):
        roots = prof.build_forest(list(TRACE))
        root = roots[0]
        assert root.self_counters() == {"spans": 4}
        round_one = root.children[0]
        assert round_one.self_counters() == {"closure.iterations": 26}


class TestProfile:
    def test_by_name_rollup(self):
        profile = prof.build_profile(list(TRACE))
        assert profile.spans == 4
        stat = profile.by_name["normalize.round"]
        assert stat.calls == 2
        assert stat.total_ms == pytest.approx(90.0)
        assert stat.self_ms == pytest.approx(48.0 + 30.0)

    def test_coverage_is_child_share_of_roots(self):
        profile = prof.build_profile(list(TRACE))
        assert profile.coverage == pytest.approx(0.9)

    def test_total_counters_recompose(self):
        # Self-attribution is a partition: summing the self deltas
        # back up reproduces the root's cumulative deltas.
        profile = prof.build_profile(list(TRACE))
        assert profile.total_counters() == {"closure.iterations": 50,
                                            "spans": 4}

    def test_critical_path(self):
        profile = prof.build_profile(list(TRACE))
        path = prof.critical_path(profile)
        assert [node.name for node in path] == [
            "cli.normalize", "normalize.round", "normalize.steps.create"]

    def test_critical_path_empty_profile(self):
        assert prof.critical_path(
            prof.Profile(roots=[], spans=0, by_name={}, by_stack={})) \
            == []


class TestRendering:
    def test_report_contents(self):
        profile = prof.build_profile(list(TRACE))
        report = prof.render_report(profile)
        assert "4 span(s), 1 root(s)" in report
        assert "child coverage 90.0%" in report
        assert "-- by span name --" in report
        assert "-- critical path --" in report
        assert "-- counter deltas (self-attributed) --" in report
        # Both rounds' self deltas fold into one by-name row:
        # (30-4) from the first round plus 20 from the second.
        assert "closure.iterations +46" in report

    def test_report_counters_off(self):
        profile = prof.build_profile(list(TRACE))
        report = prof.render_report(profile, counters=False)
        assert "counter deltas" not in report

    def test_folded_stacks(self):
        profile = prof.build_profile(list(TRACE))
        folded = prof.folded_stacks(profile)
        lines = folded.splitlines()
        assert lines == sorted(lines)
        assert "cli.normalize;normalize.round 78000" in lines
        assert ("cli.normalize;normalize.round;"
                "normalize.steps.create 12000") in lines

    def test_deterministic_across_record_order(self):
        forward = prof.build_profile(list(TRACE))
        backward = prof.build_profile(list(reversed(TRACE)))
        assert prof.render_report(forward) \
            == prof.render_report(backward)
        assert prof.folded_stacks(forward) \
            == prof.folded_stacks(backward)


class TestDiff:
    def _trace_file(self, tmp_path, name, iterations):
        records = [span(1, "root", 50.0,
                        counters={"closure.iterations": iterations})]
        return write_trace(tmp_path / name, records)

    def test_identical_traces_pass(self, tmp_path):
        base = self._trace_file(tmp_path, "a.jsonl", 100)
        report, code = prof.diff(base, base)
        assert code == 0
        assert "OK: no counter regressions" in report

    def test_counter_growth_gates(self, tmp_path):
        base = self._trace_file(tmp_path, "a.jsonl", 100)
        curr = self._trace_file(tmp_path, "b.jsonl", 150)
        report, code = prof.diff(base, curr)
        assert code == 1
        assert "closure.iterations" in report
        assert "regression" in report.lower()

    def test_growth_within_tolerance_passes(self, tmp_path):
        base = self._trace_file(tmp_path, "a.jsonl", 100)
        curr = self._trace_file(tmp_path, "b.jsonl", 104)
        _, code = prof.diff(base, curr)
        assert code == 0

    def test_improvement_is_a_note_not_a_gate(self, tmp_path):
        base = self._trace_file(tmp_path, "a.jsonl", 150)
        curr = self._trace_file(tmp_path, "b.jsonl", 100)
        report, code = prof.diff(base, curr)
        assert code == 0
        assert "improved" in report

    def test_time_growth_is_advisory(self, tmp_path):
        slow = write_trace(tmp_path / "slow.jsonl",
                           [span(1, "root", 500.0,
                                 counters={"ops": 10})])
        fast = write_trace(tmp_path / "fast.jsonl",
                           [span(1, "root", 50.0,
                                 counters={"ops": 10})])
        report, code = prof.diff(fast, slow)
        assert code == 0
        assert "advisory" in report

    def test_unreadable_input_raises_trace_error(self, tmp_path):
        with pytest.raises(TraceError):
            prof.diff(tmp_path / "missing.json",
                      tmp_path / "missing2.json")

    def test_empty_file_raises(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        with pytest.raises(TraceError, match="no span records"):
            prof.load_comparable(empty)
