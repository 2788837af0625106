"""Cross-process trace stitching acceptance (the ISSUE tentpole).

A parallel ``--trace`` batch must produce ONE coherent trace forest —
every worker's ``runtime.task`` subtree rebased onto the parent's
clock under the batch root — that downstream tooling (``obs report``
/ ``flame`` / ``diff``) consumes identically to a serial trace.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

import pytest

from repro.obs.profile import (
    build_forest,
    build_profile,
    load_trace,
    task_attribution,
)
from repro.runtime import corpus
from repro.runtime.pool import pool_available

#: Big enough that task work dominates pool spawn/teardown — the
#: >=95% attribution bar is about instrumentation coverage, not about
#: how tiny a batch can get before fixed overhead wins.  (Pool start-up
#: costs ~60 ms before the first task runs; with the interned-path
#: kernel 16 corpus tasks take little more than that, and 96 put the
#: measured share back where 16 tasks of the older engine had it.)
TASKS = 96

pytestmark = pytest.mark.skipif(
    not pool_available(), reason="fork start method unavailable")


def run_traced_batch(tmp_path, tag, *, workers, hash_seed="0"):
    """Run a traced+ledgered batch in a subprocess (so the
    interpreter's hash seed is actually applied) and load the trace."""
    manifest_path = tmp_path / f"manifest-{tag}.json"
    manifest_path.write_text(json.dumps(
        corpus.generate_manifest(TASKS, seed=5)))
    trace_path = tmp_path / f"trace-{tag}.jsonl"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH="src")
    env.pop("REPRO_FAULTS", None)  # faults force serial execution
    result = subprocess.run(
        [sys.executable, "-m", "repro", "batch", str(manifest_path),
         "--workers", str(workers), "--trace", str(trace_path)],
        capture_output=True, cwd="/root/repo", env=env)
    assert result.returncode == 0, result.stderr
    return load_trace(trace_path)


def spans_per_task(records):
    """The multiset of span names under each task id."""
    multiset: dict[str, collections.Counter] = {}
    for record in records:
        task = record.get("task")
        if task is not None:
            multiset.setdefault(
                task, collections.Counter())[record["name"]] += 1
    return multiset


class TestStitchedTrace:
    @pytest.fixture(scope="class")
    def parallel_records(self, tmp_path_factory):
        return run_traced_batch(tmp_path_factory.mktemp("stitch"),
                                "par", workers=4)

    def test_one_root_with_every_task_subtree(self, parallel_records):
        roots = build_forest(parallel_records)
        assert len(roots) == 1
        assert roots[0].name == "cli.batch"
        tasks = {record["task"] for record in parallel_records
                 if record["name"] == "runtime.task"}
        assert tasks == {f"corpus-{i:04d}" for i in range(TASKS)}
        # Every task span names the worker that ran it, and the whole
        # trace shares the invocation's trace id.
        workers = {record["worker"] for record in parallel_records
                   if record["name"] == "runtime.task"}
        assert workers and all(isinstance(w, int) for w in workers)
        trace_ids = {record.get("trace_id")
                     for record in parallel_records}
        assert len(trace_ids) == 1 and trace_ids != {None}

    def test_monotone_parent_child_timings(self, parallel_records):
        roots = build_forest(parallel_records)
        slack = 5e-6  # record start/duration rounding (6/4 dp)

        def check(node):
            end = node.start + node.duration_ms / 1e3
            for child in node.children:
                child_end = child.start + child.duration_ms / 1e3
                assert child.start >= node.start - slack
                assert child_end <= end + slack
                check(child)

        check(roots[0])

    def test_single_epoch_anchor_on_the_root(self, parallel_records):
        anchored = [record for record in parallel_records
                    if "epoch" in record]
        assert len(anchored) == 1
        assert anchored[0]["parent"] is None
        assert anchored[0]["v"] == 2
        assert anchored[0]["epoch"] > 1.6e9  # a real wall-clock stamp

    def test_by_task_attribution_bar(self, parallel_records):
        """The acceptance metric: >=95% of the batch root's wall time
        is attributed to per-task subtrees (parallel overlap can push
        it past 100%)."""
        profile = build_profile(parallel_records)
        assert task_attribution(profile) >= 0.95

    def test_parallel_and_serial_traces_are_equivalent(self, tmp_path):
        """Same manifest, same span multiset per task — serial vs 4
        workers, across different interpreter hash seeds."""
        serial = run_traced_batch(tmp_path, "ser", workers=1,
                                  hash_seed="0")
        parallel = run_traced_batch(tmp_path, "par2", workers=4,
                                    hash_seed="4242")
        assert spans_per_task(serial) == spans_per_task(parallel)

    def test_report_and_flame_consume_the_stitched_trace(
            self, tmp_path, capsys):
        records = run_traced_batch(tmp_path, "tools", workers=4)
        trace_path = tmp_path / "trace-tools.jsonl"
        from repro.obs.cli import main as obs_main
        assert obs_main(["report", str(trace_path),
                         "--by-task"]) == 0
        out = capsys.readouterr().out
        assert "anchored" in out
        assert "-- by task:" in out
        assert "corpus-0000" in out
        assert obs_main(["flame", str(trace_path)]) == 0
        flame = capsys.readouterr().out
        assert "cli.batch;runtime.task" in flame


class TestStdinTraces:
    def test_report_reads_stdin(self):
        """Satellite: `-` pipes a trace through report/flame/diff."""
        records = [
            {"id": 1, "parent": None, "depth": 0, "name": "root",
             "start": 0.0, "duration_ms": 8.0, "attrs": {},
             "v": 2, "epoch": 1700000000.0},
            {"id": 2, "parent": 1, "depth": 1, "name": "child",
             "start": 0.001, "duration_ms": 3.0, "attrs": {}},
        ]
        payload = "".join(json.dumps(record) + "\n"
                          for record in records)
        env = dict(os.environ, PYTHONPATH="src")
        for args, expect in (
                (["report", "-"], "== trace profile"),
                (["flame", "-"], "root;child"),
                (["report", "-", "--by-task"], "-- by task:")):
            result = subprocess.run(
                [sys.executable, "-m", "repro.obs", *args],
                input=payload, capture_output=True, text=True,
                cwd="/root/repo", env=env)
            assert result.returncode == 0, result.stderr
            assert expect in result.stdout

    def test_diff_reads_stdin_for_one_side(self, tmp_path):
        record = {"id": 1, "parent": None, "depth": 0, "name": "root",
                  "start": 0.0, "duration_ms": 8.0, "attrs": {},
                  "counters": {"x.ops": 3}}
        trace_path = tmp_path / "base.jsonl"
        trace_path.write_text(json.dumps(record) + "\n")
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs", "diff",
             str(trace_path), "-"],
            input=json.dumps(record) + "\n", capture_output=True,
            text=True, cwd="/root/repo", env=env)
        assert result.returncode == 0, result.stderr
        assert "OK: no counter regressions" in result.stdout

    def test_empty_stdin_is_a_usage_error(self):
        env = dict(os.environ, PYTHONPATH="src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.obs", "report", "-"],
            input="", capture_output=True, text=True,
            cwd="/root/repo", env=env)
        assert result.returncode == 2
        assert "no span records" in result.stderr
