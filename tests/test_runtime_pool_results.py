"""What a pool worker's ``result`` message carries (repro.runtime.pool).

A result is the one message per attempt: the outcome without its task,
which the parent already holds; the attempt's counters, in the outcome's
``counter_delta``; and, with obs on, the gauges, histograms and timers
the attempt recorded, merged as the result arrives.  So worker metrics
are live while the batch runs, and a worker that dies loses only the
attempt it was running.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys

import pytest

from repro import obs
from repro.runtime import corpus
from repro.runtime.batch import BatchRunner
from repro.runtime.pool import PoolBackend, pool_available
from repro.runtime.retry import RetryPolicy

pytestmark = pytest.mark.skipif(not pool_available(),
                                reason="fork start method unavailable")


@contextlib.contextmanager
def _observed():
    obs.enable()
    obs.reset()
    try:
        yield
    finally:
        obs.reset()
        obs.disable()


def _runner(count, seed, backend=None):
    return BatchRunner(corpus.stream_manifest(count, seed=seed),
                       policy=RetryPolicy(retries=2, backoff_base_ms=0),
                       backend=backend, sleeper=lambda ms: None)


def test_worker_timers_are_merged_by_the_first_commit():
    """The first task's ``closure.implies`` timer is in the parent's
    snapshot when that task commits, not only after the pool ends."""
    seen = []
    runner = _runner(20, 5, PoolBackend(2))
    runner.on_task_done = lambda outcome: seen.append(
        obs.snapshot()["timers"].get("closure.implies", {}).get("count"))
    with _observed():
        runner.run()
    assert len(seen) == 20
    assert seen[0]


def test_a_killed_worker_loses_only_the_attempt_it_was_running():
    """corpus-0020 runs, then its worker is SIGKILLed before the result
    is sent: the attempt runs again elsewhere, and every timer's count
    and every histogram equal the serial run's, as the counters do."""
    def metrics(backend):
        with _observed():
            _runner(30, 7, backend).run()
            return obs.snapshot()

    serial = metrics(None)
    pool = PoolBackend(2, chaos={"corpus-0020": {0: ("sigkill", "post")}})
    parallel = metrics(pool)
    assert pool.stats.crashed == 1
    assert serial["timers"]["closure.implies"]["count"] >= 30
    assert {name: timer["count"]
            for name, timer in parallel["timers"].items()} \
        == {name: timer["count"] for name, timer in serial["timers"].items()}
    assert parallel["histograms"] == serial["histograms"]
    assert {name: value for name, value in parallel["counters"].items()
            if not name.startswith("runtime.pool.")} == serial["counters"]


def test_committed_outcomes_hold_the_parents_own_task():
    """A result carries no task: the parent re-attaches the ``Task`` it
    dispatched, so every committed outcome holds that very object."""
    dispatched, committed = {}, []
    runner = _runner(24, 3, PoolBackend(2))
    pending_tasks = runner.pending_tasks

    def spied():
        for index, task in pending_tasks():
            dispatched[index] = task
            yield index, task

    runner.pending_tasks = spied
    runner.on_task_done = committed.append
    runner.run()
    assert len(committed) == 24
    assert all(outcome.task is dispatched[index]
               for index, outcome in enumerate(committed))


def test_ledger_counter_digests_match_serial(tmp_path, capsys):
    """With obs on, each task's ledger ``counters_sha`` is the same on
    ``--workers 2`` as serially."""
    from repro.cli import main
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps(corpus.generate_manifest(30, seed=2)))

    def digests(workers):
        ledger = tmp_path / f"ledger-{workers}.jsonl"
        assert main(["--stats", "batch", str(manifest), "--backoff-base",
                     "0", "--ledger", str(ledger), "--workers",
                     str(workers)]) == 0
        capsys.readouterr()
        return [(record["task"], record["counters_sha"]) for record
                in map(json.loads, ledger.read_text().splitlines())]

    serial = digests(1)
    assert len(serial) == 30
    assert all(digest is not None for _, digest in serial)
    assert digests(2) == serial


def test_results_larger_than_the_pipe_buffer_complete(tmp_path):
    """Each task's FD text is one 1 MiB line that does not parse, and the
    failure's message quotes it, so every dispatch and every result
    outgrows the socket buffer of a worker's pipe.  The supervisor must
    never block sending to a worker that is blocked sending it a
    result: the pool run finishes, with serial's bytes."""
    dtd = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
           "<!ATTLIST r a CDATA #REQUIRED>")
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({
        "schema": "repro.runtime.manifest", "version": 1,
        "tasks": [{"id": f"t{index}", "op": "check", "dtd_text": dtd,
                   "fds_text": "x" * (1 << 20)} for index in range(4)]}))
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)  # faults force serial execution
    runs = [subprocess.run(
        [sys.executable, "-m", "repro", "batch", str(manifest),
         "--workers", str(workers)],
        capture_output=True, text=True, env=env, timeout=120)
        for workers in (1, 2)]
    assert [run.returncode for run in runs] == [1, 1], runs[1].stderr
    assert runs[1].stdout == runs[0].stdout
