"""Unit tests for the process-pool backend (repro.runtime.pool)."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import InjectedFault
from repro.runtime import corpus
from repro.runtime import manifest as mf
from repro.runtime.batch import (
    REASON_WORKER_CRASH,
    BatchRunner,
    SerialBackend,
)
from repro.runtime.breaker import BreakerBoard
from repro.runtime.pool import (
    BREACH_EXITCODE,
    PoolBackend,
    PoolStats,
    pool_available,
    resolve_workers,
)
from repro.runtime.retry import RetryPolicy

pytestmark = pytest.mark.skipif(not pool_available(),
                                reason="fork start method unavailable")

DTD = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
       "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")
BROKEN_DTD = "<!ELEMENT db (unclosed"


def _runner(manifest, backend=None, **policy_overrides):
    policy = RetryPolicy(retries=2, backoff_base_ms=0,
                         **policy_overrides)
    return BatchRunner(manifest, policy=policy, backend=backend,
                       sleeper=lambda ms: None)


def _mixed_tasks():
    """Four parsable specs with two unparsable ones interleaved —
    deterministic permanent in-task failures for breaker plumbing."""
    tasks = [{"id": f"ok-{i}", "op": "check", "dtd_text": DTD,
              "fds_text": "db.r.@a -> db.r.@b"} for i in range(4)]
    tasks.insert(1, {"id": "bad-1", "op": "check",
                     "dtd_text": BROKEN_DTD, "fds_text": ""})
    tasks.insert(3, {"id": "bad-2", "op": "check",
                     "dtd_text": BROKEN_DTD, "fds_text": ""})
    return tasks


def _corpus_summaries(count, seed, workers, **pool_kwargs):
    serial = _runner(corpus.stream_manifest(count, seed=seed)).run()
    pool = PoolBackend(workers, **pool_kwargs)
    parallel = _runner(corpus.stream_manifest(count, seed=seed),
                       backend=pool).run()
    return serial, parallel, pool


class TestResolveWorkers:
    def test_explicit_count_passes_through(self):
        assert resolve_workers(3) == 3
        assert resolve_workers("5") == 5

    def test_auto_is_at_least_one(self):
        assert resolve_workers("auto") >= 1

    def test_auto_counts_the_cpus_this_process_may_run_on(
            self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers("auto", task_count=100) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert resolve_workers("auto", task_count=100) == 8

    def test_task_count_caps_the_pool(self):
        assert resolve_workers(8, task_count=3) == 3
        assert resolve_workers("auto", task_count=1) == 1

    def test_zero_tasks_still_resolves_to_one(self):
        assert resolve_workers(4, task_count=0) == 1

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_workers("many")
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(ValueError):
            resolve_workers("-2")


class TestConstruction:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PoolBackend(0)
        with pytest.raises(ValueError):
            PoolBackend(2, crash_retries=-1)
        with pytest.raises(ValueError):
            PoolBackend(2, stall_timeout=-1.0)

    def test_rejects_unknown_chaos(self):
        with pytest.raises(ValueError):
            PoolBackend(2, chaos={"t": {0: ("meteor", "pre")}})
        with pytest.raises(ValueError):
            PoolBackend(2, chaos={"t": {0: ("sigkill", "sometime")}})

    def test_stats_start_clean(self):
        stats = PoolBackend(2).stats
        assert stats.to_json() == PoolStats().to_json()


class TestExecution:
    def test_clean_run_matches_serial_bytes(self):
        serial, parallel, pool = _corpus_summaries(10, 11, workers=2)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)
        assert pool.stats.crashed == 0
        assert pool.stats.spawned == 2

    def test_merged_counters_match_serial_outside_the_pool(self):
        # Each task's counters cross the pipe once, in its outcome's
        # counter_delta: merged, they are the serial run's counters.
        from repro import obs

        def counters(backend):
            obs.enable()
            obs.reset()
            try:
                _runner(corpus.stream_manifest(40, seed=5),
                        backend=backend).run()
                return {name: value for name, value
                        in obs.snapshot()["counters"].items()
                        if not name.startswith("runtime.pool.")}
            finally:
                obs.reset()
                obs.disable()

        serial = counters(None)
        assert serial["runtime.tasks"] == 40
        assert counters(PoolBackend(2)) == serial

    def test_single_worker_pool_matches_serial_bytes(self):
        serial, parallel, pool = _corpus_summaries(6, 3, workers=1)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)
        assert pool.stats.workers == 1

    def test_empty_manifest_returns_no_outcomes(self):
        manifest = mf.build([])
        pool = PoolBackend(2)
        summary = _runner(manifest, backend=pool).run()
        assert summary["counts"] == {"total": 0, "ok": 0, "failed": 0,
                                     "lost": 0}
        assert pool.stats.spawned == 0

    def test_pool_never_spawns_more_workers_than_tasks(self):
        _, _, pool = _corpus_summaries(2, 1, workers=8)
        assert pool.stats.workers == 2
        assert pool.stats.spawned == 2

    def test_in_worker_dead_letters_match_serial_bytes(self):
        # Permanent in-task failures (parse errors) must flow through
        # the retry/breaker machinery and land in the summary exactly
        # as the serial path reports them — including the settled
        # breaker board snapshot.
        serial = _runner(mf.build(_mixed_tasks())).run()
        pool = PoolBackend(2)
        parallel = _runner(mf.build(_mixed_tasks()),
                           backend=pool).run()
        assert serial["counts"]["failed"] == 2
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)

    def test_contract_breach_in_worker_crashes_the_batch(self):
        manifest = corpus.stream_manifest(4, seed=2)
        pool = PoolBackend(2)
        runner = _runner(manifest, backend=pool)

        def explode(task):
            raise RuntimeError("boom: not a ReproError")

        # Fork shares the patched method with the workers, mirroring
        # the serial backend's loud-crash contract for non-ReproErrors.
        runner._execute = explode
        with pytest.raises(RuntimeError, match="contract breach"):
            runner.run()
        assert pool.stats.crashed == 0  # breach, not a crash

    def test_breach_exitcode_without_report_is_still_a_breach(self):
        # The breach *message* can be lost (the worker's send raced
        # its own death): the exit code alone must classify the death
        # as a breach, never as an ordinary crash to requeue against
        # the crash budget.
        manifest = corpus.stream_manifest(4, seed=2)
        pool = PoolBackend(2)
        runner = _runner(manifest, backend=pool)

        def explode(task):
            os._exit(BREACH_EXITCODE)

        runner._execute = explode
        with pytest.raises(RuntimeError, match="contract breach"):
            runner.run()
        assert pool.stats.crashed == 0
        assert pool.stats.requeued == 0


class TestCrashBookkeeping:
    def test_poison_task_dead_letters_with_worker_crash_reason(self):
        chaos = {"corpus-0001": {attempt: ("sigkill", "pre")
                                 for attempt in range(5)}}
        pool = PoolBackend(2, crash_retries=2, chaos=chaos)
        summary = _runner(corpus.stream_manifest(5, seed=4),
                          backend=pool).run()
        assert summary["counts"]["lost"] == 0
        assert summary["counts"]["failed"] == 1
        [letter] = summary["dead_letters"]
        assert letter["id"] == "corpus-0001"
        assert letter["reason"] == REASON_WORKER_CRASH
        assert letter["signature"] == "crash:signal:SIGKILL"
        assert letter["attempts"] == 3          # 1 + crash_retries
        assert len(letter["failures"]) == 3
        assert all(f["transient"] for f in letter["failures"])
        assert letter["error_chain"][0]["type"] == "WorkerCrash"
        assert pool.stats.dead_lettered == 1
        assert pool.stats.crashed == 3

    def test_crash_budget_alone_bounds_poison_tasks(self):
        """Seven poison tasks in a row each spend their whole crash
        budget: no breaker watches crashes, so ``runtime.breaker.*``
        stays unset while the summary has no breakers."""
        from repro import obs
        chaos = {f"corpus-{index:04d}": {attempt: ("sigkill", "pre")
                                         for attempt in range(3)}
                 for index in range(7)}
        pool = PoolBackend(2, crash_retries=2, chaos=chaos)
        obs.enable()
        obs.reset()
        try:
            summary = _runner(corpus.stream_manifest(12, seed=1),
                              backend=pool).run()
            counters = obs.snapshot()["counters"]
        finally:
            obs.reset()
            obs.disable()
        assert summary["breakers"] == {}
        assert [name for name in counters
                if name.startswith("runtime.breaker.")] == []
        letters = summary["dead_letters"]
        assert [letter["id"] for letter in letters] == list(chaos)
        assert [letter["attempts"] for letter in letters] == [3] * 7
        assert summary["counts"]["ok"] == 5
        assert pool.stats.crashed == 21

    def test_crash_dead_letter_keeps_the_attempts_it_returned(
            self, tmp_path):
        """A task whose retry kills every worker it lands on dead-letters
        ``worker_crash`` with its own failed attempt first, then the
        crashes.  The board admitted that attempt's retry, so resuming
        the journal asks it again and rebuilds the same bytes."""
        from repro.runtime.journal import open_journal

        def run(resume):
            manifest = corpus.stream_manifest(4, seed=2)
            policy = RetryPolicy(retries=2, backoff_base_ms=0)
            board = BreakerBoard()
            journal = open_journal(
                str(tmp_path / "j.journal"), manifest=manifest,
                policy=policy, board=board, resume=resume, fsync=False,
                warn=lambda message: None)
            runner = BatchRunner(manifest, policy=policy, board=board,
                                 backend=PoolBackend(2, crash_retries=1),
                                 journal=journal, sleeper=lambda ms: None)
            real = runner._attempt

            def attempt(task, outcome):
                if task.id == "corpus-0001":
                    if outcome.attempts == 1:
                        raise InjectedFault("test.once", "exception")
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(task, outcome)

            # Fork shares the patched method with the workers.
            runner._attempt = attempt
            try:
                return runner.run()
            finally:
                journal.close()

        summary = run(resume=False)
        [letter] = summary["dead_letters"]
        assert letter["reason"] == REASON_WORKER_CRASH
        assert letter["attempts"] == 3
        assert [failure["signature"] for failure in letter["failures"]] \
            == ["site:test.once"] + ["crash:signal:SIGKILL"] * 2
        assert summary["breakers"]["site:test.once"]["state"] == "closed"
        assert json.dumps(run(resume=True), sort_keys=True) \
            == json.dumps(summary, sort_keys=True)

    def test_recovered_crash_is_invisible_in_the_summary(self):
        chaos = {"corpus-0002": {0: ("sigkill", "pre")}}
        serial = _runner(corpus.stream_manifest(6, seed=9)).run()
        pool = PoolBackend(2, chaos=chaos)
        parallel = _runner(corpus.stream_manifest(6, seed=9),
                           backend=pool).run()
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)
        assert pool.stats.crashed == 1
        assert pool.stats.requeued == 1

    def test_requeued_task_is_stolen_by_another_worker(self):
        chaos = {"corpus-0000": {0: ("sigkill", "pre")}}
        pool = PoolBackend(2, chaos=chaos)
        summary = _runner(corpus.stream_manifest(6, seed=9),
                          backend=pool).run()
        assert summary["counts"]["ok"] == 6
        assert pool.stats.stolen >= 1

    @pytest.mark.parametrize("crash_retries", [0, 3])
    def test_a_death_charges_only_the_attempt_it_was_running(
            self, crash_retries):
        """Each worker starts on a napping task with more queued behind
        it, and corpus-0002's dispatch kills the worker that reaches it.
        Only corpus-0002 is charged: without a crash budget it alone
        dead-letters, with one the bytes are serial's.  The attempts
        queued behind it go back uncharged and other workers run them
        (``stolen``)."""
        def runner(backend=None):
            runner = _runner(corpus.stream_manifest(12, seed=9),
                             backend=backend)
            real = runner._execute

            def execute(task):
                if task.id in ("corpus-0000", "corpus-0001"):
                    time.sleep(0.2)
                return real(task)

            # Fork shares the patched method with the workers.
            runner._execute = execute
            return runner

        serial = runner().run()
        pool = PoolBackend(2, crash_retries=crash_retries, chaos={
            "corpus-0002": {0: ("sigkill", "pre")}})
        parallel = runner(pool).run()
        assert pool.stats.crashed == 1
        assert pool.stats.stolen >= 1
        assert all(task["attempts"] == 1 for task in parallel["tasks"])
        if crash_retries:
            assert pool.stats.requeued == 1
            assert json.dumps(parallel, sort_keys=True) \
                == json.dumps(serial, sort_keys=True)
            return
        [letter] = parallel["dead_letters"]
        assert letter["id"] == "corpus-0002"
        assert [failure["signature"] for failure in letter["failures"]] \
            == ["crash:signal:SIGKILL"]
        assert [task for task in parallel["tasks"]
                if task["id"] != "corpus-0002"] \
            == [task for task in serial["tasks"]
                if task["id"] != "corpus-0002"]

    def test_crash_spawns_a_replacement_worker(self):
        chaos = {"corpus-0003": {0: ("sigkill", "pre")}}
        _, _, pool = _corpus_summaries(8, 1, workers=2, chaos=chaos)
        assert pool.stats.spawned == 3
        assert pool.stats.crashed == 1


class TestStallDetection:
    def test_wedged_worker_is_killed_and_task_requeued(self):
        chaos = {"corpus-0002": {0: ("sigstop", "pre")}}
        serial = _runner(corpus.stream_manifest(5, seed=6)).run()
        pool = PoolBackend(2, stall_timeout=1.0, chaos=chaos)
        parallel = _runner(corpus.stream_manifest(5, seed=6),
                           backend=pool).run()
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)
        assert pool.stats.stalls == 1
        assert "stall" in pool.stats.crash_details


class TestBreakerArbitration:
    """In-task breaker state lives in the parent: workers keep none,
    and each committed task's traffic is settled on the runner's own
    board — the one the summary reports and ``/metrics`` watches
    live."""

    def test_worker_failures_reach_the_runner_board(self):
        serial_runner = _runner(mf.build(_mixed_tasks()))
        serial_runner.run()
        pool_runner = _runner(mf.build(_mixed_tasks()),
                              backend=PoolBackend(2))
        pool_runner.run()
        snap = pool_runner.board.snapshot()
        assert snap                  # the parent saw in-task failures
        assert snap == serial_runner.board.snapshot()

    def test_tripped_breaker_is_pool_global_and_matches_serial(self):
        # threshold=1: the first parse failure trips the breaker.
        # Worker-private boards would each trip independently (the
        # two bad tasks usually land on different workers) and the
        # old numeric merge reported trips=2; the one settled board
        # must show the serial picture exactly, byte-for-byte.
        def one(backend):
            runner = BatchRunner(
                mf.build(_mixed_tasks()),
                policy=RetryPolicy(retries=2, backoff_base_ms=0),
                board=BreakerBoard(threshold=1), backend=backend,
                sleeper=lambda ms: None)
            return runner.run()

        serial = one(None)
        parallel = one(PoolBackend(2))
        [entry] = serial["breakers"].values()
        assert entry["state"] == "open"
        assert entry["trips"] == 1
        assert entry["consecutive_failures"] == 2
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(parallel, sort_keys=True)


def _flaky_runner(threshold, backend=None, count=16, head_s=0.0):
    """Two of every three tasks fail transiently on every attempt:
    breakers at ``threshold`` trip, skip and probe all run long, so the
    order in which failures reach the board decides every outcome.
    The first task takes ``head_s`` longer, so on a pool every task
    dispatched meanwhile fails before anything has settled."""
    runner = BatchRunner(
        corpus.stream_manifest(count, seed=5),
        policy=RetryPolicy(retries=2, backoff_base_ms=0),
        board=BreakerBoard(threshold=threshold, probe_interval=2),
        backend=backend, sleeper=lambda ms: None)
    real = runner._execute

    def execute(task):
        index = int(task.id.rsplit("-", 1)[1])
        if index % 3:
            raise InjectedFault("test.flaky", "exception")
        if index == 0:
            time.sleep(head_s)
        return real(task)

    # Fork shares the patched method with the workers.
    runner._execute = execute
    return runner


class TestOrderedCommit:
    """Tasks commit in index order through the reorder buffer, and a
    retry is decided only for the head of that order, so the pool's
    bytes equal serial's even while breakers trip, skip and probe."""

    @pytest.mark.parametrize("threshold", [1, 2])
    def test_tripping_breakers_match_serial_bytes(self, threshold):
        serial = json.dumps(_flaky_runner(threshold).run(),
                            sort_keys=True)
        reasons = {letter["reason"]
                   for letter in json.loads(serial)["dead_letters"]}
        assert reasons == {"retries_exhausted", "breaker_open"}
        for _ in range(10):
            parallel = _flaky_runner(threshold, PoolBackend(2)).run()
            assert json.dumps(parallel, sort_keys=True) == serial

    def test_sigkill_on_a_failing_task_matches_serial_bytes(self):
        serial = _flaky_runner(1).run()
        pool = PoolBackend(2, chaos={"corpus-0004": {0: ("sigkill",
                                                         "pre")}})
        parallel = _flaky_runner(1, pool).run()
        assert pool.stats.crashed == 1
        assert json.dumps(parallel, sort_keys=True) \
            == json.dumps(serial, sort_keys=True)

    def test_on_task_done_sees_index_order(self):
        seen = []
        runner = _flaky_runner(1, PoolBackend(2), count=40)
        runner.on_task_done = lambda outcome: seen.append(outcome.task.id)
        runner.run()
        assert seen == [f"corpus-{index:04d}" for index in range(40)]

    def test_journal_results_match_serial_in_order(self, tmp_path):
        from repro.runtime.journal import open_journal

        def result_lines(backend, name):
            runner = _flaky_runner(2, backend, count=24)
            path = tmp_path / name
            runner.journal = open_journal(
                str(path), manifest=runner.manifest,
                policy=runner.policy, board=runner.board, fsync=False)
            try:
                runner.run()
            finally:
                runner.journal.close()
            return [line for line in path.read_text().splitlines()
                    if '"record": "result"' in line]

        serial = result_lines(None, "serial.journal")
        assert [json.loads(line)["index"] for line in serial] \
            == list(range(24))
        assert result_lines(PoolBackend(2), "pool.journal") == serial

    def test_reorder_buffer_holds_at_most_the_window(self):
        from repro.runtime import pool as pool_mod
        runner = _runner(corpus.stream_manifest(60, seed=3),
                         backend=PoolBackend(2))
        held, committed = [], []
        commit, pending_tasks = runner.commit, runner.pending_tasks

        def spy(index, outcome, outcomes):
            committed.append(index)
            return commit(index, outcome, outcomes)

        def dispatched():
            # The pool takes each task from here as it dispatches it.
            for index, task in pending_tasks():
                held.append(index - len(committed))
                yield index, task

        runner.commit = spy
        runner.pending_tasks = dispatched
        runner.run()
        assert committed == list(range(60))
        assert max(held) < pool_mod.WINDOW * 2

    def test_slow_head_runs_each_attempt_once(self, tmp_path):
        """Behind a slow head, the pool runs exactly the serial run's
        attempts: one ``_execute`` line each in a log the forked
        workers append to, as many as the summary's ``attempts``.  Its
        ``--stats`` agree with the summary and with serial's breaker
        counters."""
        from repro import obs

        def run(backend):
            log = tmp_path / f"{'serial' if backend is None else 'pool'}"
            runner = _flaky_runner(1, backend, head_s=0.3)
            execute = runner._execute

            def logged(task):
                with open(log, "a") as stream:
                    stream.write(f"{task.id}\n")
                return execute(task)

            runner._execute = logged
            obs.enable()
            obs.reset()
            try:
                summary = runner.run()
                return (summary, obs.snapshot()["counters"],
                        sorted(log.read_text().splitlines()))
            finally:
                obs.reset()
                obs.disable()

        summary, serial, serial_lines = run(None)
        parallel_summary, parallel, parallel_lines = run(PoolBackend(2))
        assert parallel_summary == summary
        attempts = sum(task["attempts"] for task in summary["tasks"])
        assert parallel_lines == serial_lines
        assert len(parallel_lines) == attempts
        for counters in (serial, parallel):
            assert counters["runtime.tasks"] == 16
            assert counters["runtime.attempts"] == attempts
            assert counters["runtime.tasks.ok"] \
                == summary["counts"]["ok"]
            assert counters["runtime.tasks.deadletter"] \
                == summary["counts"]["failed"]
            assert {name: value for name, value in counters.items()
                    if name.startswith("runtime.breaker.")} \
                == {name: value for name, value in serial.items()
                    if name.startswith("runtime.breaker.")}


def _child_pids(pid: int) -> list[int]:
    """Live processes whose parent is ``pid`` (from ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _read_stat(int(entry))
            if stat is not None and int(stat[1]) == pid:
                children.append(int(entry))
    return children


def _read_stat(pid: int) -> list[str] | None:
    """``/proc/PID/stat`` fields after the command name: state, ppid,
    ...; ``None`` once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    return text[text.rindex(")") + 2:].split()


def _exited(pid: int) -> bool:
    # A zombie has exited; whoever adopted it may just not reap it.
    stat = _read_stat(pid)
    return stat is None or stat[0] == "Z"


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestParentDeath:
    def test_workers_exit_after_the_parent_is_sigkilled(self, tmp_path):
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps(
            corpus.generate_manifest(3000, seed=1)))
        env = dict(os.environ)
        env.pop("REPRO_FAULTS", None)  # faults force serial execution
        parent = subprocess.Popen(
            [sys.executable, "-m", "repro", "batch", str(manifest),
             "--workers", "2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            env=env)
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 30
            while len(workers) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                workers = _child_pids(parent.pid)
            assert len(workers) == 2, workers
            time.sleep(0.5)  # let tasks flow through both pipes
        finally:
            parent.send_signal(signal.SIGKILL)
            parent.wait()
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline \
                and not all(map(_exited, workers)):
            time.sleep(0.05)
        lingering = [pid for pid in workers if not _exited(pid)]
        for pid in lingering:
            os.kill(pid, signal.SIGKILL)
        assert not lingering, "workers outlived their SIGKILLed parent"


class TestBudgetFlags:
    """``xnf --max-steps N batch`` bounds each task, not the command: a
    task's outcome is the one it has alone, under any ``--workers``."""

    @staticmethod
    def _batch(capsys, manifest, steps, *flags):
        from repro.cli import main
        main(["--max-steps", str(steps), "batch", str(manifest),
              "--backoff-base", "0", *flags])
        return capsys.readouterr().out

    @pytest.mark.parametrize("steps", [5, 20, 50])
    def test_outcomes_do_not_depend_on_neighbours_or_workers(
            self, tmp_path, capsys, steps):
        payload = corpus.generate_manifest(12, seed=3)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(payload))
        serial = self._batch(capsys, manifest, steps, "--workers", "1")
        parallel = self._batch(capsys, manifest, steps, "--workers", "2")
        assert serial == parallel
        outcomes = json.loads(serial)["tasks"]
        assert any(outcome["status"] == "dead-letter"
                   for outcome in outcomes)
        for task, outcome in zip(payload["tasks"], outcomes):
            alone = tmp_path / f"{task['id']}.json"
            alone.write_text(json.dumps(dict(payload, tasks=[task])))
            assert json.loads(self._batch(capsys, alone, steps))[
                "tasks"] == [outcome]


class TestSerialDelegation:
    def test_runner_without_backend_uses_serial(self):
        manifest = corpus.stream_manifest(3, seed=2)
        runner = _runner(manifest)
        assert isinstance(runner.backend, SerialBackend)

    def test_serial_backend_calls_instance_run_task(self):
        # The serial path must keep dispatching through the runner
        # instance so tests (and subclasses) can patch _run_task.
        manifest = corpus.stream_manifest(2, seed=2)
        runner = _runner(manifest)
        calls = []
        original = runner._run_task

        def spy(task):
            calls.append(task.id)
            return original(task)

        runner._run_task = spy
        runner.run()
        assert calls == ["corpus-0000", "corpus-0001"]
