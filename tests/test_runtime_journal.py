"""Unit tests for the batch write-ahead journal (repro.runtime.journal).

The heavy parent-kill chaos harness lives in
tests/property/test_journal_chaos.py; this file pins the journal
format, the resume contract (including an exhaustive in-process
kill-point sweep at line granularity), the torn-record policy, the
breaker-board reconstruction, and the streaming-manifest skip path.
"""

import json

import pytest

from repro import faults
from repro.errors import InjectedFault, JournalError
from repro.obs import metrics
from repro.runtime import journal as jm
from repro.runtime import manifest as mf
from repro.runtime.batch import BatchRunner, TaskOutcome, run_batch, settle
from repro.runtime.breaker import BreakerBoard
from repro.runtime.retry import RetryPolicy

GOOD_DTD = "<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>"
RESULT = '"record": "result"'  # marks a result line of a journal
BROKEN_DTD = "<!ELEMENT r (unclosed"


@pytest.fixture(autouse=True)
def _no_leaked_plans():
    yield
    faults.teardown()


def _tasks(count=8, bad_every=3):
    return [{"id": f"t{index}", "op": "check",
             "dtd_text": BROKEN_DTD if bad_every
             and index % bad_every == 1 else GOOD_DTD}
            for index in range(count)]


def _manifest(tasks=None):
    return mf.build(tasks if tasks is not None else _tasks(),
                    defaults={"seed": 7})


def _fresh(threshold=2):
    return {"policy": RetryPolicy(backoff_base_ms=0, seed=7),
            "board": BreakerBoard(threshold=threshold)}


def _open(path, manifest, kwargs, **extra):
    extra.setdefault("fsync", False)
    extra.setdefault("warn", lambda message: None)
    return jm.open_journal(str(path), manifest=manifest,
                           policy=kwargs["policy"],
                           board=kwargs["board"], **extra)


def _dumps(summary):
    return json.dumps(summary, indent=2, sort_keys=True)


def _journaled_run(path, tasks=None, threshold=2, resume=False,
                   **extra):
    manifest = _manifest(tasks)
    kwargs = _fresh(threshold=threshold)
    journal = _open(path, manifest, kwargs, resume=resume, **extra)
    try:
        summary = run_batch(manifest, journal=journal, **kwargs)
    finally:
        journal.close()
    return summary, journal


class TestJournalFile:
    def test_meta_record_is_first_and_deterministic(self, tmp_path):
        path = tmp_path / "j.journal"
        _journaled_run(path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        assert meta["record"] == "meta"
        assert meta["schema"] == jm.JOURNAL_SCHEMA
        assert meta["version"] == jm.JOURNAL_VERSION
        assert meta["count"] == 8
        # Deterministic: a second identical run writes identical bytes.
        path2 = tmp_path / "j2.journal"
        _journaled_run(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_one_result_per_task_in_index_order(self, tmp_path):
        path = tmp_path / "j.journal"
        _journaled_run(path)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()[1:]]
        assert [record["record"] for record in records] == ["result"] * 8
        assert [record["index"] for record in records] == list(range(8))

    def test_intent_appends_nothing(self, tmp_path):
        path = tmp_path / "j.journal"
        manifest = _manifest()
        journal = _open(path, manifest, _fresh())
        written = path.read_bytes()
        journal.intent(0, manifest.tasks[0])
        journal.close()
        assert path.read_bytes() == written
        assert journal.appended == 1

    def test_journaled_run_matches_unjournaled_bytes(self, tmp_path):
        base = run_batch(_manifest(), **_fresh())
        summary, _ = _journaled_run(tmp_path / "j.journal")
        assert _dumps(summary) == _dumps(base)


class TestResume:
    def test_full_journal_resume_executes_nothing(self, tmp_path):
        path = tmp_path / "j.journal"
        base, _ = _journaled_run(path)
        metrics.enable()
        metrics.reset()
        try:
            resumed, journal = _journaled_run(path, resume=True)
            assert metrics.counter_value("runtime.tasks") == 0
            assert metrics.counter_value(
                "runtime.journal.skipped") == 8
        finally:
            metrics.reset()
            metrics.disable()
        assert _dumps(resumed) == _dumps(base)
        assert journal.skipped == 8

    def test_every_line_prefix_resumes_to_identical_bytes(
            self, tmp_path):
        """The in-process kill-point sweep: chopping the journal at
        every record boundary — including mid-breaker-open, the
        threshold here is 2 and the manifest trips it — must resume
        to the exact bytes of the uninterrupted run."""
        path = tmp_path / "j.journal"
        base, _ = _journaled_run(path)
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 1 + 8
        for cut in range(len(lines) + 1):
            prefix = tmp_path / f"cut{cut}.journal"
            prefix.write_text("".join(lines[:cut]))
            resumed, _ = _journaled_run(prefix, resume=True)
            assert _dumps(resumed) == _dumps(base), f"cut at {cut}"
            assert resumed["counts"]["lost"] == 0

    def test_torn_trailing_record_is_truncated_and_counted(
            self, tmp_path):
        path = tmp_path / "j.journal"
        base, _ = _journaled_run(path)
        intact = path.read_bytes()
        path.write_bytes(intact[:-9])  # tear the last record mid-byte
        warnings = []
        metrics.enable()
        metrics.reset()
        try:
            resumed, _ = _journaled_run(path, resume=True,
                                        warn=warnings.append)
            assert metrics.counter_value("runtime.journal.torn") == 1
        finally:
            metrics.reset()
            metrics.disable()
        assert any("torn trailing record" in w for w in warnings)
        assert _dumps(resumed) == _dumps(base)
        # The torn tail was physically dropped before re-appending:
        # the healed journal parses end to end.
        state = jm.read_journal(str(path))
        assert not state.torn
        assert len(state.results) == 8

    def test_resume_with_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "absent.journal"
        warnings = []
        resumed, journal = _journaled_run(path, resume=True,
                                          warn=warnings.append)
        assert any("does not exist" in w for w in warnings)
        assert journal.skipped == 0
        assert resumed["counts"]["lost"] == 0
        assert path.exists()

    def test_resume_of_resumed_journal_is_idempotent(self, tmp_path):
        path = tmp_path / "j.journal"
        base, _ = _journaled_run(path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5]))
        first, _ = _journaled_run(path, resume=True)
        second, _ = _journaled_run(path, resume=True)
        assert _dumps(first) == _dumps(base)
        assert _dumps(second) == _dumps(base)


class TestStructuralErrors:
    def _write_journal(self, tmp_path, records):
        path = tmp_path / "j.journal"
        path.write_text("".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in records))
        return path

    def _meta(self, manifest=None, kwargs=None):
        manifest = manifest if manifest is not None else _manifest()
        kwargs = kwargs if kwargs is not None else _fresh()
        return jm.meta_record(manifest, kwargs["policy"],
                              kwargs["board"], "off")

    def test_meta_mismatch_raises(self, tmp_path):
        path = self._write_journal(tmp_path, [self._meta()])
        mismatched = _fresh()
        mismatched["policy"] = RetryPolicy(retries=9,
                                           backoff_base_ms=0, seed=7)
        with pytest.raises(JournalError, match="policy mismatch"):
            _open(path, _manifest(), mismatched, resume=True)

    def test_manifest_count_mismatch_raises(self, tmp_path):
        path = self._write_journal(tmp_path, [self._meta()])
        with pytest.raises(JournalError, match="mismatch"):
            _open(path, _manifest(_tasks(count=5)), _fresh(),
                  resume=True)

    def test_breaker_knob_mismatch_raises(self, tmp_path):
        path = self._write_journal(tmp_path, [self._meta()])
        with pytest.raises(JournalError, match="breaker mismatch"):
            _open(path, _manifest(), _fresh(threshold=99),
                  resume=True)

    def test_bad_json_mid_file_raises(self, tmp_path):
        path = tmp_path / "j.journal"
        path.write_text(json.dumps(self._meta(), sort_keys=True)
                        + "\n{not json\n"
                        + json.dumps(self._result(0, "ok")) + "\n")
        with pytest.raises(JournalError, match="malformed record"):
            jm.read_journal(str(path))

    def test_duplicate_result_raises(self, tmp_path):
        result = {"record": "result", "index": 0, "id": "t0",
                  "op": "check", "dtd_sha": None, "fds_sha": None,
                  "reason": None, "signature": None,
                  "payload": {"id": "t0", "op": "check",
                              "status": "ok", "attempts": 1,
                              "retried": False, "delays_ms": []}}
        path = self._write_journal(
            tmp_path, [self._meta(), result, result])
        with pytest.raises(JournalError, match="duplicate result"):
            jm.read_journal(str(path))

    def test_result_out_of_index_order_raises(self, tmp_path):
        path = self._write_journal(
            tmp_path, [self._meta(), self._result(1, "ok")])
        with pytest.raises(JournalError, match="out of index order"):
            jm.read_journal(str(path))

    @pytest.mark.parametrize("records", [
        # Skipped on a breaker the board never opened.
        [("dead-letter", "breaker_open", 1)],
        # Retried on a breaker the first failure opened.
        [("dead-letter", "retries_exhausted", 3), ("ok", None, 2)],
    ])
    def test_result_the_breakers_contradict_raises(self, tmp_path,
                                                   records):
        results = [self._result(index, *record)
                   for index, record in enumerate(records)]
        path = self._write_journal(tmp_path, [self._meta(kwargs=_fresh(
            threshold=1))] + results)
        with pytest.raises(JournalError, match="disagrees with the "
                                               "circuit breakers"):
            _journaled_run(path, threshold=1, resume=True)

    @staticmethod
    def _result(index, status, reason=None, attempts=1):
        failed = attempts if status != "ok" else attempts - 1
        failures = [{"attempt": attempt, "signature": "site:x",
                     "transient": True, "chain": []}
                    for attempt in range(failed)]
        payload = {"id": f"t{index}", "op": "check", "status": status,
                   "attempts": attempts, "retried": attempts > 1,
                   "delays_ms": [0.0] * (attempts - 1)}
        if failures:
            payload["failures"] = failures
        return {"record": "result", "index": index, "id": f"t{index}",
                "op": "check", "dtd_sha": None, "fds_sha": None,
                "reason": reason,
                "signature": "site:x" if reason else None,
                "payload": payload}

    def test_meta_mid_file_raises(self, tmp_path):
        path = self._write_journal(
            tmp_path, [self._meta(), self._result(0, "ok"), self._meta()])
        with pytest.raises(JournalError, match="only allowed on"):
            jm.read_journal(str(path))

    def test_records_without_meta_raise(self, tmp_path):
        path = self._write_journal(tmp_path, [self._result(0, "ok")])
        with pytest.raises(JournalError,
                           match="first record must be the meta"):
            jm.read_journal(str(path))

    def test_version_1_journal_is_refused_on_resume(self, tmp_path):
        """Version 1 wrote an intent record before every dispatch; no
        code reads one any more, so its journal is refused whole."""
        meta = dict(self._meta(), version=1)
        path = self._write_journal(tmp_path, [
            meta, {"record": "intent", "index": 0, "id": "t0"}])
        with pytest.raises(JournalError, match="journal version 1 "
                           "cannot be resumed, expected version 2"):
            _open(path, _manifest(), _fresh(), resume=True)

    def test_an_intent_record_is_refused(self, tmp_path):
        path = self._write_journal(tmp_path, [
            self._meta(), {"record": "intent", "index": 0, "id": "t0"}])
        with pytest.raises(JournalError, match="record kind"):
            jm.read_journal(str(path))


class TestBreakerReplay:
    def test_transient_faults_board_is_reconstructed(self, tmp_path):
        """Run under an injected-fault storm (retries, opens, skips,
        half-open probes all happen), then resume the complete journal
        with a *fresh* board: no task re-executes — so the fault plan
        cannot diverge — and the summary, breaker snapshot included,
        must reproduce byte-for-byte."""
        path = tmp_path / "j.journal"
        dtd = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
               "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")
        tasks = [{"id": f"t{index}", "op": "check", "dtd_text": dtd,
                  "fds_text": "db.r.@a -> db.r.@b"}
                 for index in range(10)]
        spec = ",".join(["fd.closure.iteration:exception"] * 24)
        manifest = _manifest(tasks)
        kwargs = _fresh(threshold=2)
        journal = _open(path, manifest, kwargs)
        with faults.use(faults.plan_from_spec(spec)):
            base = run_batch(manifest, journal=journal, **kwargs)
        journal.close()
        assert base["breakers"], "storm should have tripped a breaker"
        resumed, _ = _journaled_run(path, tasks=tasks, resume=True)
        assert _dumps(resumed) == _dumps(base)

    def test_worker_crash_outcomes_leave_board_untouched(self):
        outcome = TaskOutcome.from_record({
            "index": 0, "id": "t0", "op": "check",
            "reason": "worker_crash", "signature": "crash:signal-9",
            "payload": {"id": "t0", "op": "check",
                        "status": "dead-letter", "attempts": 2,
                        "retried": True, "delays_ms": [],
                        "failures": [
                            {"attempt": 0,
                             "signature": "crash:signal-9",
                             "transient": True, "chain": []},
                            {"attempt": 1,
                             "signature": "crash:signal-9",
                             "transient": True, "chain": []}]}})
        board = BreakerBoard()
        settle(board, outcome)
        # Crash breaker traffic lives on the pool's private board; the
        # summary board must not see it on replay either.
        assert board.snapshot() == {}


class TestReplayedOutcome:
    def test_rebuilds_the_summary_slice(self, tmp_path):
        path = tmp_path / "j.journal"
        _journaled_run(path)
        state = jm.read_journal(str(path))
        replayed = TaskOutcome.from_record(state.results[1])  # dead-letter
        assert replayed.status == "dead-letter"
        assert not replayed.ok
        letter = replayed.dead_letter()
        assert letter["id"] == "t1"
        assert letter["reason"] == "permanent"
        assert letter["error_chain"]
        # to_json returns a copy: mutating it cannot corrupt a second
        # summarize pass.
        replayed.to_json()["status"] = "mutated"
        assert replayed.status == "dead-letter"

    def test_every_result_record_rebuilds_its_outcome(self, tmp_path):
        """A run that retried, dead-lettered and tripped a breaker: each
        result record rebuilds an outcome that renders the record's
        payload and the summary's dead-letter entry."""
        path = tmp_path / "j.journal"
        dtd = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
               "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")
        tasks = [{"id": f"t{index}", "op": "check",
                  "dtd_text": BROKEN_DTD if index == 9 else dtd,
                  "fds_text": "db.r.@a -> db.r.@b"}
                 for index in range(12)]
        spec = ",".join(["fd.closure.iteration:exception"] * 24)
        manifest = _manifest(tasks)
        kwargs = _fresh(threshold=2)
        journal = _open(path, manifest, kwargs)
        with faults.use(faults.plan_from_spec(spec)):
            summary = run_batch(manifest, journal=journal, **kwargs)
        journal.close()
        letters = {letter["id"]: letter
                   for letter in summary["dead_letters"]}
        assert summary["breakers"]
        assert any(entry["retried"] for entry in summary["tasks"])
        assert {letter["reason"] for letter in letters.values()} \
            >= {"permanent", "breaker_open"}
        results = jm.read_journal(str(path)).results
        assert len(results) == len(tasks)
        for index, record in results.items():
            outcome = TaskOutcome.from_record(record)
            assert outcome.to_json() == record["payload"] \
                == summary["tasks"][index]
            if not outcome.ok:
                assert outcome.dead_letter() == letters[outcome.task.id]

    def test_every_payload_key_survives_the_rebuild(self):
        """A retried success in ensemble check mode carries all three
        optional payload keys: result, failures and disagreements."""
        payload = {"id": "t0", "op": "check", "status": "ok",
                   "attempts": 2, "retried": True, "delays_ms": [12.5],
                   "result": {"in_xnf": True, "violations": []},
                   "failures": [{"attempt": 0, "signature": "site:x",
                                 "transient": True, "chain": []}],
                   "disagreements": [{"query": "db.r.@a -> db.r",
                                      "verdicts": {"closure": "YES",
                                                   "chase": "NO",
                                                   "brute": "skipped"},
                                      "resolved_with": "chase"}]}
        outcome = TaskOutcome.from_record({
            "record": "result", "index": 0, "id": "t0", "op": "check",
            "dtd_sha": None, "fds_sha": None, "reason": None,
            "signature": None, "payload": payload})
        assert outcome.to_json() == payload


class TestStreamingResume:
    def test_10k_stream_resumed_at_7k_skips_completed(
            self, tmp_path, monkeypatch):
        """Satellite: a streaming manifest resumed deep into the run
        must not re-materialize or re-validate the completed prefix —
        pinned by counting ``_build_task`` calls and the
        ``runtime.journal.skipped`` counter."""
        total, done = 10_000, 7_000
        manifest_path = tmp_path / "big.jsonl"
        with open(manifest_path, "w") as stream:
            stream.write(json.dumps(
                {"schema": "repro.runtime.manifest", "version": 1,
                 "defaults": {"seed": 7}, "count": total}) + "\n")
            for index in range(total):
                stream.write(json.dumps(
                    {"id": f"s-{index:05d}", "op": "check",
                     "dtd_text": GOOD_DTD}) + "\n")
        manifest = mf.load(str(manifest_path))
        kwargs = _fresh()
        # Fabricate the journal of a run killed after `done` tasks.
        path = tmp_path / "big.journal"
        with open(path, "w") as stream:
            stream.write(json.dumps(
                jm.meta_record(manifest, kwargs["policy"],
                               kwargs["board"], "off"),
                sort_keys=True) + "\n")
            for index in range(done):
                task_id = f"s-{index:05d}"
                stream.write(json.dumps(
                    {"record": "result", "index": index,
                     "id": task_id, "op": "check", "dtd_sha": None,
                     "fds_sha": None, "reason": None,
                     "signature": None,
                     "payload": {"id": task_id, "op": "check",
                                 "status": "ok", "attempts": 1,
                                 "retried": False, "delays_ms": [],
                                 "result": {"in_xnf": True,
                                            "violations": []}}},
                    sort_keys=True) + "\n")
        built = []
        original = mf._build_task

        def counting_build(raw, index, *rest):
            built.append(index)
            return original(raw, index, *rest)

        monkeypatch.setattr(mf, "_build_task", counting_build)
        metrics.enable()
        metrics.reset()
        journal = _open(path, manifest, kwargs, resume=True)
        try:
            summary = run_batch(manifest, journal=journal, **kwargs)
            assert metrics.counter_value(
                "runtime.journal.skipped") == done
        finally:
            metrics.reset()
            metrics.disable()
            journal.close()
        assert summary["counts"] == {"total": total, "ok": total,
                                     "failed": 0, "lost": 0}
        assert len(built) == total - done
        assert min(built) == done


class TestPoolResume:
    @staticmethod
    def _flaky_run(path, threshold, backend=None, resume=False):
        """A journaled run of 12 tasks on which two in three fail
        transiently, on every attempt or (every fourth) on the first
        only: breakers trip, skip, probe, close and trip again."""
        manifest = _manifest(_tasks(count=12, bad_every=0))
        kwargs = {"policy": RetryPolicy(backoff_base_ms=0, seed=7),
                  "board": BreakerBoard(threshold=threshold,
                                        probe_interval=2)}
        journal = _open(path, manifest, kwargs, resume=resume)
        runner = BatchRunner(manifest, backend=backend, journal=journal,
                             sleeper=lambda ms: None, **kwargs)
        real = runner._attempt

        def attempt(task, outcome):
            index = int(task.id[1:])
            if index % 3 and (index % 4 != 3 or outcome.attempts == 1):
                raise InjectedFault("test.flaky", "exception")
            return real(task, outcome)

        # Fork shares the patched method with the workers.
        runner._attempt = attempt
        try:
            return runner.run()
        finally:
            journal.close()

    def test_pool_prefix_resume_matches_serial_bytes(self, tmp_path):
        """The every-prefix kill-point sweep on ``PoolBackend(2)``:
        the pool journal's result lines are the serial journal's, and
        resuming any line prefix of it on the pool reproduces the
        uninterrupted serial summary, breakers included."""
        pool_mod = pytest.importorskip("repro.runtime.pool")
        if not pool_mod.pool_available():
            pytest.skip("fork start method unavailable")
        for threshold in (1, 2):
            serial_path = tmp_path / f"serial{threshold}.journal"
            base = self._flaky_run(serial_path, threshold)
            assert base["breakers"]["site:test.flaky"]["trips"] >= 1
            path = tmp_path / f"pool{threshold}.journal"
            pooled = self._flaky_run(path, threshold,
                                     pool_mod.PoolBackend(2))
            assert _dumps(pooled) == _dumps(base)
            lines = path.read_text().splitlines(keepends=True)
            assert [line for line in lines if RESULT in line] \
                == [line for line in serial_path.read_text()
                    .splitlines(keepends=True) if RESULT in line]
            for cut in range(len(lines) + 1):
                prefix = tmp_path / f"cut{threshold}-{cut}.journal"
                prefix.write_text("".join(lines[:cut]))
                resumed = self._flaky_run(prefix, threshold,
                                          pool_mod.PoolBackend(2),
                                          resume=True)
                assert _dumps(resumed) == _dumps(base), \
                    f"threshold {threshold}, cut at {cut}"


class TestGroupCommit:
    """Each result is written and flushed as it commits; ``sync``
    fsyncs what was appended since its last call.  The serial loop syncs
    after every commit, the pool once per pass of its supervision loop,
    before it waits, and ``close`` last."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_result_waits_unsynced(self, tmp_path, monkeypatch,
                                      workers):
        """With ``os.fsync`` and ``multiprocessing.connection.wait``
        spied in the parent: at every wait that can block, and after
        ``close``, the journal file holds no byte that the last fsync
        did not cover.  The pool fsyncs fewer times than it appends,
        serial once per append, and ``runtime.journal.synced`` counts
        each fsync."""
        import os
        from multiprocessing import connection

        from repro.runtime.pool import PoolBackend, pool_available
        if workers > 1 and not pool_available():
            pytest.skip("fork start method unavailable")
        path = tmp_path / "j.journal"
        synced, unsynced_waits = [], []
        real_fsync, real_wait = os.fsync, connection.wait

        def fsync(fd):
            real_fsync(fd)
            synced.append(os.fstat(fd).st_size)

        def wait(object_list, timeout=None):
            if timeout != 0 and path.stat().st_size != synced[-1]:
                unsynced_waits.append(path.stat().st_size - synced[-1])
            return real_wait(object_list, timeout)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(connection, "wait", wait)
        manifest = _manifest(_tasks(count=40))
        kwargs = _fresh()
        metrics.enable()
        metrics.reset()
        try:
            journal = _open(path, manifest, kwargs, fsync=True)
            try:
                summary = run_batch(
                    manifest, journal=journal, **kwargs,
                    backend=PoolBackend(workers) if workers > 1 else None)
            finally:
                journal.close()
            counters = metrics.snapshot()["counters"]
        finally:
            metrics.reset()
            metrics.disable()
        assert summary["counts"]["total"] == 40
        assert unsynced_waits == []
        assert synced[-1] == path.stat().st_size
        assert journal.appended == 41
        assert counters["runtime.journal.appended"] == 41
        assert counters["runtime.journal.synced"] == len(synced)
        if workers > 1:
            assert len(synced) < journal.appended
        else:
            assert len(synced) == journal.appended
