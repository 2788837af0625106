"""Unit tests for the batch run ledger (repro.obs.ledger)."""

from __future__ import annotations

import io
import json

import pytest

from repro.obs import ledger as ledger_mod
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    LEDGER_VERSION,
    LedgerError,
    LedgerWriter,
    counters_digest,
    fingerprint,
    group_runs,
    read_ledger,
    regress,
    render_history,
)
from repro.runtime.batch import TaskOutcome
from repro.runtime.manifest import Manifest, Task

DTD = "<!ELEMENT db (a*)>\n<!ELEMENT a EMPTY>\n<!ATTLIST a x CDATA #IMPLIED>"
FDS = "db.a.@x -> db.a"


def make_task(task_id="t-1", **overrides):
    fields = dict(id=task_id, op="check", dtd_text=DTD, fds_text=FDS)
    fields.update(overrides)
    return Task(**fields)


def make_manifest(tasks=None, *, seed=7, source="m.json"):
    tasks = [make_task()] if tasks is None else tasks
    return Manifest(tasks=tasks, seed=seed, source=source)


def make_outcome(task=None, *, status="ok", attempts=1, reason=None,
                 wall_s=0.010, counter_delta=None):
    return TaskOutcome(task=task or make_task(), status=status,
                       attempts=attempts, reason=reason, wall_s=wall_s,
                       counter_delta=counter_delta or {})


class TestFingerprints:
    def test_fingerprint_stable_and_short(self):
        assert fingerprint("abc") == fingerprint("abc")
        assert len(fingerprint("abc")) == 12
        assert fingerprint("abc") != fingerprint("abd")
        assert fingerprint(None) is None

    def test_counters_digest_order_independent(self):
        assert counters_digest({"a": 1, "b": 2}) \
            == counters_digest({"b": 2, "a": 1})
        assert counters_digest({"a": 1}) != counters_digest({"a": 2})
        assert counters_digest({}) is None


class TestLedgerWriter:
    def test_record_schema(self):
        stream = io.StringIO()
        writer = LedgerWriter(stream, manifest=make_manifest(),
                              run="abcdef123456", clock=lambda: 1000.5)
        writer.task_done(make_outcome(
            counter_delta={"chase.steps": 3}))
        record = json.loads(stream.getvalue())
        assert record == {
            "schema": LEDGER_SCHEMA, "version": LEDGER_VERSION,
            "run": "abcdef123456", "ts": 1000.5,
            "manifest": "m.json",
            "manifest_sha": fingerprint("m.json:7:1"),
            "seed": 7, "task": "t-1", "op": "check",
            "dtd_sha": fingerprint(DTD), "fds_sha": fingerprint(FDS),
            "verdict": "ok", "reason": None, "retries": 0,
            "wall_ms": 10.0,
            "counters_sha": counters_digest({"chase.steps": 3}),
        }
        assert writer.records_written == 1

    def test_dead_letter_and_retries(self):
        stream = io.StringIO()
        writer = LedgerWriter(stream, manifest=make_manifest())
        writer.task_done(make_outcome(status="dead-letter",
                                      attempts=3, reason="timeout"))
        record = json.loads(stream.getvalue())
        assert record["verdict"] == "dead-letter"
        assert record["reason"] == "timeout"
        assert record["retries"] == 2
        assert record["counters_sha"] is None

    def test_random_run_ids_differ(self):
        manifest = make_manifest()
        first = LedgerWriter(io.StringIO(), manifest=manifest)
        second = LedgerWriter(io.StringIO(), manifest=manifest)
        assert first.run != second.run
        assert len(first.run) == 12

    def test_each_record_is_one_flushed_line(self):
        stream = io.StringIO()
        writer = LedgerWriter(stream, manifest=make_manifest())
        writer.task_done(make_outcome())
        writer.task_done(make_outcome(make_task("t-2")))
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["schema"] == LEDGER_SCHEMA
                   for line in lines)


class TestReadLedger:
    def _write(self, tmp_path, lines):
        path = tmp_path / "ledger.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return path

    def _record(self, **overrides):
        record = {"schema": LEDGER_SCHEMA, "version": LEDGER_VERSION,
                  "run": "r1", "task": "t-1", "verdict": "ok",
                  "retries": 0, "wall_ms": 1.0}
        record.update(overrides)
        return record

    def test_round_trip(self, tmp_path):
        path = self._write(tmp_path, [json.dumps(self._record())])
        assert read_ledger(path)[0]["task"] == "t-1"

    def test_missing_file(self, tmp_path):
        with pytest.raises(LedgerError, match="cannot read"):
            read_ledger(tmp_path / "absent.jsonl")

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, [""])
        with pytest.raises(LedgerError, match="no ledger records"):
            read_ledger(path)

    def test_bad_json_mid_file_still_raises(self, tmp_path):
        # Single-write appends cannot tear mid-file: bad JSON followed
        # by more records means the file was edited, not crashed on.
        path = self._write(tmp_path, ["{not json",
                                      json.dumps(self._record())])
        with pytest.raises(LedgerError, match="not valid JSON"):
            read_ledger(path)

    def test_torn_trailing_record_skipped(self, tmp_path, capsys):
        # The crash-mid-append shape: a complete record, then the last
        # record truncated mid-byte.  Readers keep the good prefix.
        good = json.dumps(self._record())
        torn = json.dumps(self._record(task="t-2"))[:-9]
        path = tmp_path / "ledger.jsonl"
        path.write_text(good + "\n" + torn)
        records = read_ledger(path)
        assert [record["task"] for record in records] == ["t-1"]
        assert "torn trailing record" in capsys.readouterr().err

    def test_torn_trailing_record_counted(self, tmp_path):
        from repro.obs import metrics
        good = json.dumps(self._record())
        path = tmp_path / "ledger.jsonl"
        path.write_text(good + "\n" + good[:-7])
        was_enabled = metrics.enabled
        metrics.enable()
        metrics.reset()
        try:
            read_ledger(path)
            assert metrics.counter_value("obs.ledger.torn") == 1
        finally:
            metrics.reset()
            if not was_enabled:
                metrics.disable()

    def test_only_record_torn_means_empty(self, tmp_path):
        # The torn line is skipped first; the no-records error stands.
        torn = json.dumps(self._record())[:-5]
        path = self._write(tmp_path, [torn])
        with pytest.raises(LedgerError, match="no ledger records"):
            read_ledger(path)

    def test_foreign_schema(self, tmp_path):
        path = self._write(
            tmp_path, [json.dumps(self._record(schema="other"))])
        with pytest.raises(LedgerError, match="schema"):
            read_ledger(path)

    def test_future_version(self, tmp_path):
        path = self._write(
            tmp_path, [json.dumps(self._record(version=99))])
        with pytest.raises(LedgerError, match="version"):
            read_ledger(path)

    def test_missing_key(self, tmp_path):
        record = self._record()
        del record["wall_ms"]
        path = self._write(tmp_path, [json.dumps(record)])
        with pytest.raises(LedgerError, match="wall_ms"):
            read_ledger(path)

    @pytest.mark.parametrize("key, value", [
        ("run", 7), ("task", None), ("verdict", 1), ("retries", "0"),
        ("retries", True), ("wall_ms", "12"), ("reason", 3),
        ("counters_sha", []),
    ])
    def test_mistyped_field(self, tmp_path, key, value):
        path = self._write(
            tmp_path, [json.dumps(self._record(**{key: value}))])
        with pytest.raises(LedgerError, match=f"{key!r} has the wrong"):
            read_ledger(path)

    def test_group_runs_first_appearance_order(self):
        records = [self._record(run=run)
                   for run in ("r1", "r2", "r1", "r3")]
        assert list(group_runs(records)) == ["r1", "r2", "r3"]


def ledger_records(runs):
    """Build records from {run: {task: (verdict, retries, wall_ms)}}
    (dicts preserve insertion order = run order)."""
    records = []
    for run, tasks in runs.items():
        for task, (verdict, retries, wall_ms) in tasks.items():
            records.append({
                "schema": LEDGER_SCHEMA, "version": LEDGER_VERSION,
                "run": run, "ts": 0.0, "task": task, "op": "check",
                "verdict": verdict, "reason": None,
                "retries": retries, "wall_ms": wall_ms,
                "counters_sha": "aaaa" if verdict == "ok" else None})
    return records


class TestRegress:
    def test_clean_pass(self):
        records = ledger_records({
            "base": {"t-1": ("ok", 0, 10.0), "t-2": ("ok", 0, 20.0)},
            "curr": {"t-1": ("ok", 0, 10.2), "t-2": ("ok", 0, 19.9)}})
        findings = regress(records)
        assert findings == []

    def test_single_task_slowdown_flagged(self):
        # The acceptance scenario: one task slows 2x while its
        # siblings hold steady.
        records = ledger_records({
            "base": {"t-1": ("ok", 0, 10.0), "t-2": ("ok", 0, 20.0),
                     "t-3": ("ok", 0, 30.0)},
            "curr": {"t-1": ("ok", 0, 10.0), "t-2": ("ok", 0, 40.0),
                     "t-3": ("ok", 0, 30.0)}})
        findings = regress(records)
        assert [f.severity for f in findings] == ["regression"]
        assert findings[0].benchmark == "t-2"
        assert "wall time" in findings[0].detail

    def test_uniform_slowdown_normalised_out(self):
        # A uniformly 2x slower machine is scale, not regression.
        records = ledger_records({
            "base": {"t-1": ("ok", 0, 10.0), "t-2": ("ok", 0, 20.0),
                     "t-3": ("ok", 0, 30.0)},
            "curr": {"t-1": ("ok", 0, 20.0), "t-2": ("ok", 0, 40.0),
                     "t-3": ("ok", 0, 60.0)}})
        assert regress(records) == []
        # ... unless --absolute opts out of the normalisation.
        findings = regress(records, absolute=True)
        assert [f.severity for f in findings] == ["regression"] * 3

    def test_min_wall_floor_silences_fast_tasks(self):
        records = ledger_records({
            "base": {"t-1": ("ok", 0, 0.010), "t-2": ("ok", 0, 9.0)},
            "curr": {"t-1": ("ok", 0, 0.030), "t-2": ("ok", 0, 9.0)}})
        assert regress(records) == []
        findings = regress(records, min_wall_ms=0.001)
        assert [f.benchmark for f in findings
                if f.severity == "regression"] == ["t-1"]

    def test_min_wall_floor_applies_to_the_baseline_side(self):
        # A sub-floor baseline cannot anchor a ratio: a 0.01 ms task
        # that hiccups to 5 ms is scheduling noise, not a slowdown.
        records = ledger_records({
            "base": {"t-1": ("ok", 0, 0.010), "t-2": ("ok", 0, 9.0)},
            "curr": {"t-1": ("ok", 0, 5.000), "t-2": ("ok", 0, 9.0)}})
        assert regress(records) == []

    def test_verdict_flip_is_regression(self):
        records = ledger_records({
            "base": {"t-1": ("ok", 0, 10.0)},
            "curr": {"t-1": ("dead-letter", 2, 10.0)}})
        findings = regress(records)
        severities = {f.severity for f in findings}
        assert "regression" in severities
        assert any("verdict flipped" in f.detail for f in findings)

    def test_recovery_and_new_task_are_notes(self):
        records = ledger_records({
            "base": {"t-1": ("dead-letter", 2, 10.0)},
            "curr": {"t-1": ("ok", 0, 10.0),
                     "t-9": ("ok", 0, 5.0)}})
        findings = regress(records)
        assert all(f.severity in ("note", "advisory")
                   for f in findings)
        assert any("recovered" in f.detail for f in findings)
        assert any(f.benchmark == "t-9" and "new task" in f.detail
                   for f in findings)

    def test_retry_growth_is_advisory(self):
        records = ledger_records({
            "base": {"t-1": ("ok", 0, 10.0)},
            "curr": {"t-1": ("ok", 2, 10.0)}})
        findings = regress(records)
        assert [f.severity for f in findings] == ["advisory"]
        assert "retries grew 0 -> 2" in findings[0].detail

    def test_missing_baseline_task_is_structural(self):
        records = ledger_records({
            "base": {"t-1": ("ok", 0, 10.0), "t-2": ("ok", 0, 5.0)},
            "curr": {"t-1": ("ok", 0, 10.0)}})
        with pytest.raises(LedgerError, match="missing baseline"):
            regress(records)

    def test_single_run_without_baseline_is_structural(self):
        records = ledger_records({"only": {"t-1": ("ok", 0, 10.0)}})
        with pytest.raises(LedgerError, match="no baseline"):
            regress(records)

    def test_external_baseline_file(self):
        baseline = ledger_records({
            "b1": {"t-1": ("ok", 0, 10.0)},
            "b2": {"t-1": ("ok", 0, 12.0)}})
        current = ledger_records({"c": {"t-1": ("ok", 0, 50.0)}})
        findings = regress(current, baseline_records=baseline,
                           absolute=True)
        assert [f.severity for f in findings] == ["regression"]
        # Median of the baseline runs (11.0 ms) is the reference.
        assert "11.000 -> 50.000" in findings[0].detail

    def test_median_baseline_resists_one_noisy_run(self):
        baseline = ledger_records({
            "b1": {"t-1": ("ok", 0, 10.0)},
            "b2": {"t-1": ("ok", 0, 500.0)},  # one outlier run
            "b3": {"t-1": ("ok", 0, 11.0)}})
        current = ledger_records({"c": {"t-1": ("ok", 0, 11.5)}})
        assert regress(current, baseline_records=baseline,
                       absolute=True) == []


class TestRenderHistory:
    def test_per_run_summary(self):
        records = ledger_records({
            "run-a": {"t-1": ("ok", 0, 10.0),
                      "t-2": ("dead-letter", 2, 5.0)},
            "run-b": {"t-1": ("ok", 1, 11.0),
                      "t-2": ("ok", 0, 5.0)}})
        text = render_history(records)
        lines = text.splitlines()
        assert "2 run(s), 4 record(s)" in lines[0]
        assert "run run-a" in lines[1] and "dead-letter 1" in lines[1]
        assert "run run-b" in lines[2] and "retries 1" in lines[2]

    def test_per_task_rows_and_limit(self):
        records = ledger_records({
            "run-a": {"t-1": ("ok", 0, 10.0)},
            "run-b": {"t-1": ("ok", 0, 11.0)},
            "run-c": {"t-1": ("ok", 0, 12.0)}})
        text = render_history(records, task="t-1", limit=2)
        lines = text.splitlines()
        assert "task t-1" in lines[0]
        assert len(lines) == 3  # header + last 2 runs
        assert "run run-b" in lines[1]
        assert "run run-c" in lines[2]

    def test_unknown_task(self):
        records = ledger_records({"r": {"t-1": ("ok", 0, 1.0)}})
        with pytest.raises(LedgerError, match="no run"):
            render_history(records, task="t-404")


class TestCli:
    def _ledger_file(self, tmp_path, runs):
        path = tmp_path / "ledger.jsonl"
        path.write_text("".join(json.dumps(record) + "\n"
                                for record in ledger_records(runs)))
        return path

    def test_history_exit_zero(self, tmp_path, capsys):
        from repro.cli import main
        path = self._ledger_file(
            tmp_path, {"r": {"t-1": ("ok", 0, 1.0)}})
        assert main(["obs", "history", str(path)]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_regress_exit_codes(self, tmp_path, capsys):
        from repro.cli import main
        path = self._ledger_file(tmp_path, {
            "base": {"t-1": ("ok", 0, 10.0), "t-2": ("ok", 0, 20.0)},
            "curr": {"t-1": ("ok", 0, 10.0), "t-2": ("ok", 0, 60.0)}})
        assert main(["obs", "regress", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(["obs", "regress", str(path), "--tolerance", "400"]) == 0

    def test_regress_structural_exit_two(self, tmp_path, capsys):
        from repro.cli import main
        path = self._ledger_file(
            tmp_path, {"only": {"t-1": ("ok", 0, 1.0)}})
        assert main(["obs", "regress", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["history", "regress"])
    def test_mistyped_ledger_exit_two(self, tmp_path, capsys, command):
        from repro.cli import main
        path = self._ledger_file(tmp_path, {
            "base": {"t-1": ("ok", 0, 10.0)},
            "curr": {"t-1": ("ok", 0, 10.0)}})
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        record["wall_ms"] = "12"
        path.write_text("\n".join(lines[:-1] + [json.dumps(record)])
                        + "\n")
        assert main(["obs", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "'wall_ms' has the wrong type str" in err
        assert "Traceback" not in err

    def test_unreadable_ledger_exit_two(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["obs", "history", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestTornLedgerAcrossRuns:
    """A batch killed mid-record leaves a fragment; the next run's
    records must not splice onto it."""

    def test_next_run_cuts_the_fragment_and_history_reads_two_runs(
            self, tmp_path, capsys):
        from repro.cli import main
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"schema": "repro.runtime.manifest", "version": 1,
             "tasks": [{"id": f"t{index}", "op": "check",
                        "dtd_text": DTD, "fds_text": FDS}
                       for index in range(3)]}))
        ledger = tmp_path / "runs.jsonl"
        assert main(["batch", str(manifest), "--ledger", str(ledger)]) == 0
        ledger.write_bytes(ledger.read_bytes()[:-9])  # the killed run
        capsys.readouterr()
        assert main(["batch", str(manifest), "--ledger", str(ledger)]) == 0
        assert "torn trailing record" in capsys.readouterr().err
        assert main(["obs", "history", str(ledger)]) == 0
        assert "2 run(s), 5 record(s)" in capsys.readouterr().out
        assert [record["task"] for record in read_ledger(ledger)] \
            == ["t0", "t1", "t0", "t1", "t2"]


class TestSpecFingerprints:
    def test_journal_and_ledger_share_one_hash_per_task(
            self, tmp_path, monkeypatch):
        from repro.runtime import manifest as manifest_mod
        from repro.runtime.batch import run_batch
        from repro.runtime.breaker import BreakerBoard
        from repro.runtime.journal import open_journal
        from repro.runtime.retry import RetryPolicy
        (tmp_path / "s.dtd").write_text(DTD)
        (tmp_path / "s.fds").write_text(FDS)
        tasks = [make_task("inline"),
                 make_task("files", dtd_text=None, fds_text=None,
                           dtd_path=str(tmp_path / "s.dtd"),
                           fds_path=str(tmp_path / "s.fds")),
                 make_task("missing", dtd_text=None,
                           dtd_path=str(tmp_path / "absent.dtd"))]
        manifest = make_manifest(tasks)
        hashed = []
        real = manifest_mod.fingerprint
        monkeypatch.setattr(manifest_mod, "fingerprint",
                            lambda text: hashed.append(text) or real(text))
        policy = RetryPolicy(backoff_base_ms=0, seed=7)
        journal_path = tmp_path / "run.journal"
        journal = open_journal(str(journal_path), manifest=manifest,
                               policy=policy, board=BreakerBoard(),
                               fsync=False)
        stream = io.StringIO()
        writer = LedgerWriter(stream, manifest=manifest)
        try:
            run_batch(manifest, policy=policy, board=BreakerBoard(),
                      on_task_done=writer.task_done, journal=journal)
        finally:
            journal.close()
        results = {record["id"]: record for record in map(
            json.loads, journal_path.read_text().splitlines())
            if record["record"] == "result"}
        ledger = {record["task"]: record for record in map(
            json.loads, stream.getvalue().splitlines())}
        assert sorted(results) == sorted(ledger) \
            == ["files", "inline", "missing"]
        for task, record in ledger.items():
            assert (results[task]["dtd_sha"], results[task]["fds_sha"]) \
                == (record["dtd_sha"], record["fds_sha"])
        assert results["missing"]["dtd_sha"] is None
        assert ledger["files"]["dtd_sha"] == fingerprint(DTD)
        # Each readable spec text was hashed once, not once per writer,
        # and so was the manifest's identity.
        assert sorted(hashed) == sorted([DTD, FDS, DTD, FDS, FDS,
                                         "m.json:7:3"])
