"""One record-file rule for five files (repro.records).

The batch journal, the run ledger, batch heartbeats, span traces and
normalization checkpoints share one append, one torn-tail rule and one
repair.  Each test here runs over all five, written by their real
writers and read back by their real readers:

* a cut at every byte offset inside the last record reads back as
  exactly the intact prefix, with one torn warning (heartbeat
  validation, which checks finished files, rejects the cut instead);
* a cut file appended to once more reads whole;
* a cut inside an earlier line raises the reader's own error class;
* ``os.fsync`` runs exactly where each file promises it.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro import records
from repro.cli import main
from repro.errors import CheckpointError, JournalError
from repro.datasets.generators import scaled_university_spec
from repro.normalize import checkpoint as ck
from repro.normalize.algorithm import normalize
from repro.obs import metrics
from repro.obs.ledger import LedgerError, LedgerWriter, read_ledger
from repro.obs.profile import TraceError, load_trace
from repro.runtime import journal as jm
from repro.runtime import manifest as mf
from repro.runtime.batch import TaskOutcome, run_batch
from repro.runtime.breaker import BreakerBoard
from repro.runtime.heartbeat import HeartbeatWriter, validate_heartbeat_lines
from repro.runtime.retry import RetryPolicy

DTD = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
       "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")
FDS = "db.r.@a -> db.r.@b"
TASKS = [{"id": f"t{index}", "op": "check", "dtd_text": DTD,
          "fds_text": FDS} for index in range(3)]
TORN = "torn trailing record"


def _manifest():
    return mf.build(TASKS, defaults={"seed": 7})


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class Journal:
    error = JournalError

    def __init__(self):
        self.warnings = []

    def _run(self, path, *, resume):
        manifest = _manifest()
        policy = RetryPolicy(backoff_base_ms=0, seed=7)
        journal = jm.open_journal(str(path), manifest=manifest,
                                  policy=policy, board=BreakerBoard(),
                                  resume=resume,
                                  warn=self.warnings.append)
        try:
            run_batch(manifest, policy=policy, board=BreakerBoard(),
                      journal=journal)
        finally:
            journal.close()
        return journal

    def write(self, path):
        self._run(path, resume=False)
        return _lines(path)

    @staticmethod
    def view(intact):
        results = {r["index"] for r in intact if r["record"] == "result"}
        intents = {r["index"] for r in intact if r["record"] == "intent"}
        return sorted(results), len(intents - results)

    def read(self, path):
        journal = jm.open_journal(
            str(path), manifest=_manifest(),
            policy=RetryPolicy(backoff_base_ms=0, seed=7),
            board=BreakerBoard(), resume=True, fsync=False,
            warn=self.warnings.append)
        journal.close()
        return sorted(journal.completed_indices), journal.in_flight

    def torn_warnings(self, capsys):
        count = sum(TORN in warning for warning in self.warnings)
        self.warnings.clear()
        return count

    def append(self, path):
        self._run(path, resume=True)


class Ledger:
    error = LedgerError

    def write(self, path):
        with open(path, "a+") as stream:
            writer = LedgerWriter(stream, manifest=_manifest())
            for task in _manifest().tasks:
                writer.task_done(TaskOutcome(task=task, status="ok",
                                             attempts=1, wall_s=0.001))
        return _lines(path)

    view = staticmethod(list)

    def read(self, path):
        return read_ledger(path)

    def torn_warnings(self, capsys):
        return capsys.readouterr().err.count(TORN)

    def append(self, path):
        self.write(path)


class Trace:
    error = TraceError

    def write(self, path):
        spec = tuple(map(str, _spec_files(path.parent)))
        assert main(["--trace", str(path), "check", *spec]) == 1
        return _lines(path)

    view = staticmethod(list)

    def read(self, path):
        return load_trace(path)

    torn_warnings = Ledger.torn_warnings


class Checkpoint:
    error = CheckpointError

    def write(self, path):
        spec = scaled_university_spec(3)
        self.saved = []

        def save(checkpoint):
            self.saved.append(checkpoint)
            ck.save(path, checkpoint)
        normalize(spec.dtd, list(spec.sigma), on_step=save)
        return _lines(path)

    @staticmethod
    def view(intact):
        return intact[-1]

    def read(self, path):
        return ck.load(path).record()

    torn_warnings = Ledger.torn_warnings

    def append(self, path):
        ck.save(path, self.saved[-1])


class Heartbeat:
    error = ValueError

    def write(self, path):
        with open(path, "w") as stream:
            writer = HeartbeatWriter(stream, total=3, interval_s=0)
            for task in _manifest().tasks:
                writer.task_done(TaskOutcome(task=task, status="ok",
                                             attempts=1))
        return _lines(path)

    def read(self, path):
        return validate_heartbeat_lines(path.read_text())


def _spec_files(directory):
    dtd, fds = directory / "s.dtd", directory / "s.fds"
    dtd.write_text(DTD)
    fds.write_text(FDS + "\n")
    return dtd, fds


READERS = {"journal": Journal, "ledger": Ledger, "trace": Trace,
           "checkpoint": Checkpoint}
KINDS = {**READERS, "heartbeat": Heartbeat}
APPENDERS = ["journal", "ledger", "checkpoint"]


def _written(kind, tmp_path, name):
    path = tmp_path / name
    written = kind.write(path)
    assert len(written) >= 3
    return path, path.read_bytes(), written


def _last_record_start(data):
    return data.rstrip(b"\n").rfind(b"\n") + 1


@pytest.mark.parametrize("name", sorted(READERS))
def test_every_cut_in_the_last_record_reads_the_intact_prefix(
        tmp_path, capsys, name):
    kind = READERS[name]()
    path, data, written = _written(kind, tmp_path, f"f.{name}")
    kind.torn_warnings(capsys)
    expected = kind.view(written[:-1])
    start = _last_record_start(data)
    for cut in range(start + 1, len(data)):
        path.write_bytes(data[:cut])
        assert kind.read(path) == expected, f"cut at {cut}"
        assert kind.torn_warnings(capsys) == 1, f"cut at {cut}"


def test_heartbeat_validation_rejects_every_cut_in_the_last_record(
        tmp_path):
    kind = Heartbeat()
    path, data, written = _written(kind, tmp_path, "f.heartbeat")
    start = _last_record_start(data)
    # The last cut leaves a whole record short of its newline only:
    # validate_heartbeat_lines takes joined lines, so it reads whole.
    for cut in range(start + 1, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError, match=f"line {len(written)}"):
            kind.read(path)
    path.write_bytes(data[:-1])
    assert kind.read(path) == written


@pytest.mark.parametrize("name", APPENDERS)
def test_a_cut_file_appended_to_once_more_reads_whole(tmp_path, capsys,
                                                      name):
    kind = READERS[name]()
    path, data, written = _written(kind, tmp_path, f"f.{name}")
    start = _last_record_start(data)
    for cut in sorted({start + 1, (start + len(data)) // 2,
                       len(data) - 1}):
        path.write_bytes(data[:cut])
        kind.append(path)
        assert records.read(path, error=AssertionError).torn is None
        kind.torn_warnings(capsys)
        if name == "journal":
            assert not jm.read_journal(str(path)).torn
            assert kind.read(path) == ([0, 1, 2], 0)
        elif name == "ledger":
            assert len(read_ledger(path)) == 2 * len(written) - 1
        else:
            assert kind.read(path) == written[-1]
        assert kind.torn_warnings(capsys) == 0
        path.write_bytes(data)


@pytest.mark.parametrize("name", sorted(KINDS))
def test_a_cut_inside_an_earlier_line_is_structural(tmp_path, name):
    kind = KINDS[name]()
    path, data, _written_records = _written(kind, tmp_path, f"f.{name}")
    lines = data.splitlines(keepends=True)
    lines[1] = lines[1][:len(lines[1]) // 2] + b"\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(kind.error, match="malformed record"):
        kind.read(path)


def test_the_ledger_writer_cuts_a_torn_tail_with_a_counted_warning(
        tmp_path, capsys):
    path, data, written = _written(Ledger(), tmp_path, "runs.jsonl")
    path.write_bytes(data[:-9])
    capsys.readouterr()
    metrics.enable()
    metrics.reset()
    try:
        with open(path, "a+") as stream:
            LedgerWriter(stream, manifest=_manifest())
        assert metrics.counter_value("obs.ledger.torn") == 1
    finally:
        metrics.reset()
        metrics.disable()
    assert capsys.readouterr().err.count(TORN) == 1
    assert path.read_bytes() == data[:_last_record_start(data)]


def test_repair_cuts_a_readable_stream_and_leaves_a_write_only_one():
    stream = io.StringIO("{}\n{tor")
    assert records.repair(stream)
    assert stream.getvalue() == "{}\n"
    with open(os.devnull, "a") as write_only:
        assert not records.repair(write_only)


class TestFsync:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real = os.fsync
        monkeypatch.setattr(os, "fsync",
                            lambda fd: calls.append(fd) or real(fd))
        return calls

    @pytest.fixture
    def manifest_file(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": "repro.runtime.manifest",
                                    "version": 1, "tasks": TASKS}))
        return str(path)

    def test_the_journal_fsyncs_every_append(self, tmp_path, fsyncs):
        journal = Journal()._run(tmp_path / "j", resume=False)
        assert journal.appended == 1 + 2 * len(TASKS)
        assert len(fsyncs) == journal.appended

    @pytest.mark.parametrize("flags, expected", [
        ([], 0), (["--ledger-fsync"], len(TASKS))])
    def test_the_ledger_fsyncs_exactly_under_ledger_fsync(
            self, tmp_path, capsys, fsyncs, manifest_file, flags,
            expected):
        assert main(["batch", manifest_file, "--ledger",
                     str(tmp_path / "l"), *flags]) == 0
        assert len(fsyncs) == expected

    def test_heartbeats_never_fsync(self, tmp_path, capsys, fsyncs,
                                    manifest_file):
        assert main(["batch", manifest_file, "--heartbeat",
                     str(tmp_path / "h"), "--heartbeat-interval",
                     "0"]) == 0
        assert len(_lines(tmp_path / "h")) == len(TASKS)
        assert fsyncs == []

    def test_checkpoints_never_fsync(self, tmp_path, fsyncs):
        kind = Checkpoint()
        assert len(kind.write(tmp_path / "c")) == 3
        assert fsyncs == []
