"""The parent-side commit path of ``xnf batch``, on both backends.

Each test runs the real CLI in a subprocess under a timeout: a batch
that loses a task's commit waits forever for it, and the test must
fail rather than hang.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.runtime.pool import pool_available

DTD = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
       "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")

WORKERS = [1, pytest.param(2, marks=pytest.mark.skipif(
    not pool_available(), reason="fork start method unavailable"))]

#: Runs ``xnf`` with ``open`` in ``module`` wrapped so that the third
#: write of a line containing ``marker`` fails like a full disk.
DISK_FULL = """
import builtins, errno, os, sys
import {module} as target

class DiskFull:
    def __init__(self, stream):
        self._stream, self._hits = stream, 0

    def write(self, text):
        if {marker!r} in text:
            self._hits += 1
            if self._hits == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)

target.open = lambda *a, **k: DiskFull(builtins.open(*a, **k))
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _xnf(args, *, script=None, timeout=60):
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)  # faults force serial execution
    head = ["-c", script] if script else ["-m", "repro"]
    return subprocess.run([sys.executable, *head, *map(str, args)],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


def _manifest(path, tasks):
    path.write_text(json.dumps({"schema": "repro.runtime.manifest",
                                "version": 1, "tasks": tasks}))
    return path


@pytest.mark.parametrize("workers", WORKERS)
def test_missing_spec_file_gets_a_ledger_record(tmp_path, workers):
    manifest = _manifest(tmp_path / "m.json", [
        {"id": "inline", "op": "check", "dtd_text": DTD,
         "fds_text": "db.r.@a -> db.r.@b"},
        {"id": "missing", "op": "check", "dtd": "missing.dtd"}])
    ledger = tmp_path / "ledger.jsonl"
    run = _xnf(["batch", manifest, "--ledger", ledger,
                "--workers", workers])
    assert run.returncode == 5, run.stderr
    assert "Traceback" not in run.stderr
    records = {record["task"]: record for record in map(
        json.loads, ledger.read_text().splitlines())}
    assert sorted(records) == ["inline", "missing"]
    assert records["missing"]["dtd_sha"] is None
    assert records["missing"]["verdict"] == "dead-letter"
    assert records["inline"]["dtd_sha"] is not None


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("writer", ["journal", "ledger"])
def test_write_failure_ends_the_batch(tmp_path, workers, writer):
    manifest = _manifest(tmp_path / "m.json", [
        {"id": f"t{index}", "op": "check", "dtd_text": DTD,
         "fds_text": "db.r.@a -> db.r.@b"} for index in range(8)])
    if writer == "journal":
        module, marker = "repro.runtime.journal", '"record": "result"'
    else:
        module, marker = "repro.cli", '"repro.obs.ledger"'
    run = _xnf(["batch", manifest, f"--{writer}", tmp_path / writer,
                "--workers", workers],
               script=DISK_FULL.format(module=module, marker=marker))
    assert run.returncode == 3, run.stderr
    lines = run.stderr.strip().splitlines()
    assert len(lines) == 1, run.stderr
    assert lines[0].startswith("error: ")
    assert "No space left on device" in lines[0]
    assert run.stdout == ""


@pytest.mark.parametrize("workers", WORKERS)
def test_a_resumed_run_ledgers_every_task(tmp_path, workers):
    """A ledger write that fails ends the batch before the task is
    journaled, so ``--resume`` runs it and the ledger covers it."""
    manifest = _manifest(tmp_path / "m.json", [
        {"id": f"t{index}", "op": "check", "dtd_text": DTD,
         "fds_text": "db.r.@a -> db.r.@b"} for index in range(8)])
    journal, ledger = tmp_path / "j", tmp_path / "l"
    run = ["batch", manifest, "--workers", workers, "--journal", journal,
           "--ledger", ledger]
    failed = _xnf(run, script=DISK_FULL.format(
        module="repro.cli", marker='"repro.obs.ledger"'))
    assert failed.returncode == 3, failed.stderr
    resumed = _xnf([*run, "--resume"])
    assert resumed.returncode == 0, resumed.stderr
    records = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert len({record["run"] for record in records}) == 2
    assert sorted({record["task"] for record in records}) \
        == [f"t{index}" for index in range(8)]


#: Runs ``xnf`` with ``os.fsync`` failing from its second call on: the
#: journal's meta record syncs at open, its first result sync fails.
FSYNC_FAILS = """
import errno, os, sys
calls = []

def fsync(fd):
    calls.append(fd)
    if len(calls) > 1:
        raise OSError(errno.EIO, os.strerror(errno.EIO))

os.fsync = fsync
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("workers", WORKERS)
def test_a_failed_fsync_ends_the_batch(tmp_path, workers):
    manifest = _manifest(tmp_path / "m.json", [
        {"id": f"t{index}", "op": "check", "dtd_text": DTD,
         "fds_text": "db.r.@a -> db.r.@b"} for index in range(8)])
    run = _xnf(["batch", manifest, "--journal", tmp_path / "journal",
                "--workers", workers], script=FSYNC_FAILS)
    assert run.returncode == 3, run.stderr
    lines = run.stderr.strip().splitlines()
    assert len(lines) == 1, run.stderr
    assert lines[0].startswith("error: ")
    assert "Input/output error" in lines[0]
    assert run.stdout == ""


@pytest.mark.skipif(not pool_available(),
                    reason="fork start method unavailable")
def test_dispatches_larger_than_the_pipe_buffer_complete(tmp_path):
    """Each task's DTD carries a 1 MiB comment, so every dispatch and
    every result outgrows the socket buffer of a worker's pipe.  The
    supervisor must never block sending to a worker that is blocked
    sending it a result: the traced pool run finishes, with serial's
    bytes."""
    pad = "<!-- " + "x" * (1 << 20) + " -->\n"
    manifest = _manifest(tmp_path / "m.json", [
        {"id": f"t{index}", "op": "check", "dtd_text": pad + DTD,
         "fds_text": "db.r.@a -> db.r.@b"} for index in range(8)])
    runs = {}
    for workers in (1, 2):
        run = _xnf(["--trace", tmp_path / f"trace{workers}", "batch",
                    manifest, "--workers", workers], timeout=120)
        assert run.returncode == 0, run.stderr
        runs[workers] = run.stdout
    assert runs[2] == runs[1]
