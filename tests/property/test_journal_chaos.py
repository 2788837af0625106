"""Parent-kill chaos: SIGKILL the ``xnf batch`` supervisor at seeded
random points and prove ``--resume`` loses nothing and changes no
bytes.

This is the acceptance harness for the batch journal: each case runs
the real CLI in a subprocess, kills it with SIGKILL (no cleanup, no
atexit — the honest crash), then loops ``--resume`` until a run
completes, and byte-compares the final summary against an
uninterrupted serial run of the same manifest.  The manifest carries
deterministic per-task failures (broken DTDs → permanent
dead-letters) rather than ``REPRO_FAULTS`` arms: fault plans fire at
process-global hit counts, so a resumed tail would see different
faults than the uninterrupted run and the byte-identity oracle would
be meaningless.  Every case runs at ``--breaker-threshold`` 1 and 2,
which those broken DTDs trip.

Scale knobs (CI raises them in the chaos-resume job):
``REPRO_RESUME_TASKS`` manifest size, ``REPRO_RESUME_KILL_POINTS``
kill points per backend.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

TASKS = int(os.environ.get("REPRO_RESUME_TASKS", "40"))
KILL_POINTS = int(os.environ.get("REPRO_RESUME_KILL_POINTS", "3"))
MAX_RESUMES = 25

GOOD_DTD = ("<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>\n"
            "<!ATTLIST a id CDATA #REQUIRED>")
BROKEN_DTD = "<!ELEMENT r (unclosed"


def _write_manifest(path, count=TASKS):
    with open(path, "w") as stream:
        stream.write(json.dumps(
            {"schema": "repro.runtime.manifest", "version": 1,
             "defaults": {"seed": 7}, "count": count}) + "\n")
        for index in range(count):
            dtd = BROKEN_DTD if index % 7 == 3 else GOOD_DTD
            stream.write(json.dumps(
                {"id": f"t-{index:04d}", "op": "check",
                 "dtd_text": dtd}) + "\n")


def _cmd(manifest, threshold, workers=1, journal=None, resume=False):
    cmd = [sys.executable, "-m", "repro", "batch", str(manifest),
           "--backoff-base", "0", "--breaker-threshold", str(threshold),
           "--workers", str(workers)]
    if journal is not None:
        cmd += ["--journal", str(journal)]
    if resume:
        cmd += ["--resume"]
    return cmd


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.path.dirname(__file__),
                                 "..", "..", "src"),
                    env.get("PYTHONPATH")) if p)
    env.pop("REPRO_FAULTS", None)
    return env


def _expected(manifest, threshold):
    """The uninterrupted serial run: the byte-identity oracle."""
    start = time.monotonic()
    proc = subprocess.run(_cmd(manifest, threshold), capture_output=True,
                          env=_env())
    assert proc.returncode == 5, proc.stderr.decode()
    assert json.loads(proc.stdout)["breakers"]["error:DTDSyntaxError"][
        "trips"] == 1
    return proc.stdout, time.monotonic() - start


def _assert_journal_invariants(journal):
    """The result records are tasks 0, 1, ..., k-1 in that order, and
    every line before the last is intact."""
    text = journal.read_bytes().decode()
    results = []
    lines = text.splitlines(keepends=True)
    for position, line in enumerate(lines):
        if not line.endswith("\n"):
            assert position == len(lines) - 1, \
                "torn record not at the tail"
            continue
        record = json.loads(line)
        if record["record"] == "result":
            results.append(record["index"])
    assert results == list(range(len(results))), \
        f"result records out of index order: {results}"


def _kill_until_resumed(manifest, threshold, journal, workers, rng,
                        baseline_s):
    """Launch fresh, SIGKILL after a random delay, then resume (each
    resume killed again with decreasing probability) until a run
    completes.  Returns the completed process."""
    resume = False
    for attempt in range(MAX_RESUMES):
        proc = subprocess.Popen(
            _cmd(manifest, threshold, workers, journal, resume),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=_env())
        resume = True
        # Kill points spread across the whole run, including the
        # startup window (journal may not exist yet) and the tail.
        must_kill = attempt == 0 or rng.random() < 0.5
        if must_kill:
            time.sleep(rng.uniform(0.05, 1.1) * baseline_s)
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            _assert_journal_invariants(journal) \
                if journal.exists() else None
            continue
        stdout, stderr = proc.communicate(timeout=120)
        if proc.returncode == 5:
            return stdout, stderr
        pytest.fail(f"resume exited {proc.returncode}: "
                    f"{stderr.decode()}")
    pytest.fail(f"no resume completed within {MAX_RESUMES} attempts")


@pytest.mark.parametrize("threshold", [1, 2])
@pytest.mark.parametrize("workers", [1, 4])
def test_parent_sigkill_resume_is_byte_identical(tmp_path, workers,
                                                 threshold):
    if workers > 1:
        pool_mod = pytest.importorskip("repro.runtime.pool")
        if not pool_mod.pool_available():
            pytest.skip("fork start method unavailable")
    manifest = tmp_path / "m.jsonl"
    _write_manifest(manifest)
    expected, baseline_s = _expected(manifest, threshold)
    rng = random.Random(0xD1E + workers + 10 * threshold)
    for point in range(KILL_POINTS):
        journal = tmp_path / f"w{workers}-p{point}.journal"
        stdout, stderr = _kill_until_resumed(
            manifest, threshold, journal, workers, rng, baseline_s)
        assert stdout == expected, \
            f"workers={workers} point={point}: summary diverged"
        summary = json.loads(stdout)
        assert summary["counts"]["lost"] == 0
        _assert_journal_invariants(journal)


def test_mid_append_tear_is_recoverable(tmp_path):
    """The mid-append kill window, forced deterministically: the
    ``truncate`` kind at ``runtime.journal.append`` writes a torn
    record and aborts (exit 2); ``--resume`` truncates the tear with
    a warning and completes byte-identically."""
    manifest = tmp_path / "m.jsonl"
    _write_manifest(manifest)
    expected, _ = _expected(manifest, 1)
    journal = tmp_path / "torn.journal"
    env = _env()
    env["REPRO_FAULTS"] = "runtime.journal.append:truncate:17"
    env["REPRO_FAULTS_SEED"] = "3"
    first = subprocess.run(_cmd(manifest, 1, journal=journal),
                           capture_output=True, env=env)
    assert first.returncode == 2, first.stderr.decode()
    assert b"torn append" in first.stderr
    assert not journal.read_bytes().endswith(b"\n")
    resumed = subprocess.run(
        _cmd(manifest, 1, journal=journal, resume=True),
        capture_output=True, env=_env())
    assert resumed.returncode == 5, resumed.stderr.decode()
    assert b"torn trailing record" in resumed.stderr
    assert resumed.stdout == expected
    _assert_journal_invariants(journal)
