"""The batch run ledger: an append-only history of every task run.

``xnf batch --ledger FILE`` attaches a :class:`LedgerWriter` to the
batch runner's per-task completion hook, whose one consumer it is.
For every terminal task it appends one schema-versioned record (:mod:`repro.records`)::

    {"schema": "repro.obs.ledger", "version": 1,
     "run": "9f3a1c2b4d5e", "ts": 1754700000.123,
     "manifest": "corpus.json", "manifest_sha": "ab12cd34ef56",
     "seed": 7, "task": "corpus-000003", "op": "check",
     "dtd_sha": "0011aabbccdd", "fds_sha": "2233eeff4455",
     "verdict": "ok", "reason": null, "retries": 0,
     "wall_ms": 12.345, "counters_sha": "66778899aabb"}

* ``run`` — one id shared by every record of a batch invocation, so a
  single append-only file accumulates history across runs;
* ``manifest_sha`` / ``dtd_sha`` / ``fds_sha`` — input fingerprints:
  two runs are comparable exactly when these match;
* ``verdict`` / ``reason`` / ``retries`` — the task's terminal status
  (``reason`` only on dead-letters);
* ``wall_ms`` — wall time across every attempt of the task;
* ``counters_sha`` — a digest of the task's operation-counter deltas
  (``null`` while obs is disabled): deterministic work moved iff the
  digest moved.

``xnf obs history`` renders the file per run (or per task with
``--task``); ``xnf obs regress`` gates the **latest** run against
baseline runs under the benchmark comparator's conventions
(:mod:`repro.bench.compare`): wall-time growth beyond the tolerance
and ``ok -> dead-letter`` flips are gating *regressions*, retry growth
is *advisory*, counter-digest movement and new tasks are *notes*.
Exit codes: 0 pass, 1 regression, 2 structural (unreadable ledger, a
baseline task missing from the current run).

Timings vary across machines, so by default per-task ratios are
normalised by the run's **median ratio**: a uniformly slower machine
does not trip the gate, while one task slowing 2x among stable
siblings does.  ``--absolute`` compares raw wall times instead.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable

from repro import records
from repro.errors import UsageError
from repro.records import fingerprint

if TYPE_CHECKING:
    from repro.bench.compare import Finding

#: The ``schema`` discriminator stamped on every ledger record.
LEDGER_SCHEMA = "repro.obs.ledger"

#: Bump on any incompatible change to the record layout.
LEDGER_VERSION = 1

#: The fields ``obs history`` and ``obs regress`` compute with, as
#: :func:`repro.records.check` reads them: ``(key, types, required)``.
_FIELDS = (("run", str, True), ("task", str, True),
           ("verdict", str, True), ("retries", int, True),
           ("wall_ms", records.NUMBER, True),
           ("ts", (*records.NUMBER, type(None)), False),
           ("reason", (str, type(None)), False),
           ("counters_sha", (str, type(None)), False))


class LedgerError(UsageError):
    """A ledger file is unreadable, malformed, or not comparable
    (exit code 2)."""


def counters_digest(delta: dict) -> str | None:
    """Digest of a counter-delta mapping, independent of dict order."""
    if not delta:
        return None
    return fingerprint(json.dumps(sorted(delta.items())))


# -- writing -----------------------------------------------------------


class LedgerWriter:
    """Appends one ledger record per terminal task (see module doc).

    ``manifest`` supplies the run-level provenance fields; ``run``
    defaults to a fresh random id; ``clock`` is injectable for
    deterministic tests.  :meth:`task_done` is the batch runner's
    ``on_task_done`` hook.
    """

    def __init__(self, stream: IO[str], *, manifest,
                 run: str | None = None,
                 clock: Callable[[], float] = time.time,
                 fsync: bool = False) -> None:
        self.stream = stream
        #: ``fsync=True`` makes each append crash-*durable* (survives
        #: power loss); by default it is crash-*consistent* only.
        self.fsync = fsync
        if records.repair(stream):
            records.warn_torn(getattr(stream, "name", "<ledger>"),
                              "obs.ledger.torn")
        self.run = run if run is not None else os.urandom(6).hex()
        self._clock = clock
        self.manifest_source = manifest.source
        self.manifest_seed = manifest.seed
        self.manifest_sha = manifest.sha
        self.records_written = 0

    def record_for(self, outcome) -> dict:
        """The ledger record for one terminal :class:`TaskOutcome`
        (without writing it)."""
        task = outcome.task
        dtd_sha, fds_sha = task.spec_fingerprints
        return {
            "schema": LEDGER_SCHEMA,
            "version": LEDGER_VERSION,
            "run": self.run,
            "ts": round(self._clock(), 3),
            "manifest": self.manifest_source,
            "manifest_sha": self.manifest_sha,
            "seed": self.manifest_seed,
            "task": task.id,
            "op": task.op,
            "dtd_sha": dtd_sha,
            "fds_sha": fds_sha,
            "verdict": outcome.status,
            "reason": outcome.reason,
            "retries": max(0, outcome.attempts - 1),
            "wall_ms": round(outcome.wall_s * 1e3, 3),
            "counters_sha": counters_digest(outcome.counter_delta),
        }

    def task_done(self, outcome) -> None:
        """The batch runner's ``on_task_done`` hook: append one record
        (:func:`repro.records.append`), fsync'd when :attr:`fsync`."""
        records.append(self.stream, self.record_for(outcome),
                       fsync=self.fsync)
        self.records_written += 1


# -- reading -----------------------------------------------------------


def read_ledger(path: str | Path) -> list[dict]:
    """Parse a ledger file (``-`` = stdin); raises
    :class:`LedgerError` on unreadable input, bad JSON, a foreign
    schema, a missing or mistyped field, or a ``ts`` that is not a
    Unix time.  A torn last record is skipped with a warning
    (``obs.ledger.torn``)."""
    found = records.read(path, error=LedgerError)
    if found.torn:
        records.warn_torn(found.source, "obs.ledger.torn")
    ledger: list[dict] = []
    for lineno, record in found.lines:
        where = f"{found.source}:{lineno}"
        records.check(record, (), where=where, error=LedgerError)
        if record.get("schema") != LEDGER_SCHEMA:
            raise LedgerError(
                f"{where}: schema is {record.get('schema')!r}, "
                f"expected {LEDGER_SCHEMA!r}")
        if record.get("version") != LEDGER_VERSION:
            raise LedgerError(
                f"{where}: ledger version {record.get('version')!r} is "
                f"not supported (expected {LEDGER_VERSION})")
        ledger.append(records.check(record, _FIELDS, where=where,
                                    error=LedgerError))
        records.check_time(record, "ts", where=where, error=LedgerError)
    if not ledger:
        raise LedgerError(f"{found.source}: no ledger records "
                          f"(was the run invoked with --ledger?)")
    return ledger


def group_runs(records: list[dict]) -> dict[str, list[dict]]:
    """Records grouped by run id, in order of first appearance —
    append-only files list runs oldest first."""
    runs: dict[str, list[dict]] = {}
    for record in records:
        runs.setdefault(record["run"], []).append(record)
    return runs


def _per_task(run_records: list[dict]) -> dict[str, dict]:
    """One record per task within a run (the last one wins — a
    well-formed run writes each task exactly once)."""
    return {record["task"]: record for record in run_records}


# -- history rendering -------------------------------------------------


def _stamp(ts) -> str:
    if ts is None:
        return "-"
    from datetime import datetime, timezone
    return datetime.fromtimestamp(
        float(ts), tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def render_history(records: list[dict], *, task: str | None = None,
                   limit: int | None = None) -> str:
    """The ``xnf obs history`` text: one row per run (newest last),
    or one row per record of ``task`` with ``--task``."""
    runs = group_runs(records)
    lines: list[str] = []
    if task is not None:
        rows = [(run, by_task[task])
                for run, run_records in runs.items()
                for by_task in (_per_task(run_records),)
                if task in by_task]
        if not rows:
            raise LedgerError(f"task {task!r} appears in no run")
        if limit is not None:
            rows = rows[-limit:]
        lines.append(f"== task {task}: {len(rows)} run(s) ==")
        for run, record in rows:
            lines.append(
                f"  run {run}  {_stamp(record.get('ts'))}  "
                f"{record['verdict']:<11}  retries {record['retries']}  "
                f"wall {record['wall_ms']:.3f} ms  "
                f"counters {record.get('counters_sha') or '-'}")
        return "\n".join(lines) + "\n"

    items = list(runs.items())
    if limit is not None:
        items = items[-limit:]
    lines.append(f"== ledger: {len(runs)} run(s), "
                 f"{len(records)} record(s) ==")
    for run, run_records in items:
        by_task = _per_task(run_records)
        ok = sum(1 for r in by_task.values() if r["verdict"] == "ok")
        dead = len(by_task) - ok
        retries = sum(r["retries"] for r in by_task.values())
        wall = sum(r["wall_ms"] for r in by_task.values())
        first = run_records[0]
        lines.append(
            f"  run {run}  {_stamp(first.get('ts'))}  "
            f"manifest {first.get('manifest', '-')}  "
            f"seed {first.get('seed', '-')}  "
            f"tasks {len(by_task)}  ok {ok}  dead-letter {dead}  "
            f"retries {retries}  wall {wall:.1f} ms")
    return "\n".join(lines) + "\n"


# -- the regression gate -----------------------------------------------


def _median_baseline(baseline_runs: list[dict[str, dict]],
                     task: str) -> dict | None:
    """Median-wall baseline entry for one task across baseline runs."""
    import statistics
    entries = [per_task[task] for per_task in baseline_runs
               if task in per_task]
    if not entries:
        return None
    wall = statistics.median(entry["wall_ms"] for entry in entries)
    # Keep the latest entry's categorical fields (verdict, digests),
    # with the median wall time for the timing gate.
    merged = dict(entries[-1])
    merged["wall_ms"] = wall
    return merged


def regress(records: list[dict], *,
            baseline_records: list[dict] | None = None,
            tolerance: float = 0.05, min_wall_ms: float = 1.0,
            absolute: bool = False) -> list[Finding]:
    """Gate the **latest** run in ``records`` against baselines.

    Baselines are every run of ``baseline_records`` when given,
    otherwise every *earlier* run in ``records`` itself.  See the
    module doc for the severity conventions; a baseline task missing
    from the current run raises :class:`LedgerError` (structural,
    exit 2), matching the bench comparator.
    """
    import statistics

    from repro.bench.compare import Finding
    runs = group_runs(records)
    current_run, current_records = list(runs.items())[-1]
    current = _per_task(current_records)

    if baseline_records is not None:
        baseline_runs = [_per_task(run_records) for run_records
                         in group_runs(baseline_records).values()]
    else:
        baseline_runs = [_per_task(run_records) for run, run_records
                         in runs.items() if run != current_run]
    if not baseline_runs:
        raise LedgerError(
            f"run {current_run} has no baseline runs to compare "
            f"against (append more runs or pass --baseline FILE)")

    baseline_tasks = sorted(
        {task for per_task in baseline_runs for task in per_task})
    missing = [task for task in baseline_tasks if task not in current]
    if missing:
        raise LedgerError(
            f"run {current_run} is missing baseline task(s): "
            f"{', '.join(missing)}")

    findings: list[Finding] = []
    for task in sorted(current):
        if task not in baseline_tasks:
            findings.append(Finding(
                "note", task, f"new task (no baseline), verdict "
                f"{current[task]['verdict']}"))

    # Normalise out machine speed: the median per-task ratio is the
    # run-level scale, so a uniformly slower runner passes while one
    # task slowing alone still trips the gate.
    ratios: dict[str, tuple[float, float, float]] = {}
    for task in baseline_tasks:
        base = _median_baseline(baseline_runs, task)
        curr = current[task]
        base_wall, curr_wall = base["wall_ms"], curr["wall_ms"]
        if base_wall > 0:
            ratios[task] = (curr_wall / base_wall, base_wall, curr_wall)
    scale = 1.0
    if not absolute and ratios:
        scale = statistics.median(r for r, _, _ in ratios.values())
        scale = max(scale, 1e-9)

    for task in baseline_tasks:
        base = _median_baseline(baseline_runs, task)
        curr = current[task]

        if base["verdict"] == "ok" and curr["verdict"] != "ok":
            findings.append(Finding(
                "regression", task,
                f"verdict flipped ok -> {curr['verdict']}"
                + (f" ({curr.get('reason')})"
                   if curr.get("reason") else "")))
        elif base["verdict"] != "ok" and curr["verdict"] == "ok":
            findings.append(Finding(
                "note", task,
                f"verdict recovered {base['verdict']} -> ok"))

        if curr["retries"] > base["retries"]:
            findings.append(Finding(
                "advisory", task,
                f"retries grew {base['retries']} -> "
                f"{curr['retries']}"))

        # Both sides must carry a digest: a null digest means that
        # run had obs disabled, which says nothing about the work.
        if base.get("counters_sha") and curr.get("counters_sha") \
                and base["counters_sha"] != curr["counters_sha"] \
                and curr["verdict"] == "ok" == base["verdict"]:
            findings.append(Finding(
                "note", task,
                f"counter digest moved "
                f"{base.get('counters_sha') or '-'} -> "
                f"{curr.get('counters_sha') or '-'} "
                f"(deterministic work changed)"))

        if task not in ratios:
            continue
        ratio, base_wall, curr_wall = ratios[task]
        normalised = ratio / scale
        # Both measurements must clear the floor: a ratio over a
        # sub-floor baseline is scheduling noise, not a slowdown.
        if base_wall >= min_wall_ms and curr_wall >= min_wall_ms \
                and normalised > 1.0 + tolerance:
            scale_note = ("" if absolute else
                          f", run scale {scale:.2f}x normalised out")
        else:
            continue
        findings.append(Finding(
            "regression", task,
            f"wall time {base_wall:.3f} -> {curr_wall:.3f} ms "
            f"({normalised - 1.0:+.1%} beyond tolerance "
            f"{tolerance:.0%}{scale_note})"))
    return findings
