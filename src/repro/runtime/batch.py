"""The crash-tolerant batch runner: no task is ever lost silently.

:class:`BatchRunner` executes every task of a
:class:`~repro.runtime.manifest.Manifest` under per-task isolation —
its own budget (its manifest limits, capped by ``xnf batch``'s budget
flags), its own
:func:`repro.obs.trace.span`, its own :mod:`~repro.fd.ensemble`
session, a fresh :class:`~repro.spec.XMLSpec` per attempt — so one
pathological spec can neither corrupt nor starve its neighbours.

The failure path is layered:

1. **Retry** (:class:`~repro.runtime.retry.RetryPolicy`): transient
   failures (injected faults, deadline trips) are re-attempted with
   seeded exponential backoff; permanent ones (parse errors, counted
   budget trips, ensemble disagreements) go straight to step 3.
2. **Circuit breaker** (:class:`~repro.runtime.breaker.BreakerBoard`):
   when one failure signature keeps exhausting retry budgets, its
   breaker opens and later tasks failing the same way are
   dead-lettered on first failure (``breaker_open``) instead of
   burning their retries — with periodic probes to detect recovery.
3. **Dead-letter report**: every unrecoverable task lands in the
   summary's ``dead_letters`` with its complete error chain (each
   exception's type, message, fault site / tripped limit, walked via
   ``__cause__``/``__context__``), the per-attempt failure history,
   and the reason class.  The zero-task-loss invariant is explicit:
   ``counts.lost`` is computed as ``total - ok - failed`` and the
   chaos suite asserts it is 0 under every fault plan.

Only :class:`~repro.errors.ReproError` is handled: any other
exception escaping a task is a breach of the library's
exception-safety contract (``docs/ROBUSTNESS.md``) and is allowed to
crash the batch loudly.

The summary (:meth:`BatchRunner.run`) is a JSON-ready dict that is
**deterministic**: no wall-clock values, collections sorted, backoff
delays planned from ``(seed, task id, attempt)`` — two runs of the
same manifest under the same fault plan are byte-identical.

**Backends.**  The runner core (per-task execution, retry, outcome
bookkeeping, summary assembly) is backend-agnostic.
:class:`SerialBackend` (the default) walks the manifest in order in
this process; :class:`repro.runtime.pool.PoolBackend` dispatches the
same tasks to a supervised pool of forked worker processes.  Both
commit finished tasks in manifest order through
:meth:`BatchRunner.commit`, where :func:`settle` applies each
outcome's breaker traffic to this runner's board exactly as a serial
run would, so :meth:`BatchRunner.summarize` renders the *same bytes*
whichever backend ran the tasks (``docs/ROBUSTNESS.md`` § "The
determinism argument").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    FaultError,
    ReproError,
    ResourceExhausted,
)
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.fd import ensemble as _ensemble
from repro.guard import Limits
from repro.runtime.breaker import BreakerBoard, failure_signature
from repro.runtime.manifest import Manifest, Task
from repro.runtime.retry import RetryPolicy, is_transient
from repro.spec import XMLSpec

#: Bump on any incompatible change to the summary JSON layout.
SUMMARY_VERSION = 1

#: The ``schema`` discriminator stamped on every batch summary.
SUMMARY_SCHEMA = "repro.runtime.batch"

#: Dead-letter reason classes.
REASON_PERMANENT = "permanent"
REASON_RETRIES_EXHAUSTED = "retries_exhausted"
REASON_BREAKER_OPEN = "breaker_open"
REASON_WORKER_CRASH = "worker_crash"


def error_chain(error: BaseException) -> list[dict]:
    """The full causal chain of one failure, outermost first.

    Walks ``__cause__`` (explicit ``raise ... from``) falling back to
    ``__context__`` (implicit chaining), with an identity-based cycle
    guard.  Each link carries the exception type and message plus the
    structured fields that matter for triage: the fault site and kind
    of a :class:`~repro.errors.FaultError`, the tripped limit and
    progress annotations of a :class:`~repro.errors.ResourceExhausted`.
    """
    chain: list[dict] = []
    seen: set[int] = set()
    current: BaseException | None = error
    while current is not None and id(current) not in seen:
        seen.add(id(current))
        entry: dict = {"type": type(current).__name__,
                       "message": str(current)}
        if isinstance(current, FaultError):
            entry["site"] = current.site
            entry["kind"] = current.kind
        if isinstance(current, ResourceExhausted):
            entry["limit"] = current.limit
            if current.partial:
                entry["partial"] = {key: current.partial[key]
                                    for key in sorted(current.partial)}
        chain.append(entry)
        current = current.__cause__ or current.__context__
    return chain


@dataclass
class TaskOutcome:
    """What happened to one task, JSON-ready via :meth:`to_json`."""

    task: Task
    status: str = "ok"                      # "ok" | "dead-letter"
    attempts: int = 0
    delays_ms: list[float] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    result: dict | None = None
    reason: str | None = None
    signature: str | None = None
    disagreements: list[dict] = field(default_factory=list)
    #: Telemetry-only measurements for ``on_task_done`` consumers (the
    #: run ledger): wall time across every attempt of this task, and
    #: the counter deltas it produced (empty while obs is disabled).
    #: Deliberately excluded from :meth:`to_json` — the summary must
    #: stay byte-deterministic and wall clocks are not.
    wall_s: float = 0.0
    counter_delta: dict = field(default_factory=dict)
    #: ``len(disagreements)`` after each failed attempt, so
    #: :meth:`truncate` can drop the records of the attempts it cuts.
    disagreement_marks: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def truncate(self, failures: int) -> None:
        """Cut this outcome back to its first ``failures`` failed
        attempts, dead-lettered ``breaker_open`` at the last of them —
        where the serial retry loop would have stopped (see
        :func:`settle`)."""
        del self.failures[failures:]
        del self.delays_ms[failures - 1:]
        del self.disagreements[self.disagreement_marks[failures - 1]:]
        del self.disagreement_marks[failures:]
        self.attempts = failures
        self.result = None
        self.status = "dead-letter"
        self.reason = REASON_BREAKER_OPEN
        self.signature = self.failures[-1]["signature"]

    @classmethod
    def from_record(cls, record: dict) -> "TaskOutcome":
        """The outcome a journal ``result`` record carries: the inverse
        of :meth:`to_json`, plus the record's reason and signature.
        Its task holds only the id and op, because a replayed outcome is
        summarized and settled, never run or recorded again."""
        payload = record["payload"]
        return cls(task=Task(id=record["id"], op=record["op"]),
                   status=payload["status"], attempts=payload["attempts"],
                   delays_ms=payload["delays_ms"],
                   failures=payload.get("failures", []),
                   result=payload.get("result"), reason=record["reason"],
                   signature=record["signature"],
                   disagreements=payload.get("disagreements", []))

    def to_json(self) -> dict:
        payload: dict = {"id": self.task.id, "op": self.task.op,
                         "status": self.status,
                         "attempts": self.attempts,
                         "retried": self.attempts > 1,
                         "delays_ms": list(self.delays_ms)}
        if self.result is not None:
            payload["result"] = self.result
        if self.failures:
            payload["failures"] = list(self.failures)
        if self.disagreements:
            payload["disagreements"] = list(self.disagreements)
        return payload

    def dead_letter(self) -> dict:
        """The dead-letter report entry for a failed task."""
        assert self.status == "dead-letter" and self.failures
        return {"id": self.task.id, "op": self.task.op,
                "reason": self.reason, "signature": self.signature,
                "attempts": self.attempts,
                "failures": list(self.failures),
                "error_chain": self.failures[-1]["chain"]}


def _lag(board: BreakerBoard, outcome: TaskOutcome) -> int | None:
    """How far ``outcome`` ran past the board's refused set now, which
    on a pool may be ahead of the set the retry loop was handed at
    dispatch: the failed attempts to keep when it took a retry on a
    signature the board refuses, ``0`` when it stopped on a signature
    the board admits, and ``None`` when it ran as a serial run would
    have.  ``worker_crash`` outcomes hold worker crashes only, which
    no breaker judges, so the board never holds them back."""
    failures = outcome.failures
    if not failures or outcome.reason == REASON_WORKER_CRASH:
        return None
    refused = board.refused()
    retried = failures if outcome.ok else failures[:-1]
    for position, failure in enumerate(retried):
        if failure["signature"] in refused:
            return position + 1
    if outcome.reason == REASON_BREAKER_OPEN \
            and outcome.signature not in refused:
        return 0
    return None


def settle(board: BreakerBoard, outcome: TaskOutcome) -> bool:
    """Apply one finished task's breaker traffic to ``board``, in
    manifest order: the one rule for how failures drive the breakers,
    on both backends and on resume.

    An outcome that ran past the board (:func:`_lag`) is first cut
    back: a retry taken on a signature the board refuses is truncated
    away (``breaker_open`` at that failure, where the serial loop
    stopped), and a task that stopped on a signature the board admits
    applies nothing and returns ``False``, to be run again with the
    board's set.  Then each retried failure asks ``allows_retries``
    (admitting a due probe) and the terminal one records success, skip
    or failure.  ``worker_crash`` outcomes leave ``board`` untouched.
    """
    if not outcome.failures or outcome.reason == REASON_WORKER_CRASH:
        return True
    keep = _lag(board, outcome)
    if keep is not None:
        if _obs.enabled:
            _obs.inc("runtime.pool.wasted_attempts",
                     outcome.attempts - keep)
        if not keep:
            return False
        outcome.truncate(keep)
    *retried, last = outcome.failures
    for failure in retried:
        board.get(failure["signature"]).allows_retries()
    breaker = board.get(last["signature"])
    if outcome.ok:
        breaker.allows_retries()
        breaker.record_success()
    elif outcome.reason == REASON_BREAKER_OPEN:
        breaker.record_skip()
    else:
        breaker.record_failure()
    return True


def _count(outcome: TaskOutcome) -> None:
    """The ``runtime.tasks*`` counters of one committed outcome, so
    ``--stats`` agrees with the summary on both backends."""
    _obs.inc("runtime.tasks")
    _obs.inc("runtime.attempts", outcome.attempts)
    if outcome.delays_ms:
        _obs.inc("runtime.retries", len(outcome.delays_ms))
    if not outcome.ok:
        _obs.inc("runtime.tasks.deadletter")
        return
    _obs.inc("runtime.tasks.ok")
    if outcome.attempts > 1:
        _obs.inc("runtime.tasks.retried")


class SerialBackend:
    """The in-process backend: every task runs here, in manifest
    order.  This is the reference execution the pool backend's merged
    report is byte-compared against."""

    name = "serial"

    def run(self, runner: "BatchRunner") -> list[TaskOutcome]:
        # Journal-replayed outcomes merge with live ones by manifest
        # index; without a journal both dicts reduce to the plain
        # manifest-order walk.
        outcomes = dict(runner.replayed_outcomes())
        for index, task in runner.pending_tasks():
            # Each task reads the board its commit settles against, so
            # settle never sends one back here.
            committed = runner.commit(index, runner._run_task(task),
                                      outcomes)
            assert committed, f"serial task {task.id!r} sent back"
        return [outcomes[index] for index in sorted(outcomes)]


class BatchRunner:
    """Run a manifest to completion, losing nothing (see module doc).

    ``sleeper`` receives each planned backoff delay in milliseconds;
    the default really sleeps, tests pass a recorder.  The *planned*
    delays always land in the summary either way, so sleeping is pure
    side effect and never affects the report bytes.

    ``backend`` chooses where tasks execute: ``None`` or a
    :class:`SerialBackend` runs them here; a
    :class:`repro.runtime.pool.PoolBackend` fans them out to
    supervised worker processes.  Either way the summary is assembled
    by :meth:`summarize` from the same outcome records.

    ``limits`` caps every task's own limits, so an outcome does not
    depend on which tasks ran before it, or on which worker.
    """

    def __init__(self, manifest: Manifest, *,
                 policy: RetryPolicy | None = None,
                 board: BreakerBoard | None = None,
                 ensemble_mode: str = "off",
                 sleeper: Callable[[float], None] | None = None,
                 on_task_done: Callable[[TaskOutcome], None]
                 | None = None,
                 backend: "SerialBackend | None" = None,
                 journal=None, limits: Limits | None = None) -> None:
        if ensemble_mode not in _ensemble.MODES:
            raise ValueError(
                f"unknown ensemble mode {ensemble_mode!r}; expected "
                f"one of {list(_ensemble.MODES)}")
        self.manifest = manifest
        self.policy = policy if policy is not None \
            else RetryPolicy(seed=manifest.seed)
        self.board = board if board is not None else BreakerBoard()
        self.ensemble_mode = ensemble_mode
        self._sleep = sleeper if sleeper is not None \
            else (lambda ms: time.sleep(ms / 1000.0))
        #: Per-task hook (the run ledger): called with each terminal
        #: :class:`TaskOutcome` — in index order on both backends.
        #: ``None`` (the default) keeps the happy path hook-free.
        self.on_task_done = on_task_done
        self.backend = backend if backend is not None else SerialBackend()
        #: Optional :class:`repro.runtime.journal.BatchJournal`.  The
        #: seam below is shared by both backends and costs one ``None``
        #: check per call when disabled (gated <1% by the ``journal``
        #: gate of ``python -m repro.bench.seams``).
        self.journal = journal
        self.limits = limits or None

    # -- the journal seam ----------------------------------------------

    def pending_tasks(self):
        """``(index, task)`` pairs still to execute this run — the
        whole manifest without a journal, the not-yet-completed slice
        with one."""
        if self.journal is None:
            return self.manifest.iter_indexed()
        return self.manifest.iter_indexed(
            skip=self.journal.completed_indices)

    def replayed_outcomes(self) -> dict:
        """Completed outcomes replayed from the journal, by index, with
        their breaker traffic settled onto the board in index order —
        a journal's results are an index-ordered prefix, so the board
        ends where the interrupted run left it.  Backends call this
        once, before any task runs."""
        if self.journal is None:
            return {}
        outcomes = self.journal.completed_outcomes()
        for index in sorted(outcomes):
            # A record can be neither cut short nor run again, so one
            # the board holds back is refused before settle would.
            if _lag(self.board, outcomes[index]) is not None:
                raise self.journal.stale(index)
            settle(self.board, outcomes[index])
        return outcomes

    def commit(self, index: int, outcome: "TaskOutcome",
               outcomes: dict) -> bool:
        """The one commit path of a finished task, on every backend, in
        index order: :func:`settle` its breaker traffic, count it, hand
        it to ``on_task_done`` (the ledger), journal it durably, then
        merge it into ``outcomes``.  Returns ``False``, committing
        nothing, when settle sends the task back to run again.  A write
        failure on the way is a :class:`ReproError` that ends the batch.

        The journal comes last because ``--resume`` skips exactly the
        tasks it holds: a run that stops between the two writes leaves
        the task unjournaled, so resume runs and ledgers it again; the
        other order would leave it journaled and never ledgered."""
        if not settle(self.board, outcome):
            return False
        if _obs.enabled:
            _count(outcome)
        if self.on_task_done is not None:
            self.on_task_done(outcome)
        if self.journal is not None:
            self.journal.result(index, outcome)
        outcomes[index] = outcome
        return True

    # -- one task ------------------------------------------------------

    def _execute(self, task: Task) -> dict:
        """One attempt of one task; raises :class:`ReproError` on any
        failure (spec-file reads included)."""
        try:
            dtd_text = task.load_dtd_text()
            fds_text = task.load_fds_text()
        except OSError as error:
            # A per-task input problem, not a manifest problem: the
            # manifest validated, this file is unreadable *now*.
            raise ReproError(
                f"cannot read spec file for task {task.id!r}: "
                f"{error}") from error
        engine = task.engine if self.ensemble_mode == "off" \
            else "ensemble"
        spec = XMLSpec.parse(dtd_text, fds_text, root=task.root,
                             engine=engine)
        if task.op == "implies":
            assert task.fd is not None
            return {"implied": spec.implies(task.fd)}
        if task.op == "check":
            violations = spec.xnf_violations()
            return {"in_xnf": not violations,
                    "violations": sorted(str(fd) for fd in violations)}
        assert task.op == "normalize"
        result = spec.normalize()
        return {"steps": len(result.steps),
                "final_in_xnf": XMLSpec(
                    dtd=result.dtd, sigma=list(result.sigma),
                    engine=engine).is_in_xnf()}

    def _attempt(self, task: Task, outcome: TaskOutcome) -> dict:
        """One isolated attempt: own span, budget and ensemble session,
        each entered only when switched on — with obs disabled, no
        limit set and no route to the ensemble, the task runs bare."""
        ensemble = self.ensemble_mode != "off" or task.engine == "ensemble"
        limits = task.limits
        if self.limits is not None:   # the cap, or a task's only limits
            limits = self.limits.cap(limits or self.limits)
        if not (_obs.enabled or ensemble or limits is not None):
            return self._execute(task)
        with _trace.span("runtime.task", task=task.id, op=task.op,
                         attempt=outcome.attempts):
            with (limits or Limits()).install():
                if not ensemble:
                    return self._execute(task)
                with _ensemble.session(self.ensemble_mode) as sess:
                    try:
                        return self._execute(task)
                    finally:
                        outcome.disagreements.extend(
                            record.to_json()
                            for record in sess.disagreements)

    def _run_task(self, task: Task,
                  refused: frozenset[str] | None = None) -> TaskOutcome:
        """Run one task to a terminal outcome, measuring the ledger's
        telemetry (wall time, counter delta) around the retry loop.

        ``refused`` is the board's refused set at dispatch; a pool
        worker is always handed one.  ``None`` reads this runner's
        board on the first failure that could retry: serially nothing
        settles while a task runs, so that is the board at dispatch."""
        counters_before = _obs.counters_snapshot() if _obs.enabled \
            else None
        wall_start = time.perf_counter()
        outcome = self._run_task_core(task, refused)
        outcome.wall_s = time.perf_counter() - wall_start
        if counters_before is not None:
            outcome.counter_delta = {
                name: value - counters_before.get(name, 0)
                for name, value in _obs.counters_snapshot().items()
                if value != counters_before.get(name, 0)}
        return outcome

    def _run_task_core(self, task: Task,
                       refused: frozenset[str] | None) -> TaskOutcome:
        outcome = TaskOutcome(task=task)
        while True:
            attempt = outcome.attempts  # 0-based index of this attempt
            outcome.attempts += 1
            try:
                outcome.result = self._attempt(task, outcome)
            except ReproError as error:
                signature = failure_signature(error)
                transient = is_transient(error)
                outcome.failures.append(
                    {"attempt": attempt, "signature": signature,
                     "transient": transient,
                     "chain": error_chain(error)})
                outcome.disagreement_marks.append(
                    len(outcome.disagreements))
                if self.policy.should_retry(error, attempt):
                    if refused is None:
                        refused = self.board.refused()
                    if signature not in refused:
                        delay = self.policy.delay_ms(task.id, attempt)
                        outcome.delays_ms.append(delay)
                        if delay > 0:
                            self._sleep(delay)
                        continue
                    # Known-bad signature: degrade — skip the retry
                    # budget and move on; settle records the skip.
                    outcome.reason = REASON_BREAKER_OPEN
                else:
                    outcome.reason = REASON_RETRIES_EXHAUSTED \
                        if transient else REASON_PERMANENT
                outcome.status = "dead-letter"
                outcome.signature = signature
            return outcome

    # -- the batch -----------------------------------------------------

    def run(self) -> dict:
        """Execute every task; return the JSON-ready batch summary.
        With obs on, the ``runtime.batch.tasks.total`` gauge holds the
        manifest's size for the run, the denominator of its live
        progress (``runtime.tasks`` and ``runtime.journal.skipped``)."""
        if _obs.enabled:
            _obs.set_gauge("runtime.batch.tasks.total",
                           self.manifest.task_count)
        try:
            return self.summarize(self.backend.run(self))
        finally:
            if _obs.enabled:
                # The run is over: nothing can be short-circuited any
                # more, so the operator-facing gauge drains to 0 even
                # when breakers were still open at the final task —
                # a post-run scrape must not read stale liveness.
                _obs.set_gauge("runtime.breaker.open", 0)

    def summarize(self, outcomes: list[TaskOutcome]) -> dict:
        """Assemble the batch summary from terminal outcomes.

        Backend-agnostic and purely a function of its inputs and the
        runner's board: every backend hands over the manifest-ordered
        outcome list, and settled the same board, that a serial run
        would produce.
        """
        ok = sum(1 for outcome in outcomes if outcome.ok)
        failed = sum(1 for outcome in outcomes if not outcome.ok)
        total = len(outcomes)
        disagreements = sum(len(outcome.disagreements)
                            for outcome in outcomes)
        return {
            "schema": SUMMARY_SCHEMA,
            "version": SUMMARY_VERSION,
            "manifest": self.manifest.source,
            "seed": self.manifest.seed,
            "ensemble": self.ensemble_mode,
            "policy": self.policy.to_json(),
            # The zero-task-loss invariant, stated in the report
            # itself: every task is accounted for as ok or failed.
            "counts": {"total": total, "ok": ok, "failed": failed,
                       "lost": total - ok - failed},
            "tasks": [outcome.to_json() for outcome in outcomes],
            "dead_letters": [outcome.dead_letter()
                             for outcome in outcomes if not outcome.ok],
            "breakers": self.board.snapshot(),
            "ensemble_disagreements": disagreements,
        }


def run_batch(manifest: Manifest, **options) -> dict:
    """One-shot :class:`BatchRunner` convenience: ``options`` are its
    keyword arguments (``limits`` among them)."""
    return BatchRunner(manifest, **options).run()
