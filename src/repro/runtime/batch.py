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

**Backends.**  The runner is the one place that folds an attempt into
a :class:`TaskOutcome` (:meth:`BatchRunner._run_attempt`) and decides
a retry (:meth:`BatchRunner.decide`: the policy, then this runner's
board).  :class:`SerialBackend` (the default) walks the manifest in
order in this process, deciding after each attempt;
:class:`repro.runtime.pool.PoolBackend` runs each attempt in a forked
worker and decides only for the head of its commit order, when every
earlier task has committed.  Both commit finished tasks in manifest
order through :meth:`BatchRunner.commit`, where :func:`settle`
records each outcome's terminal breaker event, so both make the same
decisions on the same board states and :meth:`BatchRunner.summarize`
renders the *same bytes* whichever backend ran the tasks
(``docs/ROBUSTNESS.md`` § "The determinism argument").
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

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def undecided(self) -> bool:
        """Whether the last attempt failed and the retry policy would
        run another, so the board decides next
        (:meth:`BatchRunner.decide`).  Each retry the board admits
        plans one delay, so a live task has one failure more than
        delays exactly then."""
        return len(self.failures) > len(self.delays_ms) \
            and self.status == "ok"

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


def settle(board: BreakerBoard, outcome: TaskOutcome) -> None:
    """Record one finished task's terminal breaker event on ``board``,
    in manifest order, on both backends and on resume: the success,
    skip or failure at the signature it last failed with.  Its retry
    decisions were asked of the board as they were taken
    (:meth:`BatchRunner.decide`).  ``worker_crash`` outcomes leave
    ``board`` untouched: no breaker judges a crash."""
    if not outcome.failures or outcome.reason == REASON_WORKER_CRASH:
        return
    breaker = board.get(outcome.failures[-1]["signature"])
    if outcome.ok:
        breaker.record_success()
    elif outcome.reason == REASON_BREAKER_OPEN:
        breaker.record_skip()
    else:
        breaker.record_failure()


def _redecided(board: BreakerBoard, outcome: TaskOutcome) -> bool:
    """Whether ``board``, asked again in order, takes the retry
    decisions ``outcome`` records: it admits every failure the task
    retried, and refuses a ``breaker_open`` stop.  A ``worker_crash``
    dead letter retried each failure of its own before the crashes,
    which its crash budget judged, not a breaker."""
    failures = outcome.failures
    if outcome.reason == REASON_WORKER_CRASH:
        retried = [failure for failure in failures
                   if not failure["signature"].startswith("crash:")]
    else:
        retried = failures if outcome.ok else failures[:-1]
    if not all(board.get(failure["signature"]).allows_retries()
               for failure in retried):
        return False
    return outcome.reason != REASON_BREAKER_OPEN \
        or board.get(failures[-1]["signature"]).refuses()


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
            runner.commit(index, runner._run_task(task), outcomes)
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
            # The board is asked again for each decision the record
            # took, as the live run asked it; a record cannot run
            # again, so one the board contradicts is refused.
            if not _redecided(self.board, outcomes[index]):
                raise self.journal.stale(index)
            settle(self.board, outcomes[index])
        return outcomes

    def commit(self, index: int, outcome: "TaskOutcome",
               outcomes: dict) -> None:
        """The one commit path of a finished task, on every backend, in
        index order: :func:`settle` its terminal breaker event, count
        it, hand it to ``on_task_done`` (the ledger), journal it
        durably, then merge it into ``outcomes``.  A write failure on
        the way is a :class:`ReproError` that ends the batch.

        The journal comes last because ``--resume`` skips exactly the
        tasks it holds: a run that stops between the two writes leaves
        the task unjournaled, so resume runs and ledgers it again; the
        other order would leave it journaled and never ledgered."""
        settle(self.board, outcome)
        if _obs.enabled:
            _count(outcome)
        if self.on_task_done is not None:
            self.on_task_done(outcome)
        if self.journal is not None:
            self.journal.result(index, outcome)
        outcomes[index] = outcome

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

    def _run_attempt(self, outcome: TaskOutcome) -> None:
        """Run the next attempt of ``outcome``'s task
        (:meth:`_fold_attempt`), measuring the ledger's telemetry around
        it: its wall time and counter delta add to the task's.  The
        serial loop and a pool worker both run exactly this."""
        counters_before = _obs.counters_snapshot() if _obs.enabled \
            else None
        wall_start = time.perf_counter()
        self._fold_attempt(outcome)
        outcome.wall_s += time.perf_counter() - wall_start
        if counters_before is not None:
            delta = outcome.counter_delta
            for name, value in _obs.counters_snapshot().items():
                moved = value - counters_before.get(name, 0)
                if moved:
                    delta[name] = delta.get(name, 0) + moved

    def _fold_attempt(self, outcome: TaskOutcome) -> None:
        """Wait the backoff the last retry decision planned, run one
        attempt of ``outcome``'s task and fold it in: its result, or
        its failure record, which ends the task unless the policy would
        retry it (the outcome is then :attr:`~TaskOutcome.undecided`)."""
        attempt = outcome.attempts  # 0-based index of this attempt
        if attempt and outcome.delays_ms[-1] > 0:
            self._sleep(outcome.delays_ms[-1])
        outcome.attempts += 1
        try:
            outcome.result = self._attempt(outcome.task, outcome)
        except ReproError as error:
            signature = failure_signature(error)
            transient = is_transient(error)
            outcome.failures.append(
                {"attempt": attempt, "signature": signature,
                 "transient": transient, "chain": error_chain(error)})
            if not self.policy.should_retry(error, attempt):
                outcome.status = "dead-letter"
                outcome.reason = REASON_RETRIES_EXHAUSTED \
                    if transient else REASON_PERMANENT
                outcome.signature = signature

    def decide(self, outcome: TaskOutcome) -> bool:
        """Take the retry decision an :attr:`~TaskOutcome.undecided`
        outcome waits for, on this runner's board: when the breaker of
        its last failure admits a retry (a due probe included), plan
        the backoff the next attempt waits and return ``True``;
        otherwise dead-letter the task ``breaker_open``.  The serial
        loop decides after each attempt, the pool only for the head of
        its commit order, so both ask the board in the same states."""
        failure = outcome.failures[-1]
        if self.board.get(failure["signature"]).allows_retries():
            outcome.delays_ms.append(
                self.policy.delay_ms(outcome.task.id, failure["attempt"]))
            return True
        outcome.status = "dead-letter"
        outcome.reason = REASON_BREAKER_OPEN
        outcome.signature = failure["signature"]
        return False

    def _run_task(self, task: Task) -> TaskOutcome:
        """Run one task to a terminal outcome in this process: an
        attempt, then, while its failure waits for one, a retry
        decision.  Nothing else reaches the board meanwhile."""
        outcome = TaskOutcome(task=task)
        self._run_attempt(outcome)
        while outcome.undecided and self.decide(outcome):
            self._run_attempt(outcome)
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
