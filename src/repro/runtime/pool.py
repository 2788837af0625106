"""Crash-tolerant parallel batch execution over a supervised fork pool.

:class:`PoolBackend` plugs into :class:`~repro.runtime.batch.
BatchRunner` and fans manifest tasks out to ``N`` forked worker
processes.  The design goals, in priority order:

1. **No task is ever lost.**  The parent is the single source of truth
   for what is in flight: it keeps up to :data:`WINDOW` attempts
   queued on each worker's private duplex pipe, which the worker runs
   in the order they were sent, and keeps its own copy of each task's
   outcome until the attempt returns.  A worker that dies — non-zero
   exit, ``SIGKILL``, a corrupted result pipe, a stall (no ping) — was
   running its first unreturned attempt: that attempt alone is charged
   and requeued from the parent's copy at the front of the queue, and
   the attempts queued behind it go back there uncharged, in index
   order, where other workers pick them up (that is the
   work-stealing).
2. **The merged report matches the serial path's bytes.**  A worker
   runs attempts and never reads a breaker board; the runner decides
   every retry.  Returned attempts wait in a reorder buffer (at most
   :data:`WINDOW` × workers tasks are dispatched but not yet
   committed) and commit in index order.  A failure the retry policy
   would retry waits there for the head of the commit order, the
   lowest uncommitted task: every earlier task has committed and no
   later one reaches the board first, so
   :meth:`~repro.runtime.batch.BatchRunner.decide` asks the board
   exactly as the serial loop does.  An admitted retry is dispatched
   again at the front of the queue; a refused one dead-letters
   ``breaker_open`` and commits.  Journal and ledger records
   therefore come out in index order too.
3. **A recovered crash leaves no trace in the report.**  Worker
   crashes are nondeterministic in *timing* (which attempt of which
   task a ``SIGKILL`` lands on depends on scheduling), so a task that
   eventually succeeds (or dead-letters for its own in-task reasons)
   reports exactly what the serial backend would report — crash
   recovery is visible only in telemetry (``runtime.pool.*``
   counters, :class:`PoolStats`, stderr).  Each crash becomes a
   :class:`~repro.errors.WorkerCrash` (transient, per
   :func:`~repro.runtime.retry.is_transient`) judged by a dedicated
   :class:`~repro.runtime.retry.RetryPolicy` crash budget alone: no
   breaker watches crashes, so every task gets its whole budget.  Only
   a task that exhausts it surfaces, as a dead letter with reason
   ``worker_crash`` and the crash signature (``crash:signal:SIGKILL``,
   ``crash:unpicklable-result``, ``crash:stall``, ...) — and a task
   that deterministically kills every worker it lands on does so
   deterministically.  Its dead letter keeps the attempts it returned
   before the crashes.

**Group commit.**  The supervisor journals and ledgers each task as it
commits, and makes the journal durable once per pass of its
supervision loop (:meth:`~repro.runtime.batch.BatchRunner.sync`), after
the pass has refilled the workers' pipes and before it waits again: one
fsync per pass, not per task, while the workers run.  A power loss
loses at most one pass of results, which run again on ``--resume``.
A dispatch is queued behind a running attempt only when it is small
enough that the send cannot block while the worker blocks sending a
result (:func:`_queued_message_bytes`); a larger one waits for a worker
with nothing queued.

Workers are forked (``multiprocessing.get_context("fork")``): the
manifest, spec corpus, and runner configuration are shared
copy-on-write, so a dispatch message carries only the task's outcome
so far.  Each worker re-initializes the metrics registry first thing
(:func:`repro.obs.metrics.reinit_after_fork` — the inherited lock may
have been held by a parent exporter thread at the instant of the
fork) and resets the tracing module (sinks and span stack); each
attempt's counters ship back once, in its outcome's running
``counter_delta``, and the histograms as one raw dump at shutdown, so
the parent's merged snapshot covers the whole pool.  When the parent
is tracing, each worker buffers every finished span record and ships
the buffer alongside each result; the supervisor stitches them into
its own trace (:func:`repro.obs.trace.ingest_records`), stamping each
with the ``worker`` that ran it, so ``xnf batch --workers N --trace
FILE`` captures every worker's ``runtime.task`` spans in one coherent
forest.  Span starts need no rebase: ``time.perf_counter`` is a
system-wide clock, so a forked worker reads the same clock as its
parent.

A non-:class:`~repro.errors.ReproError` escaping a task inside a
worker is the same exception-safety breach it is on the serial path:
the worker reports the traceback and exits with
:data:`repro.errors.BREACH_EXITCODE`, and the parent tears the pool
down and crashes loudly.
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
import traceback
import multiprocessing
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as _mp_connection
from multiprocessing import get_context
from multiprocessing.reduction import ForkingPickler
from typing import Iterator

from repro.errors import BREACH_EXITCODE, WorkerCrash
from repro.obs import metrics as _obs
from repro.obs import trace as _trace
from repro.runtime.batch import (
    REASON_WORKER_CRASH,
    BatchRunner,
    TaskOutcome,
    error_chain,
)
from repro.runtime.breaker import failure_signature
from repro.runtime.manifest import Task
from repro.runtime.retry import RetryPolicy

#: Default number of worker deaths one task may survive before it is
#: dead-lettered with reason ``worker_crash``.
DEFAULT_CRASH_RETRIES = 3

#: Dispatched-but-uncommitted tasks the reorder buffer holds, per
#: worker, and the most attempts queued on one worker's pipe.  Results
#: commit in index order, so a slow task holds back the commits behind
#: it; this many slots per worker keep the workers busy past a p99 task
#: on the corpus workload, and a worker never waits for the parent
#: between two tasks.
WINDOW = 8

#: Chaos actions :class:`PoolBackend` can inject into workers (test
#: hook; see ``chaos=``).
CHAOS_ACTIONS = ("sigkill", "sigterm", "exit", "garbage", "sigstop")

#: Chaos timings: before the task runs, or after it ran but before
#: the result is sent (forcing a re-execution on requeue).
CHAOS_TIMINGS = ("pre", "post")


def pool_available() -> bool:
    """Whether this platform supports the fork start method (the pool
    requires it: forked workers share the read-only spec corpus and
    receive unpickled runner state for free)."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive
        return False


def resolve_workers(value: str | int, *,
                    task_count: int | None = None) -> int:
    """Turn a ``--workers`` spec into a concrete worker count.

    ``"auto"`` means one worker per CPU this process may run on (its
    affinity mask, where the platform has one, so ``taskset`` and
    cpusets count), never more than there are tasks; an explicit
    integer is respected as-is (still capped by the task count — idle
    workers would only be forked to be told to stop).  A resolved
    count of 1 is the caller's cue to use the serial backend instead.
    """
    if isinstance(value, str):
        if value == "auto":
            workers = len(os.sched_getaffinity(0)) \
                if hasattr(os, "sched_getaffinity") \
                else os.cpu_count() or 1
        else:
            try:
                workers = int(value)
            except ValueError:
                raise ValueError(
                    f"workers must be 'auto' or a positive integer, "
                    f"got {value!r}") from None
    else:
        workers = value
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if task_count is not None:
        workers = max(1, min(workers, task_count))
    return workers


@dataclass
class PoolStats:
    """Supervision telemetry for one pool run (JSON-ready).

    Deliberately *outside* the batch summary: crash counts depend on
    nondeterministic kill timing, and the summary must stay
    byte-identical to the serial path.
    """

    workers: int = 0
    spawned: int = 0
    crashed: int = 0
    requeued: int = 0
    stolen: int = 0
    dead_lettered: int = 0
    stalls: int = 0
    #: Crash details in detection order, e.g. ``signal:SIGKILL``.
    crash_details: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"workers": self.workers, "spawned": self.spawned,
                "crashed": self.crashed, "requeued": self.requeued,
                "stolen": self.stolen,
                "dead_lettered": self.dead_lettered,
                "stalls": self.stalls,
                "crash_details": list(self.crash_details)}


# -- worker side -------------------------------------------------------

def _chaos_act(action: str, conn: _mp_connection.Connection,
               send_lock: threading.Lock) -> None:
    """Execute one injected chaos action inside the worker (test
    hook).  Every action ends this worker one way or another."""
    if action == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(3600)  # pragma: no cover - SIGKILL is immediate
    elif action == "sigterm":
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(3600)  # pragma: no cover - waiting for delivery
    elif action == "exit":
        os._exit(3)
    elif action == "garbage":
        # A complete, length-prefixed message whose payload is not a
        # valid pickle: the parent's recv() raises UnpicklingError,
        # which it must treat as a worker crash.  Then hang until the
        # supervisor kills us.
        with send_lock:
            conn.send_bytes(b"\x80\x04this is not a pickle")
        time.sleep(3600)
    elif action == "sigstop":
        # Freeze the whole process — ping thread included, which
        # is what distinguishes a wedged worker from a slow task.  The
        # parent's stall detector must SIGKILL us.
        os.kill(os.getpid(), signal.SIGSTOP)
        time.sleep(3600)
    else:  # pragma: no cover - rejected at PoolBackend construction
        raise AssertionError(f"unknown chaos action {action!r}")


def _ping_loop(conn: _mp_connection.Connection,
               send_lock: threading.Lock,
               interval: float) -> None:  # pragma: no cover - timing
    """Daemon thread: periodic liveness pings so the parent's stall
    detector can tell "slow task" from "wedged worker"."""
    while True:
        time.sleep(interval)
        try:
            with send_lock:
                conn.send(("hb",))
        except OSError:
            return


def _worker_main(runner: "BatchRunner",
                 conn: _mp_connection.Connection, ping_interval: float,
                 parent_ends: tuple = ()) -> None:
    """The forked worker entrypoint: recv an outcome, run its task's
    next attempt, send the outcome back.

    Fork hygiene first: close ``parent_ends`` — the parent-side ends of
    this worker's own pipe and of every older sibling's, all inherited
    by the fork.  While any process holds a pipe's parent end open,
    ``recv()`` cannot see EOF, so a worker whose parent was SIGKILLed
    would wait forever instead of taking the "parent died" exit.  Then
    a fresh metrics lock + registry (the inherited lock may be held by
    a parent thread) and a reset tracing module (no inherited sinks —
    the parent owns the trace file descriptor — and no inherited span
    stack).  The worker runs each attempt through the *same*
    ``runner._run_attempt`` as the serial loop, which waits the backoff
    the parent's retry decision planned; it never reads a breaker
    board, so per-task records are backend-independent.

    When the parent is tracing (a sink registered when it forked), the
    worker buffers every finished span's record and ships the buffer
    back with each result, where the supervisor stitches it into the
    parent trace under this worker's id.
    """
    for end in parent_ends:
        end.close()
    # Whether the parent was tracing, read before the reset below
    # drops the sinks the fork copied.
    traced = _obs.enabled and _trace.has_sinks()
    _obs.reinit_after_fork()
    _trace.reinit_after_fork()
    span_buffer: list[dict] = []
    if traced:
        _trace.add_sink(lambda span_: span_buffer.append(
            span_.as_record()))
    send_lock = threading.Lock()
    if ping_interval > 0:
        threading.Thread(target=_ping_loop,
                         args=(conn, send_lock, ping_interval),
                         daemon=True).start()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):  # parent died: nothing to do
            os._exit(1)
        if message[0] == "stop":
            dump = _obs.dump_raw()
            # Every counter arrived with its task's outcome; the bye
            # carries the histograms and timers, which ship nowhere
            # else.
            del dump["counters"]
            with send_lock:
                conn.send(("bye", dump))
            conn.close()
            os._exit(0)
        _kind, index, outcome, chaos = message
        if chaos is not None and chaos[1] == "pre":
            _chaos_act(chaos[0], conn, send_lock)
        try:
            runner._run_attempt(outcome)
        except BaseException:
            # Exception-safety breach (non-ReproError escaped): report
            # the traceback, then die with the breach exit code — the
            # parent crashes the batch loudly, like the serial path.
            try:
                with send_lock:
                    conn.send(("breach", traceback.format_exc()))
            except OSError:
                pass
            os._exit(BREACH_EXITCODE)
        if chaos is not None and chaos[1] == "post":
            _chaos_act(chaos[0], conn, send_lock)
        spans = span_buffer[:]
        span_buffer.clear()
        with send_lock:
            conn.send(("result", index, outcome, spans))


# -- parent side -------------------------------------------------------

@dataclass
class _Assignment:
    """One manifest task's journey through the pool."""

    index: int
    #: The task's outcome as of its last returned attempt: what a
    #: dispatch sends, and what a worker death sends again.
    outcome: TaskOutcome
    #: Whether the dispatched attempt has returned: the outcome waits
    #: in the window for the head's retry decision and its commit.
    returned: bool = False
    #: Worker deaths this task has already survived.
    crash_attempts: int = 0
    #: Failure records (batch-summary shape) for those deaths, kept in
    #: case the crash budget runs out and we must dead-letter.
    crash_failures: list[dict] = field(default_factory=list)
    #: Signature of the most recent crash (the dead letter's).
    crash_signature: str | None = None
    #: The worker that last held this task (steal accounting).
    last_worker: int | None = None


def _queued_message_bytes(conn: _mp_connection.Connection) -> int:
    """The largest dispatch a busy worker is sent: :data:`WINDOW` of
    them fit in half its pipe's send buffer, so queueing one never
    blocks the supervisor while the worker blocks sending a result.  An
    idle worker is reading its pipe, so it takes a dispatch of any
    size."""
    with socket.fromfd(conn.fileno(), socket.AF_UNIX,
                       socket.SOCK_STREAM) as sock:
        buffer = sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
    return buffer // (2 * WINDOW)


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("id", "proc", "conn", "queue", "queued_message_bytes",
                 "last_seen", "kill_reason", "stopping")

    def __init__(self, worker_id: int, proc, conn) -> None:
        self.id = worker_id
        self.proc = proc
        self.conn = conn
        #: The attempts sent down this worker's pipe and not yet
        #: returned, in the order it runs them: the first is running.
        self.queue: deque[_Assignment] = deque()
        self.queued_message_bytes = _queued_message_bytes(conn)
        self.last_seen = time.monotonic()
        #: Set by the parent before it SIGKILLs the worker, so the
        #: death handler can report *why* (stall, corrupt pipe).
        self.kill_reason: str | None = None
        self.stopping = False


class PoolBackend:
    """Process-pool execution backend for :class:`BatchRunner`.

    ``workers``
        Target pool size (already resolved; see
        :func:`resolve_workers`).
    ``crash_retries``
        Worker deaths one task may survive before dead-lettering with
        reason ``worker_crash`` (its *crash budget*, separate from the
        in-task retry budget).
    ``stall_timeout``
        Seconds without any message from a worker with a task in
        flight before the supervisor declares it wedged and SIGKILLs
        it (crash detail ``stall``).  ``0`` disables stall detection.
    ``chaos``
        Test hook: ``{task_id: {crash_attempt: (action, timing)}}``
        injects a worker death around a specific dispatch — actions
        from :data:`CHAOS_ACTIONS`, timings from
        :data:`CHAOS_TIMINGS` (``post`` runs the task first, so the
        requeued task proves re-execution).

    After :meth:`run`, ``stats`` holds the :class:`PoolStats`.  The
    runner's own :class:`~repro.runtime.breaker.BreakerBoard` carries
    the in-task breaker state, asked and settled in index order, so
    :meth:`BatchRunner.summarize` reports it exactly as a serial run
    would.
    """

    name = "pool"

    #: Supervision loop tick (seconds): upper bound on how stale the
    #: stall detector's view can be; events wake the loop immediately.
    _TICK = 0.2

    def __init__(self, workers: int, *,
                 crash_retries: int = DEFAULT_CRASH_RETRIES,
                 stall_timeout: float = 0.0,
                 chaos: dict[str, dict[int, tuple[str, str]]]
                 | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if crash_retries < 0:
            raise ValueError(
                f"crash_retries must be >= 0, got {crash_retries}")
        if stall_timeout < 0:
            raise ValueError(
                f"stall_timeout must be >= 0, got {stall_timeout}")
        if chaos:
            for task_id, plan in chaos.items():
                for attempt, (action, timing) in plan.items():
                    if action not in CHAOS_ACTIONS:
                        raise ValueError(
                            f"unknown chaos action {action!r} for "
                            f"task {task_id!r}")
                    if timing not in CHAOS_TIMINGS:
                        raise ValueError(
                            f"unknown chaos timing {timing!r} for "
                            f"task {task_id!r}")
        self.workers = workers
        self.crash_retries = crash_retries
        self.stall_timeout = stall_timeout
        self.chaos = chaos or {}
        self.stats = PoolStats()
        self._live: dict[int, _Worker] = {}
        self._next_id = 0

    # -- the supervision loop ------------------------------------------

    def run(self, runner: BatchRunner) -> list[TaskOutcome]:
        manifest = runner.manifest
        total = manifest.task_count
        if total == 0:
            return []
        ctx = get_context("fork")
        crash_policy = RetryPolicy(retries=self.crash_retries,
                                   backoff_base_ms=0.0,
                                   seed=runner.policy.seed)
        # Journal-completed tasks are pre-merged and never dispatched;
        # without a journal this is the plain indexed manifest walk.
        task_iter: Iterator[tuple[int, Task]] = \
            iter(runner.pending_tasks())
        # The reorder buffer: dispatched tasks not yet committed, in
        # index order; and the attempts to dispatch again (retries and
        # crash requeues), which go first.
        window: deque[_Assignment] = deque()
        pending: deque[_Assignment] = deque()
        outcomes: dict[int, TaskOutcome] = \
            dict(runner.replayed_outcomes())
        if len(outcomes) >= total:
            return [outcomes[index] for index in range(total)]
        exhausted = False
        target = min(self.workers, total - len(outcomes))
        self.stats.workers = target

        def next_assignment() -> _Assignment | None:
            nonlocal exhausted
            if pending:
                # A requeue, not a new dispatch: its slot in the window
                # is already taken.
                return pending.popleft()
            if exhausted or len(window) >= WINDOW * target:
                return None
            try:
                index, task = next(task_iter)
            except StopIteration:
                exhausted = True
                return None
            window.append(_Assignment(index=index,
                                      outcome=TaskOutcome(task=task)))
            return window[-1]

        def advance() -> None:
            """Commit the window's returned head run in index order,
            deciding the head's retry first: it fires when the head's
            own attempt returns and when the task before it commits."""
            while window and window[0].returned:
                head = window[0]
                if head.outcome.undecided and runner.decide(head.outcome):
                    head.returned = False
                    head.last_worker = None  # a retry is no steal
                    pending.appendleft(head)
                    return
                # Journaled before the in-memory merge, so a killed
                # parent loses nothing it committed; the pass's sync
                # makes the record survive a power loss too.
                runner.commit(head.index, head.outcome, outcomes)
                window.popleft()

        def dead_letter(assignment: _Assignment) -> None:
            """The crash budget ran out: the attempts the task returned,
            then the crashes, dead-lettered ``worker_crash``."""
            self.stats.dead_lettered += 1
            outcome = assignment.outcome
            outcome.attempts += len(assignment.crash_failures)
            outcome.failures += assignment.crash_failures
            outcome.status = "dead-letter"
            outcome.reason = REASON_WORKER_CRASH
            outcome.signature = assignment.crash_signature
            assignment.returned = True
            advance()

        def handle_result(worker: _Worker, index: int,
                          outcome: TaskOutcome,
                          spans: list[dict]) -> None:
            if not worker.queue or worker.queue[0].index != index:
                # Results come back in the order the attempts were
                # sent; any other can only mean supervisor state
                # corruption, so fail loudly.
                raise RuntimeError(
                    f"pool protocol violation: worker {worker.id} "
                    f"returned task index {index} out of turn")
            assignment = worker.queue.popleft()
            if _obs.enabled:
                # The delta is the task's running total, so the
                # registry takes what this attempt added.  Unpickling
                # makes fresh name strings per result, and the outcome
                # lives to the summary: interned, every outcome shares
                # one copy of each name.
                held = assignment.outcome.counter_delta
                outcome.counter_delta = {
                    sys.intern(name): value
                    for name, value in outcome.counter_delta.items()}
                for name, value in outcome.counter_delta.items():
                    _obs.inc(name, value - held.get(name, 0))
                if spans:
                    # Stitch the worker's finished spans into this
                    # process's trace: fresh ids, shipment tops
                    # reparented under the supervisor's open CLI span.
                    _trace.ingest_records(spans, worker=worker.id)
            assignment.outcome = outcome
            assignment.returned = True
            advance()

        def receive(worker: _Worker) -> tuple[list, bool]:
            """The messages waiting on ``worker``'s pipe, and whether
            one could not be unpickled.  Only the pipe calls are
            guarded: an error while *handling* a message (the parent's
            own journal or ledger append) ends the batch instead of
            passing for a worker death."""
            messages: list = []
            try:
                while worker.conn.poll():
                    messages.append(worker.conn.recv())
            except (EOFError, OSError):
                pass  # death: the sentinel handler takes over
            except Exception:  # unpicklable: the channel is poisoned
                return messages, True
            return messages, False

        def handle_death(worker: _Worker) -> None:
            nonlocal breach
            self._live.pop(worker.id, None)
            worker.proc.join()
            breach_report: str | None = None
            if worker.kill_reason is None and not worker.stopping:
                # Natural death: a result or a breach report may be
                # sitting in the pipe (the worker died
                # between send and our next recv) — drain it before
                # judging, so no task ever runs twice *visibly* and
                # no breach is misfiled as a requeueable crash.
                for message in receive(worker)[0]:
                    if message[0] == "result":
                        handle_result(worker, *message[1:])
                    elif message[0] == "breach":
                        breach_report = message[1]
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.stopping:
                return
            exitcode = worker.proc.exitcode
            if worker.kill_reason is None and (
                    breach_report is not None
                    or exitcode == BREACH_EXITCODE):
                # The breach exit code is authoritative even when the
                # report message never arrived (its send failed, or
                # the worker was killed mid-send): a contract breach
                # must crash the batch, never burn the crash budget.
                breach = breach_report if breach_report is not None \
                    else (f"<worker {worker.id} exited with the "
                          "breach code before its traceback could "
                          "be read>")
                raise _BreachSignal()
            if worker.kill_reason is not None:
                detail = worker.kill_reason
            elif exitcode is not None and exitcode < 0:
                try:
                    detail = f"signal:{signal.Signals(-exitcode).name}"
                except ValueError:
                    detail = f"signal:{-exitcode}"
            else:
                detail = f"exitcode:{exitcode}"
            self.stats.crashed += 1
            self.stats.crash_details.append(detail)
            if _obs.enabled:
                _obs.inc("runtime.pool.crashed")
            print(f"xnf batch: worker {worker.id} died ({detail})",
                  file=sys.stderr)
            # Only the first unreturned attempt was running, so only it
            # is charged; the ones queued behind it never started.
            running = worker.queue.popleft() if worker.queue else None
            back = list(worker.queue)
            worker.queue.clear()
            spent = None
            if running is not None:
                error = WorkerCrash(detail, worker=worker.id)
                sig = failure_signature(error)
                running.crash_failures.append(
                    {"attempt": running.crash_attempts,
                     "signature": sig, "transient": True,
                     "chain": error_chain(error)})
                running.crash_signature = sig
                if crash_policy.should_retry(
                        error, running.crash_attempts):
                    running.crash_attempts += 1
                    back.append(running)
                    self.stats.requeued += 1
                    if _obs.enabled:
                        _obs.inc("runtime.pool.requeued")
                else:
                    spent = running
            # Back to the front of the queue in index order, ahead of a
            # retry that the dead letter's commit may decide.
            pending.extendleft(sorted(back, key=lambda queued: queued.index,
                                      reverse=True))
            if spent is not None:
                dead_letter(spent)
            # Keep the pool at strength while there is work left.
            if len(outcomes) < total:
                spawn()

        def spawn() -> None:
            if len(self._live) >= target:
                return
            worker_id = self._next_id
            self._next_id += 1
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            interval = self.stall_timeout / 4 \
                if self.stall_timeout > 0 else 0.0
            parent_ends = (parent_conn, *(worker.conn for worker
                                          in self._live.values()))
            proc = ctx.Process(
                target=_worker_main,
                args=(runner, child_conn, interval, parent_ends),
                name=f"xnf-batch-worker-{worker_id}", daemon=True)
            proc.start()
            child_conn.close()
            self._live[worker_id] = _Worker(worker_id, proc,
                                            parent_conn)
            self.stats.spawned += 1
            if _obs.enabled:
                _obs.inc("runtime.pool.spawned")
                _obs.set_gauge("runtime.pool.workers.alive",
                               len(self._live))

        def dispatch() -> None:
            """Feed the workers: each next attempt goes down the pipe of
            the worker with the fewest queued, until every worker holds
            :data:`WINDOW` or nothing is left to send."""
            feedable = [worker for worker in self._live.values()
                        if not worker.stopping
                        and worker.kill_reason is None]
            while feedable:
                worker = min(feedable, key=lambda live: len(live.queue))
                if len(worker.queue) >= WINDOW:
                    return
                assignment = next_assignment()
                if assignment is None:
                    return
                chaos = self.chaos.get(assignment.outcome.task.id,
                                       {}).get(assignment.crash_attempts)
                message = ForkingPickler.dumps(
                    ("task", assignment.index, assignment.outcome, chaos))
                if worker.queue \
                        and len(message) > worker.queued_message_bytes:
                    # Too large to queue behind a running attempt: it
                    # waits for a worker that is reading its pipe.
                    pending.appendleft(assignment)
                    return
                try:
                    worker.conn.send_bytes(message)
                except OSError:
                    # Died between wait() and send(): put the task
                    # back; the sentinel wakes us to handle the death.
                    pending.appendleft(assignment)
                    feedable.remove(worker)
                    continue
                if assignment.last_worker is not None \
                        and assignment.last_worker != worker.id:
                    self.stats.stolen += 1
                    if _obs.enabled:
                        _obs.inc("runtime.pool.stolen")
                assignment.last_worker = worker.id
                if not worker.queue:  # its stall clock starts now
                    worker.last_seen = time.monotonic()
                worker.queue.append(assignment)

        breach: str | None = None
        try:
            for _ in range(target):
                spawn()
            dispatch()
            while len(outcomes) < total:
                if not self._live:
                    # Every worker is gone yet work remains — only
                    # reachable if spawning itself fails.
                    raise RuntimeError(
                        "pool lost all workers with "
                        f"{total - len(outcomes)} tasks unfinished")
                # Group commit: the results this pass committed become
                # durable in one fsync, after dispatch() has refilled
                # the workers, so they run while the disk syncs.
                runner.sync()
                conns = {worker.conn: worker
                         for worker in self._live.values()}
                sentinels = {worker.proc.sentinel: worker
                             for worker in self._live.values()}
                ready = _mp_connection.wait(
                    list(conns) + list(sentinels), timeout=self._TICK)
                for item in ready:
                    worker = conns.get(item)
                    if worker is None:
                        continue  # sentinel: handled below
                    if worker.id not in self._live:
                        continue  # already reaped this round
                    messages, poisoned = receive(worker)
                    if messages:
                        worker.last_seen = time.monotonic()
                    for message in messages:
                        if message[0] == "result":
                            handle_result(worker, *message[1:])
                        elif message[0] == "hb":
                            pass
                        elif message[0] == "breach":
                            breach = message[1]
                            raise _BreachSignal()
                        else:  # pragma: no cover - defensive
                            raise RuntimeError(
                                f"unknown pool message {message[0]!r}")
                    if poisoned:
                        # recv() could not unpickle what the worker
                        # wrote: the channel is poisoned — kill the
                        # worker and let the death handler requeue.
                        self._kill(worker, "unpicklable-result")
                for item in ready:
                    worker = sentinels.get(item)
                    if worker is not None and worker.id in self._live:
                        handle_death(worker)
                if self.stall_timeout > 0:
                    now = time.monotonic()
                    for worker in list(self._live.values()):
                        if worker.queue \
                                and worker.kill_reason is None \
                                and now - worker.last_seen \
                                > self.stall_timeout:
                            self.stats.stalls += 1
                            self._kill(worker, "stall")
                dispatch()
            runner.sync()
            self._shutdown_graceful()
        except _BreachSignal:
            raise RuntimeError(
                "worker exception-safety contract breach "
                "(non-ReproError escaped a task):\n"
                + (breach or "<no traceback>")) from None
        finally:
            # Inside the finally so the drained-pool gauge state is
            # honest even when a breach (or any other error) unwinds
            # the supervision loop: once _shutdown_force returns, no
            # worker is alive, and a lingering exporter scrape must
            # see zero.
            self._shutdown_force()
            if _obs.enabled:
                _obs.set_gauge("runtime.pool.workers.alive", 0)
        return [outcomes[index] for index in range(total)]

    # -- teardown ------------------------------------------------------

    def _kill(self, worker: _Worker, reason: str) -> None:
        worker.kill_reason = reason
        try:
            os.kill(worker.proc.pid, signal.SIGKILL)
        except (OSError, TypeError):  # pragma: no cover - already gone
            pass

    def _shutdown_graceful(self) -> None:
        """Stop idle workers, collecting their metrics dumps (the
        ``bye`` message).

        A worker with stall pings enabled may have ``hb`` pings queued
        ahead of its bye, so each pipe is drained until the bye, EOF,
        or the deadline — one blind recv would swallow the dump.
        """
        for worker in list(self._live.values()):
            worker.stopping = True
            try:
                worker.conn.send(("stop",))
            except OSError:
                continue
        deadline = time.monotonic() + 10.0
        for worker in list(self._live.values()):
            try:
                while True:
                    remaining = max(0.0, deadline - time.monotonic())
                    if not worker.conn.poll(remaining):
                        break
                    message = worker.conn.recv()
                    if message[0] == "bye":
                        _obs.merge_raw(message[1])
                        # Free this dump before the next one arrives:
                        # two at once set the run's peak RSS.
                        del message
                        break
            except (EOFError, OSError):
                pass
            worker.proc.join(
                timeout=max(0.1, deadline - time.monotonic()))
            self._live.pop(worker.id, None)
            try:
                worker.conn.close()
            except OSError:
                pass

    def _shutdown_force(self) -> None:
        """Last-resort teardown: SIGKILL anything still alive."""
        for worker in list(self._live.values()):
            try:
                if worker.proc.is_alive():
                    os.kill(worker.proc.pid, signal.SIGKILL)
            except (OSError, TypeError):
                pass
            worker.proc.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._live.clear()


class _BreachSignal(Exception):
    """Internal control flow: a worker reported a contract breach."""
