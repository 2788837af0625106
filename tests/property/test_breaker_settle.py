"""Reference property for ``repro.runtime.batch.settle``.

The retry loop only reads a refused set, and ``settle`` applies each
finished task's breaker traffic when it commits, in index order.  This
must decide exactly what the old inline loop decided, which asked the
board before every retry and recorded the terminal event on the spot.
A test-only copy of that loop is the oracle here.  Random per-attempt
failure schedules (transient and permanent signatures, retries 0-3,
thresholds 1-3, probe intervals 1-4) run three ways:

* the oracle, on its own board;
* serially: each task gets the refused set of the board it commits to,
  and settle must neither truncate nor send a task back;
* pool-style: each task gets the refused set of a board up to
  ``LAG`` commits stale, as far as a pool's reorder window lets it
  lag.  Settle truncates or sends back, and a task sent back runs
  again with the exact set.

All three must agree on every outcome and on the final
``BreakerBoard.snapshot()``.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import InjectedFault, ReproError
from repro.runtime import manifest as mf
from repro.runtime.batch import (
    REASON_BREAKER_OPEN,
    REASON_PERMANENT,
    REASON_RETRIES_EXHAUSTED,
    BatchRunner,
    TaskOutcome,
    error_chain,
    settle,
)
from repro.runtime.breaker import BreakerBoard, failure_signature
from repro.runtime.pool import WINDOW
from repro.runtime.retry import RetryPolicy, is_transient

#: How many commits a pool-style refused set may lag the board: the
#: reorder window of a two-worker pool.
LAG = 2 * WINDOW

#: Per-attempt results: succeed, fail transiently at one of two sites,
#: or fail permanently.
RESULTS = ("ok", "site-a", "site-b", "permanent")


class _Permanent(ReproError):
    pass


def _error(result: str) -> ReproError:
    if result == "permanent":
        return _Permanent("bad input")
    return InjectedFault(result, "exception")


def _runner(schedule, retries, threshold, probe_interval):
    """A runner whose attempt ``a`` of task ``i`` follows
    ``schedule[i][a]``; an attempt whose flag is set also records one
    ensemble disagreement, as a ``check``-mode session would."""
    manifest = mf.build([{"id": f"t{index}", "op": "check",
                          "dtd_text": "<!ELEMENT r EMPTY>"}
                         for index in range(len(schedule))])
    runner = BatchRunner(
        manifest, policy=RetryPolicy(retries=retries, backoff_base_ms=0),
        board=BreakerBoard(threshold=threshold,
                           probe_interval=probe_interval),
        sleeper=lambda ms: None)

    def attempt(task, outcome):
        result, disagrees = schedule[int(task.id[1:])][outcome.attempts - 1]
        if disagrees:
            outcome.disagreements.append(
                {"query": f"{task.id}/{outcome.attempts - 1}"})
        if result != "ok":
            raise _error(result)
        return {"in_xnf": True}

    runner._attempt = attempt
    return runner


def _oracle(runner: BatchRunner, task) -> TaskOutcome:
    """The inline board loop the retry loop had before ``settle``:
    ``allows_retries`` before every retry, the terminal event on the
    spot."""
    board = runner.board
    outcome = TaskOutcome(task=task)
    last_signature = None
    while True:
        attempt = outcome.attempts
        outcome.attempts += 1
        try:
            outcome.result = runner._attempt(task, outcome)
        except ReproError as error:
            signature = failure_signature(error)
            breaker = board.get(signature)
            last_signature = signature
            outcome.failures.append(
                {"attempt": attempt, "signature": signature,
                 "transient": is_transient(error),
                 "chain": error_chain(error)})
            if runner.policy.should_retry(error, attempt):
                if breaker.allows_retries():
                    outcome.delays_ms.append(
                        runner.policy.delay_ms(task.id, attempt))
                    continue
                breaker.record_skip()
                outcome.reason = REASON_BREAKER_OPEN
            else:
                breaker.record_failure()
                outcome.reason = REASON_RETRIES_EXHAUSTED \
                    if is_transient(error) else REASON_PERMANENT
            outcome.status = "dead-letter"
            outcome.signature = signature
            return outcome
        if last_signature is not None:
            board.get(last_signature).record_success()
        return outcome


def _view(outcome: TaskOutcome) -> tuple:
    return outcome.to_json(), outcome.reason, outcome.signature


def _serial(runner: BatchRunner) -> list[tuple]:
    views = []
    for task in runner.manifest.tasks:
        outcome = runner._run_task(task)  # reads the board it settles on
        ran = _view(outcome)
        assert settle(runner.board, outcome), "serial task sent back"
        assert _view(outcome) == ran, "serial task truncated"
        views.append(ran)
    return views


def _pool(runner: BatchRunner, lags: list[int]) -> tuple[list, int]:
    """Commit in index order; task ``i`` was dispatched with the
    refused set of the board ``lags[i]`` commits before its own."""
    board = runner.board
    refused_after = [board.refused()]  # after 0, 1, 2, ... commits
    views, sent_back = [], 0
    for index, task in enumerate(runner.manifest.tasks):
        stale = refused_after[max(0, index - lags[index])]
        outcome = runner._run_task(task, stale)
        while not settle(board, outcome):
            sent_back += 1
            outcome = runner._run_task(task, board.refused())
        views.append(_view(outcome))
        refused_after.append(board.refused())
    return views, sent_back


attempt_results = st.tuples(st.sampled_from(RESULTS), st.booleans())


@st.composite
def batches(draw):
    retries = draw(st.integers(0, 3))
    tasks = draw(st.integers(1, 14))
    schedule = [draw(st.lists(attempt_results, min_size=retries + 1,
                              max_size=retries + 1))
                for _ in range(tasks)]
    lags = draw(st.lists(st.integers(0, LAG), min_size=tasks,
                         max_size=tasks))
    # Dispatch is in index order: a later task never reads an older
    # board than an earlier one.
    for index in range(1, tasks):
        lags[index] = min(lags[index], lags[index - 1] + 1)
    return (schedule, retries, draw(st.integers(1, 3)),
            draw(st.integers(1, 4)), lags)


@settings(max_examples=400, deadline=None)
@given(batches())
def test_settle_matches_the_inline_board_loop(batch):
    schedule, retries, threshold, probe_interval, lags = batch

    def fresh():
        return _runner(schedule, retries, threshold, probe_interval)

    oracle = fresh()
    expected = [_view(_oracle(oracle, task))
                for task in oracle.manifest.tasks]
    snapshot = oracle.board.snapshot()

    serial = fresh()
    assert _serial(serial) == expected
    assert serial.board.snapshot() == snapshot

    pool = fresh()
    views, _ = _pool(pool, lags)
    assert views == expected
    assert pool.board.snapshot() == snapshot


def test_lagging_sets_are_truncated_and_sent_back():
    """The pool-style path really exercises both repairs: a run where
    every task reads the empty board truncates retries the board now
    refuses, and one where breakers reopen sends tasks back."""
    always = [(("site-a", False),) * 3] * 12
    runner = _runner(always, retries=2, threshold=1, probe_interval=2)
    views, sent_back = _pool(runner, list(range(12)))
    reasons = [view[1] for view in views]
    assert reasons[0] == REASON_RETRIES_EXHAUSTED
    assert REASON_BREAKER_OPEN in reasons
    oracle = _runner(always, retries=2, threshold=1, probe_interval=2)
    assert views == [_view(_oracle(oracle, task))
                     for task in oracle.manifest.tasks]

    mixed = [(("site-a", False),) * 3] * 3 + [(("ok", False),)] \
        + [(("site-a", False),) * 3] * 8
    runner = _runner(mixed, retries=2, threshold=1, probe_interval=1)
    # Every task sees the board one commit late.
    _, sent_back = _pool(runner, [0] + [1] * 11)
    assert sent_back > 0


def test_truncation_drops_the_cut_attempts_disagreements():
    schedule = [[("site-a", False)] * 3,
                [("site-a", True), ("site-a", True), ("ok", True)]]
    runner = _runner(schedule, retries=2, threshold=1, probe_interval=4)
    first = runner._run_task(runner.manifest.tasks[0], frozenset())
    second = runner._run_task(runner.manifest.tasks[1], frozenset())
    assert second.ok and len(second.disagreements) == 3
    assert settle(runner.board, first)
    assert settle(runner.board, second)
    assert second.reason == REASON_BREAKER_OPEN
    assert second.attempts == 1 and second.delays_ms == []
    assert second.disagreements == [{"query": "t1/0"}]
    assert second.result is None
