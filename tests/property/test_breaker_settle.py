"""Reference property for the retry decisions of ``repro.runtime.batch``.

The runner decides every retry (``BatchRunner.decide``: the policy,
then the board), and ``settle`` records each finished task's terminal
breaker event when it commits, in index order.  Together they must
decide exactly what the old inline loop decided, which asked the board
before every retry and recorded the terminal event on the spot.  A
test-only copy of that loop is the oracle here.  Random per-attempt
failure schedules (transient and permanent signatures, retries 0-3,
thresholds 1-3, probe intervals 1-4) run three ways:

* the oracle, on its own board;
* serially: the runner decides after each attempt;
* on ``PoolBackend(2)``, each task napping a random few milliseconds
  per attempt, so attempts return out of index order: the pool decides
  only for the head of its commit order.

All three must agree on every outcome and on the final
``BreakerBoard.snapshot()``: the serial and pool summaries must equal
the one the oracle's outcomes make.
"""

from __future__ import annotations

import time

import pytest
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
)
from repro.runtime.breaker import BreakerBoard, failure_signature
from repro.runtime.pool import PoolBackend, pool_available
from repro.runtime.retry import RetryPolicy, is_transient

#: Per-attempt results: succeed, fail transiently at one of two sites,
#: or fail permanently.
RESULTS = ("ok", "site-a", "site-b", "permanent")

#: The pool leg's results: ``site-a`` weighted, so its breaker trips
#: in most batches, while tasks behind a slow one are deciding.
POOL_RESULTS = ("ok", "site-a", "site-a", "site-a", "site-b", "permanent")

#: Per-task naps (seconds) on the pool: enough to reorder the returns.
NAPS = (0.0, 0.005)


class _Permanent(ReproError):
    pass


def _error(result: str) -> ReproError:
    if result == "permanent":
        return _Permanent("bad input")
    return InjectedFault(result, "exception")


def _runner(schedule, retries, threshold, probe_interval, naps=None,
            backend=None):
    """A runner whose attempt ``a`` of task ``i`` follows
    ``schedule[i][a]``, after a nap of ``naps[i]`` seconds when given;
    an attempt whose flag is set also records one ensemble
    disagreement, as a ``check``-mode session would."""
    manifest = mf.build([{"id": f"t{index}", "op": "check",
                          "dtd_text": "<!ELEMENT r EMPTY>"}
                         for index in range(len(schedule))])
    runner = BatchRunner(
        manifest, policy=RetryPolicy(retries=retries, backoff_base_ms=0),
        board=BreakerBoard(threshold=threshold,
                           probe_interval=probe_interval),
        sleeper=lambda ms: None, backend=backend)

    def attempt(task, outcome):
        index = int(task.id[1:])
        if naps:
            time.sleep(naps[index])
        result, disagrees = schedule[index][outcome.attempts - 1]
        if disagrees:
            outcome.disagreements.append(
                {"query": f"{task.id}/{outcome.attempts - 1}"})
        if result != "ok":
            raise _error(result)
        return {"in_xnf": True}

    # Fork shares the patched method with the pool's workers.
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


def _expected(schedule, retries, threshold, probe_interval) -> dict:
    """The summary of the oracle's outcomes and board."""
    oracle = _runner(schedule, retries, threshold, probe_interval)
    return oracle.summarize([_oracle(oracle, task)
                             for task in oracle.manifest.tasks])


@st.composite
def batches(draw, results=RESULTS, min_retries=0, min_tasks=1):
    retries = draw(st.integers(min_retries, 3))
    tasks = draw(st.integers(min_tasks, 14))
    attempt = st.tuples(st.sampled_from(results), st.booleans())
    schedule = [draw(st.lists(attempt, min_size=retries + 1,
                              max_size=retries + 1))
                for _ in range(tasks)]
    return (schedule, retries, draw(st.integers(1, 3)),
            draw(st.integers(1, 4)))


@settings(max_examples=400, deadline=None)
@given(batches())
def test_settle_matches_the_inline_board_loop(batch):
    assert _runner(*batch).run() == _expected(*batch)


@pytest.mark.skipif(not pool_available(),
                    reason="fork start method unavailable")
@settings(max_examples=25, deadline=None)
@given(batches(POOL_RESULTS, min_retries=1, min_tasks=6), st.data())
def test_pool_decides_at_the_head_as_the_inline_loop(batch, data):
    naps = data.draw(st.lists(st.sampled_from(NAPS),
                              min_size=len(batch[0]),
                              max_size=len(batch[0])))
    pool = _runner(*batch, naps=naps, backend=PoolBackend(2))
    assert pool.run() == _expected(*batch)
