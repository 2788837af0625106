"""Chaos acceptance for the batch runtime: zero task loss, ever.

The invariant the whole ``repro.runtime`` layer exists for
(docs/ROBUSTNESS.md): whatever faults fire inside the engines, every
manifest task is accounted for in the batch summary as ``ok`` or
``failed`` — ``counts.lost`` is 0, every dead letter carries a full
error chain, and the report is valid JSON.  The second acceptance
criterion rides along: across a seeded random spec corpus the
differential engine ensemble records **zero** disagreements — the
three implication engines really do implement the same relation.

Scale knobs (CI raises both; see .github/workflows/ci.yml):

* ``REPRO_BATCH_CHAOS_TASKS`` — tasks in the big chaos batch (CI: 200)
* ``REPRO_ENSEMBLE_SPECS`` — specs in the agreement sweep (CI: 200)

All fault plans and corpora are seeded, so every failure replays.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults
from repro.runtime import corpus
from repro.runtime import manifest as mf
from repro.runtime.batch import run_batch
from repro.runtime.breaker import BreakerBoard
from repro.runtime.retry import RetryPolicy

BATCH_CHAOS_TASKS = int(os.environ.get("REPRO_BATCH_CHAOS_TASKS", "40"))
ENSEMBLE_SPECS = int(os.environ.get("REPRO_ENSEMBLE_SPECS", "40"))

#: Sites inside the engines a batch task actually drives, from parse
#: through implication to normalization.
TASK_SITES = (
    "dtd.parser.input", "dtd.parser.decl",
    "fd.closure.iteration", "fd.chase.branch", "fd.chase.step",
    "normalize.round",
)


@pytest.fixture(autouse=True)
def _no_leaked_plans():
    yield
    faults.teardown()


def _manifest(count: int, seed: int) -> mf.Manifest:
    return mf.from_payload(corpus.generate_manifest(count, seed=seed))


def _assert_nothing_lost(summary: dict, total: int) -> None:
    counts = summary["counts"]
    assert counts["lost"] == 0
    assert counts["total"] == total
    assert counts["ok"] + counts["failed"] == total
    assert len(summary["tasks"]) == total
    assert len(summary["dead_letters"]) == counts["failed"]
    for letter in summary["dead_letters"]:
        assert letter["error_chain"], letter["id"]
        assert letter["reason"] in ("permanent", "retries_exhausted",
                                    "breaker_open", "worker_crash")
    json.dumps(summary)       # the report itself must serialize


def test_clean_corpus_batch_is_all_ok():
    """The baseline: without faults the corpus is fully green, so any
    dead letter in the chaos runs below is injection, not corpus."""
    total = max(10, BATCH_CHAOS_TASKS // 4)
    summary = run_batch(_manifest(total, seed=1),
                        policy=RetryPolicy(backoff_base_ms=0, seed=1))
    assert summary["counts"] == {"total": total, "ok": total,
                                 "failed": 0, "lost": 0}


def test_big_batch_under_sustained_fault_storm_loses_nothing():
    """The headline acceptance run: a storm of transient faults across
    every engine site, enough arms to outlast retry budgets and trip
    breakers — and still every task is accounted for."""
    total = BATCH_CHAOS_TASKS
    arms = []
    for site in TASK_SITES:
        arms.extend([f"{site}:exception"] * (total // 2))
    plan = faults.plan_from_spec(",".join(arms), seed=17)
    with faults.use(plan):
        summary = run_batch(
            _manifest(total, seed=17),
            policy=RetryPolicy(retries=2, backoff_base_ms=0, seed=17),
            board=BreakerBoard(threshold=3, probe_interval=5))
    _assert_nothing_lost(summary, total)
    # The storm really happened: faults fired and the runner retried.
    assert plan.fired
    assert any(task["retried"] for task in summary["tasks"])


def test_chaos_batches_are_replay_identical():
    """Same manifest, same fault plan, same seed: byte-identical
    summaries — a failing chaos run is always reproducible."""
    def one_run():
        with faults.use(faults.plan_from_spec(
                "fd.closure.iteration:exception:1,"
                "fd.chase.step:allocation,"
                "normalize.round:exhaustion", seed=23)):
            return json.dumps(run_batch(
                _manifest(12, seed=23),
                policy=RetryPolicy(retries=2, backoff_base_ms=50,
                                   seed=23),
                sleeper=lambda ms: None), sort_keys=True)
    assert one_run() == one_run()


@settings(max_examples=25, deadline=None)
@given(site=st.sampled_from(TASK_SITES),
       kind=st.sampled_from(sorted(faults.RAISE_KINDS)),
       after=st.integers(0, 6),
       arms=st.integers(1, 30),
       seed=st.integers(0, 1_000))
def test_chaos_sweep_any_plan_loses_nothing(site, kind, after, arms,
                                            seed):
    """Property form: any single-site plan — any kind, any delay, any
    arm count — against a small corpus batch keeps the invariant."""
    spec = ",".join([f"{site}:{kind}:{after}"] * arms)
    with faults.use(faults.plan_from_spec(spec, seed=seed)):
        summary = run_batch(
            _manifest(6, seed=seed),
            policy=RetryPolicy(retries=1, backoff_base_ms=0, seed=seed),
            board=BreakerBoard(threshold=2, probe_interval=3))
    _assert_nothing_lost(summary, 6)


def test_ensemble_agreement_over_random_spec_corpus():
    """Acceptance: the three engines agree on every corpus spec.  Run
    in ``check`` mode so a disagreement would be *recorded* (and the
    assertion message would carry it) rather than crash the sweep."""
    summary = run_batch(
        _manifest(ENSEMBLE_SPECS, seed=5),
        policy=RetryPolicy(backoff_base_ms=0, seed=5),
        ensemble_mode="check")
    _assert_nothing_lost(summary, ENSEMBLE_SPECS)
    assert summary["counts"]["failed"] == 0
    disagreements = [task.get("disagreements")
                     for task in summary["tasks"]
                     if task.get("disagreements")]
    assert summary["ensemble_disagreements"] == 0, disagreements


# -- worker-crash chaos (the pool backend) ---------------------------
#
# The parallel counterpart of the fault storms above: instead of
# exceptions *inside* the engines, whole worker processes die —
# SIGKILL, SIGTERM, plain exits, corrupted result pipes — at chosen
# points of a task's life.  The invariants are stronger than
# zero-task-loss: a run whose every task eventually succeeds must
# produce a summary *byte-identical* to the serial backend's (crash
# recovery is telemetry, not report content; docs/ROBUSTNESS.md).

POOL_CRASH_ACTIONS = ("sigkill", "sigterm", "exit", "garbage")


def _pool_run(count, seed, *, workers=2, chaos=None, crash_retries=3):
    from repro.runtime.batch import BatchRunner
    from repro.runtime.pool import PoolBackend
    pool = PoolBackend(workers, crash_retries=crash_retries,
                       chaos=chaos)
    runner = BatchRunner(corpus.stream_manifest(count, seed=seed),
                         policy=RetryPolicy(backoff_base_ms=0,
                                            seed=seed),
                         backend=pool, sleeper=lambda ms: None)
    return runner.run(), pool


def _serial_run(count, seed):
    return run_batch(corpus.stream_manifest(count, seed=seed),
                     policy=RetryPolicy(backoff_base_ms=0, seed=seed),
                     sleeper=lambda ms: None)


@pytest.mark.parametrize("action", POOL_CRASH_ACTIONS)
@pytest.mark.parametrize("timing", ("pre", "post"))
def test_worker_crash_sweep_first_attempt(action, timing):
    """Kill a worker around its first dispatch of one task — before
    the task runs or after it ran but before the result shipped — for
    every crash detection source.  Zero loss, byte-identical report."""
    chaos = {"corpus-0002": {0: (action, timing)}}
    summary, pool = _pool_run(6, seed=31, chaos=chaos)
    _assert_nothing_lost(summary, 6)
    assert summary["counts"]["ok"] == 6
    assert pool.stats.crashed == 1
    assert pool.stats.requeued == 1
    assert json.dumps(summary, sort_keys=True) \
        == json.dumps(_serial_run(6, 31), sort_keys=True)


@pytest.mark.parametrize("action", ("sigkill", "exit"))
def test_worker_crash_sweep_mid_retry(action):
    """The same task kills two workers in a row (its first and second
    crash attempts) and still recovers on the third dispatch."""
    chaos = {"corpus-0001": {0: (action, "pre"), 1: (action, "post")}}
    summary, pool = _pool_run(6, seed=31, chaos=chaos)
    _assert_nothing_lost(summary, 6)
    assert summary["counts"]["ok"] == 6
    assert pool.stats.crashed == 2
    assert pool.stats.requeued == 2
    assert json.dumps(summary, sort_keys=True) \
        == json.dumps(_serial_run(6, 31), sort_keys=True)


def test_poison_task_dead_letter_is_deterministic():
    """A task that kills every worker it lands on exhausts its crash
    budget and dead-letters with reason ``worker_crash`` — and two
    runs of that losing battle report byte-identical summaries."""
    chaos = {"corpus-0003": {attempt: ("sigkill", "pre")
                             for attempt in range(6)}}
    first, pool = _pool_run(8, seed=13, chaos=chaos, crash_retries=2)
    second, _ = _pool_run(8, seed=13, chaos=chaos, crash_retries=2)
    _assert_nothing_lost(first, 8)
    assert first["counts"]["failed"] == 1
    [letter] = first["dead_letters"]
    assert letter["reason"] == "worker_crash"
    assert json.dumps(first, sort_keys=True) \
        == json.dumps(second, sort_keys=True)
    assert pool.stats.dead_lettered == 1


def test_random_sigkill_storm_still_byte_identical():
    """An *external* killer SIGKILLs live workers at random times
    while the batch runs — timing the chaos plan cannot script.  As
    long as every task survives its crash budget, the merged summary
    must still equal the serial bytes exactly."""
    import os as _os
    import signal as _signal
    import threading
    import time as _time

    from repro.runtime.batch import BatchRunner
    from repro.runtime.pool import PoolBackend

    total, seed, kills = 24, 37, 3
    pool = PoolBackend(2, crash_retries=10_000)
    runner = BatchRunner(corpus.stream_manifest(total, seed=seed),
                         policy=RetryPolicy(backoff_base_ms=0,
                                            seed=seed),
                         backend=pool, sleeper=lambda ms: None)
    done = threading.Event()
    delivered = []

    def killer():
        while not done.is_set() and len(delivered) < kills:
            _time.sleep(0.15)
            for worker in list(pool._live.values()):
                if worker.proc.pid is None:
                    continue
                try:
                    _os.kill(worker.proc.pid, _signal.SIGKILL)
                except OSError:
                    continue
                delivered.append(worker.proc.pid)
                break

    thread = threading.Thread(target=killer, daemon=True)
    thread.start()
    try:
        summary = runner.run()
    finally:
        done.set()
        thread.join(timeout=5)
    _assert_nothing_lost(summary, total)
    assert summary["counts"]["ok"] == total
    assert pool.stats.crashed == len(delivered)
    assert json.dumps(summary, sort_keys=True) \
        == json.dumps(_serial_run(total, seed), sort_keys=True)


def test_ensemble_batch_under_faults_still_loses_nothing():
    """Chaos and the oracle composed: injected faults inside ensemble
    members degrade or dead-letter, never lose tasks or fabricate
    disagreements."""
    with faults.use(faults.plan_from_spec(
            ",".join(["fd.chase.step:exception"] * 20), seed=9)):
        summary = run_batch(
            _manifest(10, seed=9),
            policy=RetryPolicy(retries=1, backoff_base_ms=0, seed=9),
            ensemble_mode="check")
    _assert_nothing_lost(summary, 10)
    assert summary["ensemble_disagreements"] == 0
