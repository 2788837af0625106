"""Batch-runtime benchmarks, sharing their corpus workload with the
task-level gates of ``python -m repro.bench.seams``.

The runtime layer's contract (docs/ROBUSTNESS.md) mirrors the
governor's: with no faults installed and the ensemble ``off``, running
tasks through :class:`~repro.runtime.batch.BatchRunner` must cost
within 1 % of executing the same specs directly — the per-task
isolation (span, budget, session) and outcome bookkeeping may not tax
the happy path.  The ``runtime`` seam gate holds that bound; the two
entries here record both sides in full in the bench trajectory, and a
third tracks the (deliberately expensive) ``check``-mode ensemble so
its cost stays visible, not gated.
"""

from __future__ import annotations

from repro.bench.registry import benchmark
from repro.runtime import corpus
from repro.runtime import manifest as mf
from repro.runtime.batch import BatchRunner
from repro.runtime.retry import RetryPolicy

#: Corpus shape for the overhead pair.  ``implies`` + ``check`` only:
#: normalization's round count varies per spec family and would
#: dominate the timing noise the 1 % gate has to see through.
TASKS = 30
SEED = 2024


def make_manifest(tasks: int = TASKS) -> mf.Manifest:
    return mf.from_payload(corpus.generate_manifest(
        tasks, seed=SEED, ops=("implies", "check")))


def make_runner(manifest: mf.Manifest, **kwargs) -> BatchRunner:
    kwargs.setdefault("policy", RetryPolicy(backoff_base_ms=0,
                                            seed=SEED))
    kwargs.setdefault("sleeper", lambda ms: None)
    return BatchRunner(manifest, **kwargs)


def make_direct(manifest: mf.Manifest):
    """The baseline: the same per-task work with none of the runtime
    layer's isolation or bookkeeping around it."""
    runner = make_runner(manifest)

    def run():
        for task in manifest.tasks:
            runner._execute(task)

    return run


@benchmark("runtime.direct", repeat=5)
def direct():
    return make_direct(make_manifest())


@benchmark("runtime.batch", repeat=5)
def batch():
    manifest = make_manifest()

    def run():
        summary = make_runner(manifest).run()
        assert summary["counts"]["lost"] == 0

    return run


@benchmark("runtime.ensemble", repeat=3)
def ensemble():
    manifest = make_manifest(10)

    def run():
        summary = make_runner(manifest, ensemble_mode="check").run()
        assert summary["ensemble_disagreements"] == 0

    return run
