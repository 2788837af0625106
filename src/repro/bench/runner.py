"""Executing registered benchmarks and recording the report.

For each series point the runner

1. calls the workload factory (setup — excluded from measurement),
2. runs the body ``repeat`` times, each from a fully isolated state
   (:func:`isolate`), keeping the best wall time and the operation
   counters of the final run,
3. runs the body once more under ``tracemalloc`` for peak memory
   (separately, so allocation tracking never skews the timings),
4. fits and asserts the benchmark's complexity :class:`Claim`, if any.

Isolation is what makes the counter columns trustworthy: every run
starts with :func:`repro.obs.reset`, no ambient :mod:`repro.guard`
budget, cold :class:`~repro.fd.implication.ImplicationEngine` caches
(including engines captured inside workload closures or cached on
specs), and cold module-level ``lru_cache`` s in the regex substrate.
Two consecutive runs of the same benchmark therefore produce
*identical* counter snapshots (``tests/test_bench_runner.py`` pins
this), which is what lets the comparator gate on counters with zero
machine noise.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Callable, Iterable

from repro import guard, obs
from repro.bench import registry as _registry
from repro.bench.registry import Benchmark
from repro.bench.schema import envelope
from repro.bench.slopes import evaluate_claim
from repro.faults import plan as _faults
from repro.fd.implication import ImplicationEngine
from repro.guard import Limits


def _module_caches() -> list:
    """Every module-level ``lru_cache`` that can leak warmth between
    runs (the regex substrate memoizes classification and matching)."""
    from repro.regex import analysis, ast, classify, matching

    caches = []
    for module in (analysis, ast, classify, matching):
        for value in vars(module).values():
            if callable(value) and hasattr(value, "cache_clear"):
                caches.append(value)
    return caches


def isolate() -> None:
    """Reset every piece of cross-run mutable state (see module docs)."""
    obs.reset()
    guard.teardown()
    _faults.teardown()
    ImplicationEngine.clear_all_caches()
    for cache in _module_caches():
        cache.cache_clear()


def _measure_point(bench: Benchmark, value, *, repeat: int | None,
                   memory: bool, limits: Limits = Limits()) -> dict:
    workload: Callable[[], object]
    if value is None:
        workload = bench.factory()
    else:
        workload = bench.factory(value)
    runs = repeat if repeat is not None else bench.repeat
    best = float("inf")
    counters: dict[str, int] = {}
    for _ in range(runs):
        isolate()
        # The per-run budget is installed *after* isolation (which
        # tears down every ambient budget), so ``bench run --timeout``
        # limits each measured run individually.
        with limits.install():
            started = time.perf_counter()
            workload()
            best = min(best, time.perf_counter() - started)
        counters = obs.snapshot()["counters"]
    point = {"value": value, "time_s": best,
             "counters": dict(sorted(counters.items()))}
    if memory:
        isolate()
        tracemalloc.start()
        try:
            with limits.install():
                workload()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        point["mem_peak_kb"] = peak / 1024.0
    return point


def run_benchmark(bench: Benchmark, *, quick: bool = False,
                  repeat: int | None = None, memory: bool = True,
                  progress: Callable[[str], None] | None = None,
                  limits: Limits = Limits()) -> dict:
    """Run one benchmark's series; returns its report entry."""
    points = []
    for value in bench.points(quick):
        point = _measure_point(bench, value, repeat=repeat,
                               memory=memory, limits=limits)
        points.append(point)
        if progress is not None:
            label = "" if value is None else f" {bench.param}={value}"
            progress(f"  {bench.name}{label}: "
                     f"{point['time_s'] * 1e3:.2f} ms")
    entry: dict = {"group": bench.group, "param": bench.param,
                   "points": points, "claim": None}
    if bench.claim is not None and len(points) >= 2:
        xs = [bench.x(p["value"]) for p in points]
        counter_ys = [float(p["counters"].get(bench.claim.counter, 0))
                      for p in points]
        time_ys = [p["time_s"] for p in points]
        entry["claim"] = evaluate_claim(bench.claim, xs, counter_ys,
                                        time_ys)
    return entry


def run_suite(*, quick: bool = False, only: Iterable[str] | None = None,
              repeat: int | None = None, memory: bool = True,
              progress: Callable[[str], None] | None = None,
              load_default: bool = True,
              limits: Limits = Limits()) -> dict:
    """Run the selected benchmarks; returns the full report payload.

    Runs with obs enabled for the duration (restoring the caller's
    state afterwards) and leaves no ambient budget, warm cache, or
    recorded metric behind.  ``limits`` bound each measured run; a
    tripped limit raises :class:`~repro.errors.ResourceExhausted`.
    """
    if load_default:
        _registry.load_default_suites()
    chosen = _registry.select(list(only) if only else None)
    payload = envelope(suite="quick" if quick else "full",
                       repeat=repeat if repeat is not None else 0)
    was_enabled = obs.is_enabled()
    obs.enable()
    try:
        for bench in chosen:
            if progress is not None:
                progress(f"{bench.name} "
                         f"({len(bench.points(quick))} point(s))")
            payload["benchmarks"][bench.name] = run_benchmark(
                bench, quick=quick, repeat=repeat, memory=memory,
                progress=progress, limits=limits)
    finally:
        isolate()
        if not was_enabled:
            obs.disable()
    if repeat is None:
        payload["repeat"] = max(
            (b.repeat for b in chosen), default=0)
    return payload


def claims_summary(payload: dict) -> list[tuple[str, dict]]:
    """The (name, claim-record) pairs of every claim in a report."""
    return [(name, entry["claim"])
            for name, entry in sorted(payload["benchmarks"].items())
            if entry.get("claim")]


def all_claims_pass(payload: dict) -> bool:
    return all(claim["passed"] for _, claim in claims_summary(payload))
