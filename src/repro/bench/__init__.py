"""The benchmark observatory (see ``docs/BENCHMARKS.md``).

A declarative registry of benchmarks over the PR-1 observability
counters and PR-2 guard stats:

* :mod:`repro.bench.registry` — the :func:`benchmark` decorator and
  :class:`Claim` (a paper complexity bound asserted on fitted growth);
* :mod:`repro.bench.suites` — the standard suite, one group per
  subsystem;
* :mod:`repro.bench.runner` — isolated execution: best-of-N wall
  time, deterministic operation-counter snapshots, tracemalloc peak;
* :mod:`repro.bench.schema` — the versioned ``BENCH_core.json`` shape;
* :mod:`repro.bench.compare` — the counter-based regression gate
  (wall time advisory-only);
* :mod:`repro.bench.slopes` — log-log / log-linear growth fitting;
* :mod:`repro.bench.cli` — the bodies of ``xnf bench run / compare /
  report``, which :mod:`repro.cli` declares (``python -m repro.bench``
  is an alias of ``xnf bench``);
* :mod:`repro.bench.seams` — ``python -m repro.bench.seams``, the
  <1 % disabled-seam gates of every opt-in mechanism.

Usage::

    from repro.bench import benchmark

    @benchmark("closure.my_workload", series=(1, 2, 4), param="k")
    def my_workload(k):
        spec = build_spec(k)          # setup: not measured
        return lambda: spec.xnf_violations()   # body: measured
"""

from __future__ import annotations

from repro.bench.registry import (
    Benchmark,
    Claim,
    all_benchmarks,
    benchmark,
    get,
    load_default_suites,
    select,
)
from repro.bench.runner import isolate, run_benchmark, run_suite
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchReportError,
    validate,
)
from repro.bench.compare import compare_payloads, gate, load_report

__all__ = [
    "Benchmark", "Claim", "benchmark", "all_benchmarks", "get",
    "select", "load_default_suites",
    "isolate", "run_benchmark", "run_suite",
    "SCHEMA_VERSION", "BenchReportError", "validate",
    "compare_payloads", "gate", "load_report",
]
