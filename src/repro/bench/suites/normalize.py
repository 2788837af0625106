"""Decomposition-algorithm benchmarks (Figure 4 / Theorem 2): the
paper's two running redesigns, the scaled multi-anomaly workload, the
Proposition 7 implication-free variant, and the progress-check
ablation (``python -m repro.bench run --only normalize.``)."""

from __future__ import annotations

from repro.bench.registry import benchmark
from repro.datasets.dblp import dblp_spec
from repro.datasets.generators import scaled_university_spec
from repro.datasets.university import university_spec
from repro.normalize.algorithm import normalize
from repro.normalize.simple_algorithm import normalize_simple


@benchmark("normalize.university")
def university():
    """Example 1.1: one *create* step."""
    spec = university_spec()
    return lambda: normalize(spec.dtd, spec.sigma)


@benchmark("normalize.dblp")
def dblp():
    """Example 1.2: one *move* step."""
    spec = dblp_spec()
    return lambda: normalize(spec.dtd, spec.sigma)


@benchmark("normalize.scaled", series=(1, 2, 4, 8), quick=(1, 2),
           param="k")
def scaled(k):
    """k independent anomalies: k steps."""
    spec = scaled_university_spec(k)
    return lambda: normalize(spec.dtd, spec.sigma)


@benchmark("normalize.simple_variant", series=(1, 2, 4), quick=(1,),
           param="k")
def simple_variant(k):
    """Proposition 7 ablation: step (3) only, closure-only reasoning."""
    spec = scaled_university_spec(k)
    return lambda: normalize_simple(spec.dtd, spec.sigma)


@benchmark("normalize.no_progress_checks", series=(1, 2, 4),
           quick=(1,), param="k")
def no_progress_checks(k):
    """Ablation: without Proposition 6's runtime progress assertion."""
    spec = scaled_university_spec(k)
    return lambda: normalize(spec.dtd, spec.sigma,
                             check_progress=False)
