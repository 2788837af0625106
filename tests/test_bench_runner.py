"""Runner and isolation tests (repro.bench.runner).

The load-bearing property is satellite determinism: two consecutive
runs of the same benchmark must produce *identical* operation-counter
snapshots, because :func:`repro.bench.runner.isolate` resets every
piece of cross-run mutable state (obs registry, ambient guard budgets,
implication-engine caches, regex ``lru_cache`` s).  That determinism
is what allows the comparator to gate on counters with zero tolerance
for machine noise.
"""

from __future__ import annotations

import pytest

from repro import guard, obs
from repro.bench import registry, runner
from repro.bench.schema import validate
from repro.fd.implication import ImplicationEngine
from repro.guard import budget as _budget


@pytest.fixture(autouse=True)
def clean_slate():
    runner.isolate()
    obs.disable()
    yield
    runner.isolate()
    obs.disable()


def _bench(name):
    registry.load_default_suites()
    return registry.get(name)


class TestIsolate:
    def test_clears_obs_metrics(self):
        obs.enable()
        obs.inc("leftover.counter", 5)
        runner.isolate()
        assert obs.snapshot()["counters"] == {}

    def test_removes_leftover_guard_budgets(self):
        # Simulate a workload that crashed inside guard.limits and
        # never unwound: the budget is still installed.
        ctx = guard.limits(max_steps=10**6)
        ctx.__enter__()
        assert _budget.active
        runner.isolate()
        assert not _budget.active
        assert _budget.current() is None

    def test_clears_live_engine_caches(self, flat_ab_dtd):
        from repro.fd.model import FD

        engine = ImplicationEngine(flat_ab_dtd, [])
        engine.implies(FD.parse("r.a.@x -> r.a.@x"))
        assert engine.cache_info().currsize > 0
        runner.isolate()
        assert engine.cache_info().currsize == 0


class TestCounterDeterminism:
    def test_consecutive_runs_produce_identical_counters(self):
        obs.enable()  # run_suite does this; run_benchmark trusts it
        bench = _bench("implication.simple_all")
        first = runner.run_benchmark(bench, quick=True, repeat=1,
                                     memory=False)
        second = runner.run_benchmark(bench, quick=True, repeat=1,
                                      memory=False)
        for p1, p2 in zip(first["points"], second["points"]):
            assert p1["value"] == p2["value"]
            assert p1["counters"] == p2["counters"]
            assert p1["counters"]  # non-trivial: obs actually recorded

    def test_warm_state_does_not_leak_into_counters(self, uni_spec):
        # Warm every cache in sight, then check the benchmark still
        # sees the exact counters of a cold process.
        obs.enable()
        bench = _bench("implication.simple_all")
        cold = runner.run_benchmark(bench, quick=True, repeat=1,
                                    memory=False)
        uni_spec.xnf_violations()      # warms engines + regex caches
        warm = runner.run_benchmark(bench, quick=True, repeat=1,
                                    memory=False)
        assert [p["counters"] for p in cold["points"]] == \
               [p["counters"] for p in warm["points"]]


class TestRunSuite:
    def test_payload_validates_and_leaves_no_residue(self):
        assert not obs.is_enabled()
        payload = runner.run_suite(quick=True, only=["xnf.ebxml"],
                                   repeat=1, memory=False)
        validate(payload, source="in-memory")
        assert list(payload["benchmarks"]) == ["xnf.ebxml"]
        assert payload["suite"] == "quick"
        # run_suite enabled obs for the duration; our state is back.
        assert not obs.is_enabled()
        assert obs.snapshot()["counters"] == {}
        assert not _budget.active

    def test_claim_recorded_for_complexity_series(self):
        payload = runner.run_suite(quick=True,
                                   only=["complexity.theorem3"],
                                   repeat=1, memory=False)
        claim = payload["benchmarks"]["complexity.theorem3"]["claim"]
        assert claim is not None
        assert claim["statement"] == "Theorem 3"
        assert claim["kind"] == "polynomial"
        assert isinstance(claim["slope"], float)
        assert claim["passed"] is True
