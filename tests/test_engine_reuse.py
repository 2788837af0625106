"""One implication engine per ``(D, Σ)``.

A normalize run builds one engine on each pair it visits (the engine
that checks a step's progress decides the next round) and one Σ=∅
engine per DTD; an ``XMLSpec``'s own engine answers its XNF checks and
round 1 of its normalize, so a cached spec never re-decides a query.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.datasets.generators import scaled_university_spec
from repro.datasets.university import (
    UNIVERSITY_DTD,
    UNIVERSITY_FDS,
    university_spec,
)
from repro.fd.implication import ImplicationEngine
from repro.fd.model import FD
from repro.normalize import algorithm
from repro.serve import BudgetDefaults, SpecCache, handle
from repro.spec import XMLSpec


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    obs.clear_sinks()
    yield
    obs.disable()
    obs.reset()
    obs.clear_sinks()


def _misses() -> int:
    return obs.snapshot()["counters"].get("implication.cache.miss", 0)


@pytest.fixture
def built(monkeypatch):
    """Every engine constructed while the test runs."""
    engines: list[ImplicationEngine] = []
    real = ImplicationEngine.__init__

    def init(self, *args, **kwargs):
        real(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(ImplicationEngine, "__init__", init)
    return engines


class TestNormalizeEngines:
    @pytest.mark.parametrize("k", [1, 3])
    def test_one_engine_per_pair_and_per_dtd(self, built, k):
        spec = scaled_university_spec(k)
        result = spec.normalize()
        assert len(result.steps) == k
        assert sum(1 for engine in built if engine.sigma) == k + 1
        assert sum(1 for engine in built if not engine.sigma) == k + 1

    @pytest.mark.parametrize("k", [1, 3])
    def test_anomalous_paths_once_per_pair(self, monkeypatch, k):
        calls = []
        real = algorithm.anomalous_paths

        def counted(engine, **kwargs):
            calls.append(engine)
            return real(engine, **kwargs)

        monkeypatch.setattr(algorithm, "anomalous_paths", counted)
        scaled_university_spec(k).normalize()
        assert len(calls) == k + 1
        assert len({id(engine) for engine in calls}) == k + 1

    def test_steps_let_go_of_their_trivial_engine(self):
        result = scaled_university_spec(2).normalize()
        assert [step.trivial for step in result.steps] == [None, None]

    def test_forced_engine_keeps_its_own_trivial_engine(self, built):
        """The transforms decide triviality with ``auto``; a run forced
        onto another engine must not adopt those answers."""
        base = scaled_university_spec(1)
        XMLSpec(dtd=base.dtd, sigma=base.sigma,
                engine="closure").normalize()
        for engine in built:
            if engine.sigma:
                assert engine.engine == "closure"
                assert engine._trivial.engine == "closure"


class TestSpecEngine:
    def test_second_xnf_check_decides_nothing(self):
        obs.enable()
        spec = scaled_university_spec(2)
        first = spec.xnf_violations()
        misses = _misses()
        assert misses > 0
        assert spec.xnf_violations() == first
        assert spec.is_in_xnf() is False
        assert _misses() == misses

    def test_normalize_round_one_reuses_the_check(self):
        spec = university_spec()
        spec.xnf_violations()
        info = spec.oracle.cache_info()
        spec.normalize()
        assert spec.oracle.cache_info().hits > info.hits

    def test_repeated_xnf_check_request_decides_nothing(self):
        obs.enable()
        cache = SpecCache(capacity=4)
        payload = {"dtd": UNIVERSITY_DTD, "fds": UNIVERSITY_FDS}
        first = handle("/v1/xnf-check", payload, cache=cache,
                       defaults=BudgetDefaults())
        misses = _misses()
        second = handle("/v1/xnf-check", payload, cache=cache,
                        defaults=BudgetDefaults())
        assert second == first
        assert first[1]["in_xnf"] is False
        assert _misses() == misses

    def test_threads_sharing_a_cached_spec_agree_with_serial(self):
        """Serve threads now share one spec's engine on every endpoint:
        under forced thread switches each answer must equal the serial
        one, and the shared cache must hold only verdicts a fresh
        engine agrees with."""
        requests = [
            ("/v1/xnf-check", {}),
            ("/v1/normalize", {}),
            ("/v1/implication",
             {"fd": "courses.course.taken_by.student.@sno -> "
                    "courses.course.taken_by.student.name.S"}),
        ]
        defaults = BudgetDefaults()
        base = {"dtd": UNIVERSITY_DTD, "fds": UNIVERSITY_FDS}
        expected = [handle(endpoint, dict(base, **extra),
                           cache=SpecCache(capacity=1), defaults=defaults)
                    for endpoint, extra in requests]
        cache = SpecCache(capacity=1)
        answers: list[list] = [[] for _ in range(6)]

        def client(index: int) -> None:
            for round_ in range(3):
                for offset in range(len(requests)):
                    pick = (index + round_ + offset) % len(requests)
                    endpoint, extra = requests[pick]
                    answers[index].append((pick, handle(
                        endpoint, dict(base, **extra), cache=cache,
                        defaults=defaults)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(index,))
                       for index in range(len(answers))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for per_client in answers:
            assert len(per_client) == 3 * len(requests)
            for pick, answer in per_client:
                assert answer == expected[pick]
        spec = cache.get(UNIVERSITY_DTD, UNIVERSITY_FDS)
        fresh = ImplicationEngine(spec.dtd, spec.sigma)
        for (lhs, rhs), verdict in spec.oracle._cache.items():
            assert fresh.implies(FD(lhs, frozenset({rhs}))) == verdict


class TestPerCallQueryCounts:
    """Engines outlive one call, so span attributes report the queries
    made inside the span, not the engine's running total."""

    def _spans(self, name):
        return [span.attrs["implication_queries"]
                for span in self.sink.spans
                if span.name == name
                and "implication_queries" in span.attrs]

    @pytest.fixture(autouse=True)
    def sink(self):
        obs.enable()
        self.sink = obs.InMemorySink()
        obs.add_sink(self.sink)

    def test_xnf_check_span(self):
        spec = university_spec()
        spec.xnf_violations()
        spec.xnf_violations()
        first, second = self._spans("xnf.check")
        assert first == second > 0

    def test_normalize_round_span(self):
        spec = university_spec()
        spec.normalize()
        spec.normalize()
        rounds = self._spans("normalize.round")
        assert len(rounds) == 2
        assert rounds[0] == rounds[1] > 0
