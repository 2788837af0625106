"""Unit tests for ``repro.serve``: admission, cache, handlers, seam.

Everything here is socket-free — the HTTP transport is covered by
``tests/integration/test_serve_live.py`` and the fault sweep by
``tests/property/test_serve_chaos.py``.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import faults, obs
from repro.datasets.university import UNIVERSITY_DTD, UNIVERSITY_FDS
from repro.guard import Limits
from repro.serve import (
    AdmissionGate,
    BudgetDefaults,
    Decision,
    SpecCache,
    account,
    handle,
    spec_key,
)
from repro.serve.handlers import _request_limits

SIMPLE_DTD = ("<!ELEMENT db (row*)>\n<!ELEMENT row EMPTY>\n"
              "<!ATTLIST row a CDATA #REQUIRED b CDATA #REQUIRED>")
SIMPLE_FDS = "db.row.@a -> db.row.@b"


def _payload(**extra):
    payload = {"dtd": SIMPLE_DTD, "fds": SIMPLE_FDS}
    payload.update(extra)
    return payload


@pytest.fixture
def cache():
    return SpecCache(capacity=8)


@pytest.fixture
def defaults():
    return BudgetDefaults()


@pytest.fixture(autouse=True)
def _no_leaked_plans():
    yield
    faults.teardown()


class TestAdmissionGate:
    def test_admit_release_roundtrip(self):
        gate = AdmissionGate(max_inflight=2)
        assert gate.admit() is Decision.ADMITTED
        assert gate.inflight == 1
        gate.release()
        assert gate.inflight == 0

    def test_sheds_past_the_queue_bound(self):
        gate = AdmissionGate(max_inflight=1, max_queue=0)
        assert gate.admit() is Decision.ADMITTED
        assert gate.admit() is Decision.SHED
        gate.release()
        assert gate.admit() is Decision.ADMITTED
        gate.release()

    def test_queue_timeout_bounces_stale_waiters(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4,
                             queue_timeout_s=0.05)
        assert gate.admit() is Decision.ADMITTED
        started = time.monotonic()
        assert gate.admit() is Decision.TIMEOUT
        assert time.monotonic() - started >= 0.05
        assert gate.queue_depth == 0
        gate.release()

    def test_queued_request_admitted_on_release(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4,
                             queue_timeout_s=5.0)
        assert gate.admit() is Decision.ADMITTED
        decisions = []

        def waiter():
            decisions.append(gate.admit())

        thread = threading.Thread(target=waiter)
        thread.start()
        for _ in range(100):
            if gate.queue_depth == 1:
                break
            time.sleep(0.01)
        gate.release()
        thread.join(timeout=5)
        assert decisions == [Decision.ADMITTED]
        gate.release()

    def test_drain_refuses_new_and_bounces_waiters(self):
        gate = AdmissionGate(max_inflight=1, max_queue=4,
                             queue_timeout_s=10.0)
        assert gate.admit() is Decision.ADMITTED
        decisions = []
        thread = threading.Thread(
            target=lambda: decisions.append(gate.admit()))
        thread.start()
        for _ in range(100):
            if gate.queue_depth == 1:
                break
            time.sleep(0.01)
        drained = []
        drainer = threading.Thread(
            target=lambda: drained.append(gate.drain(5.0)))
        drainer.start()
        thread.join(timeout=5)
        assert decisions == [Decision.DRAINING]
        assert gate.admit() is Decision.DRAINING
        gate.release()
        drainer.join(timeout=5)
        assert drained == [True]

    def test_drain_deadline_expires_with_stuck_inflight(self):
        gate = AdmissionGate(max_inflight=1)
        assert gate.admit() is Decision.ADMITTED
        assert gate.drain(0.05) is False
        gate.release()

    def test_drain_is_idempotent(self):
        gate = AdmissionGate(max_inflight=1)
        assert gate.drain(0.1) is True
        assert gate.drain(0.1) is True

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AdmissionGate(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionGate(max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionGate(queue_timeout_s=0)


class TestSpecCache:
    def test_hit_returns_the_same_object(self, cache):
        first = cache.get(SIMPLE_DTD, SIMPLE_FDS)
        second = cache.get(SIMPLE_DTD, SIMPLE_FDS)
        assert first is second
        assert len(cache) == 1

    def test_key_separates_engine_and_root(self, cache):
        assert spec_key(SIMPLE_DTD, SIMPLE_FDS) \
            != spec_key(SIMPLE_DTD, SIMPLE_FDS, engine="chase")
        cache.get(SIMPLE_DTD, SIMPLE_FDS)
        cache.get(SIMPLE_DTD, SIMPLE_FDS, engine="chase")
        assert len(cache) == 2

    def test_lru_eviction_is_size_bounded(self):
        cache = SpecCache(capacity=1)
        cache.get(SIMPLE_DTD, SIMPLE_FDS)
        cache.get(UNIVERSITY_DTD, UNIVERSITY_FDS)
        assert len(cache) == 1
        # The survivor is the most recently used.
        survivor = cache.get(UNIVERSITY_DTD, UNIVERSITY_FDS)
        assert len(cache) == 1
        assert survivor is cache.get(UNIVERSITY_DTD, UNIVERSITY_FDS)

    def test_failed_builds_never_poison(self, cache):
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            cache.get("<!ELEMENT", "")
        assert len(cache) == 0
        # Identical garbage again: still a clean failure, no wedged
        # placeholder entry.
        with pytest.raises(ReproError):
            cache.get("<!ELEMENT", "")
        assert cache.get(SIMPLE_DTD, SIMPLE_FDS) is not None

    def test_injected_fill_fault_leaves_cache_usable(self, cache):
        from repro.errors import ReproError
        with faults.inject("serve.cache.fill"):
            with pytest.raises(ReproError):
                cache.get(SIMPLE_DTD, SIMPLE_FDS)
        assert len(cache) == 0
        spec = cache.get(SIMPLE_DTD, SIMPLE_FDS)
        assert spec.decide(SIMPLE_FDS).value == "YES"


class TestBudgetDefaults:
    """A request's limits are its ``budget`` capped by the server's
    ceilings (``BudgetDefaults()`` unless the flags replace them)."""

    def test_defaults_pass_through(self, defaults):
        assert defaults == Limits(timeout=10.0, max_steps=2_000_000,
                                  max_branches=200_000,
                                  max_nodes=1_000_000)
        assert _request_limits(None, defaults) == defaults

    def test_client_can_tighten(self):
        limits = _request_limits({"max_steps": 10},
                                 BudgetDefaults(max_steps=100))
        assert limits.max_steps == 10

    def test_client_cannot_loosen(self):
        limits = _request_limits({"max_steps": 1_000_000, "timeout": 3600},
                                 BudgetDefaults(max_steps=100,
                                                timeout=2.0))
        assert limits.max_steps == 100
        assert limits.timeout == 2.0

    def test_unlimited_ceiling_accepts_any_client_value(self):
        limits = _request_limits({"max_nodes": 123},
                                 BudgetDefaults(max_nodes=None))
        assert limits.max_nodes == 123

    @pytest.mark.parametrize("budget", [
        {"max_steps": 0}, {"max_steps": -1}, {"timeout": "fast"},
        {"timeout": True}, {"bogus": 1}, "not-an-object", 7,
        {"max_steps": float("nan")}, {"timeout": float("nan")},
        {"max_steps": 0.5}, {"max_steps": 2.9},
        {"timeout": float("inf")},
    ])
    def test_bad_budgets_are_usage_errors(self, budget):
        from repro.serve import BadRequest
        with pytest.raises(BadRequest):
            _request_limits(budget, BudgetDefaults())


class TestHandlers:
    def test_implication_yes(self, cache, defaults):
        status, body = handle(
            "/v1/implication", _payload(fd=SIMPLE_FDS),
            cache=cache, defaults=defaults)
        assert (status, body["verdict"]) == (200, "yes")

    def test_implication_no(self, cache, defaults):
        status, body = handle(
            "/v1/implication",
            _payload(fd="db.row.@b -> db.row.@a"),
            cache=cache, defaults=defaults)
        assert (status, body["verdict"]) == (200, "no")

    def test_implication_budget_trip_degrades_to_unknown(
            self, cache, defaults):
        status, body = handle(
            "/v1/implication",
            {"dtd": UNIVERSITY_DTD, "fds": UNIVERSITY_FDS,
             "fd": "courses.course.title.S -> courses.course.@cno",
             "budget": {"max_steps": 1}},
            cache=cache, defaults=defaults)
        assert status == 200
        assert body["verdict"] == "unknown"
        assert body["limit"] == "steps"

    def test_xnf_check_negative_lists_violations(self, cache, defaults):
        status, body = handle("/v1/xnf-check", _payload(),
                              cache=cache, defaults=defaults)
        assert status == 200
        assert body["in_xnf"] is False
        assert body["violations"] == [SIMPLE_FDS]

    def test_normalize_reports_steps_and_result(self, cache, defaults):
        status, body = handle("/v1/normalize", _payload(),
                              cache=cache, defaults=defaults)
        assert status == 200
        assert body["steps"] and body["steps"][0]["kind"] == "create"
        # The result is itself servable: checking it is in XNF.
        status, check = handle(
            "/v1/xnf-check",
            {"dtd": body["dtd"], "fds": "\n".join(body["fds"])},
            cache=cache, defaults=defaults)
        assert (status, check["in_xnf"]) == (200, True)

    def test_normalize_answers_an_attribute_two_cycle(self, cache,
                                                      defaults):
        # Each FD is a minimality candidate of the other; a search that
        # revisited FDs would alternate between them on cache hits
        # alone, holding the request thread and its admission permit.
        status, body = handle(
            "/v1/normalize",
            _payload(fds="db.row.@a -> db.row.@b\n"
                         "db.row.@b -> db.row.@a"),
            cache=cache, defaults=defaults)
        assert status == 200
        status, check = handle(
            "/v1/xnf-check",
            {"dtd": body["dtd"], "fds": "\n".join(body["fds"])},
            cache=cache, defaults=defaults)
        assert (status, check["in_xnf"]) == (200, True)

    def test_missing_field_is_400_usage(self, cache, defaults):
        status, body = handle("/v1/implication", {"fds": ""},
                              cache=cache, defaults=defaults)
        assert status == 400
        error = body["error"]
        assert (error["kind"], error["exit_code"]) == ("usage", 2)

    def test_non_object_payload_is_400(self, cache, defaults):
        status, body = handle("/v1/normalize", ["not", "an", "object"],
                              cache=cache, defaults=defaults)
        assert status == 400

    def test_null_required_field_is_400(self, cache, defaults):
        status, _body = handle(
            "/v1/normalize", {"dtd": None, "fds": ""},
            cache=cache, defaults=defaults)
        assert status == 400

    def test_unknown_endpoint_is_400(self, cache, defaults):
        status, _body = handle("/v1/nope", _payload(),
                               cache=cache, defaults=defaults)
        assert status == 400

    def test_parse_error_is_422_input(self, cache, defaults):
        status, body = handle(
            "/v1/normalize", {"dtd": "<!ELEMENT", "fds": ""},
            cache=cache, defaults=defaults)
        assert status == 422
        error = body["error"]
        assert (error["kind"], error["exit_code"]) == ("input", 3)
        assert error["type"] == "DTDSyntaxError"

    def test_injected_fault_is_500_fault(self, cache, defaults):
        with faults.inject("serve.handler.normalize"):
            status, body = handle("/v1/normalize", _payload(),
                                  cache=cache, defaults=defaults)
        assert status == 500
        error = body["error"]
        assert (error["kind"], error["exit_code"]) == ("fault", 3)

    def test_injected_exhaustion_is_408_resource(self, cache, defaults):
        with faults.inject("serve.handler.normalize",
                           kind="exhaustion"):
            status, body = handle("/v1/normalize", _payload(),
                                  cache=cache, defaults=defaults)
        assert status == 408
        error = body["error"]
        assert (error["kind"], error["exit_code"]) == ("resource", 4)

    def test_contract_breach_is_counted_and_opaque(
            self, cache, defaults, monkeypatch):
        obs.enable()
        obs.reset()
        try:
            def explode(*args, **kwargs):
                raise ValueError("internal detail that must not leak")

            monkeypatch.setattr(cache, "get", explode)
            status, body = handle("/v1/xnf-check", _payload(),
                                  cache=cache, defaults=defaults)
            error = body["error"]
            assert (status, error["exit_code"],
                    error["kind"]) == (500, 70, "contract")
            assert "must not leak" not in error["message"]
            assert obs.snapshot()["counters"][
                "serve.contract_breach"] == 1
            monkeypatch.undo()
            # The handler layer survives: the next request succeeds.
            status, body = handle("/v1/xnf-check", _payload(),
                                  cache=cache, defaults=defaults)
            assert status == 200
        finally:
            obs.reset()
            obs.disable()

    @pytest.mark.parametrize("engine", ["bogus", "BRUTE", "quantum"])
    def test_unknown_engine_is_400_before_the_cache(self, cache,
                                                    defaults, engine):
        status, body = handle("/v1/xnf-check", _payload(engine=engine),
                              cache=cache, defaults=defaults)
        assert status == 400
        assert body["error"]["kind"] == "usage"
        assert len(cache) == 0

    def test_per_request_budgets_leave_no_residue(self, cache,
                                                  defaults):
        from repro import guard
        from repro.guard import budget as budget_mod
        handle("/v1/implication", _payload(fd=SIMPLE_FDS),
               cache=cache, defaults=defaults)
        assert guard.current() is None
        assert not budget_mod.active


class TestAccountSeam:
    def test_disabled_records_nothing(self):
        assert not obs.is_enabled()
        account("/v1/implication", 200, 0.01)  # must be a no-op

    def test_enabled_records_counters_and_latency(self):
        obs.enable()
        obs.reset()
        try:
            account("/v1/implication", 200, 0.25)
            account("/v1/implication", 429, 0.01)
            snapshot = obs.snapshot()
            assert snapshot["counters"]["serve.requests"] == 2
            assert snapshot["counters"]["serve.status.200"] == 1
            assert snapshot["counters"]["serve.status.429"] == 1
            timer = snapshot["timers"]["serve.request.implication"]
            assert timer["count"] == 2
            assert timer["max"] == 0.25
        finally:
            obs.reset()
            obs.disable()
