"""Unit tests for retry classification/backoff and circuit breakers."""

import pytest

from repro import obs
from repro.errors import (
    FDSyntaxError,
    EnsembleDisagreementError,
    InjectedAllocationFailure,
    InjectedFault,
    ResourceExhausted,
)
from repro.runtime.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    Breaker,
    BreakerBoard,
    failure_signature,
)
from repro.runtime.retry import RetryPolicy, is_transient


class TestClassification:
    def test_injected_faults_are_transient(self):
        assert is_transient(InjectedFault("fd.chase.step", "exception"))
        assert is_transient(
            InjectedAllocationFailure("fd.chase.step", "allocation"))

    def test_injected_and_deadline_exhaustion_are_transient(self):
        assert is_transient(ResourceExhausted("injected"))
        assert is_transient(ResourceExhausted("deadline"))

    def test_counted_limits_are_permanent(self):
        """Deterministic engines: the same budget buys the same trip."""
        for limit in ("steps", "branches", "nodes"):
            assert not is_transient(ResourceExhausted(limit))

    def test_input_and_ensemble_errors_are_permanent(self):
        assert not is_transient(FDSyntaxError("bad FD"))
        assert not is_transient(EnsembleDisagreementError("split vote"))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base_ms=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)

    def test_should_retry_respects_budget_and_class(self):
        policy = RetryPolicy(retries=2)
        fault = InjectedFault("s", "exception")
        assert policy.should_retry(fault, attempt=0)
        assert policy.should_retry(fault, attempt=1)
        assert not policy.should_retry(fault, attempt=2)  # budget gone
        assert not policy.should_retry(FDSyntaxError("x"), attempt=0)

    def test_delay_is_deterministic_and_jittered(self):
        policy = RetryPolicy(backoff_base_ms=100, seed=42)
        first = policy.delay_ms("task-1", 0)
        assert first == policy.delay_ms("task-1", 0)  # replayable
        # Full-decorrelation window around the exponential curve.
        assert 50 <= first < 150
        assert 100 <= policy.delay_ms("task-1", 1) < 300
        # Different tasks and seeds spread out.
        assert first != policy.delay_ms("task-2", 0)
        assert first != RetryPolicy(backoff_base_ms=100,
                                    seed=43).delay_ms("task-1", 0)

    def test_zero_base_disables_waiting(self):
        assert RetryPolicy(backoff_base_ms=0).delay_ms("t", 3) == 0.0


class TestFailureSignature:
    def test_signatures_by_error_shape(self):
        assert failure_signature(
            InjectedFault("fd.chase.step", "exception")) \
            == "site:fd.chase.step"
        assert failure_signature(ResourceExhausted("steps")) \
            == "guard:steps"
        assert failure_signature(FDSyntaxError("x")) \
            == "error:FDSyntaxError"


class TestBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = Breaker(signature="s", threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert breaker.trips == 1

    def test_success_resets_the_count(self):
        breaker = Breaker(signature="s", threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_open_skips_then_admits_a_probe(self):
        breaker = Breaker(signature="s", threshold=1, probe_interval=3)
        breaker.record_failure()
        assert breaker.state == OPEN
        admitted = []
        for _ in range(4):
            if breaker.allows_retries():
                admitted.append(True)
                break
            breaker.record_skip()
        # Three skips, then the fourth request is the HALF_OPEN probe.
        assert admitted and breaker.skips == 3
        assert breaker.state == HALF_OPEN
        assert breaker.probes == 1

    def test_probe_failure_reopens_probe_success_closes(self):
        breaker = Breaker(signature="s", threshold=1, probe_interval=1)
        breaker.record_failure()
        breaker.record_skip()
        assert breaker.allows_retries()          # the probe
        breaker.record_failure()
        assert breaker.state == OPEN             # probe failed
        breaker.record_skip()
        assert breaker.allows_retries()
        breaker.record_success()
        assert breaker.state == CLOSED           # probe succeeded
        assert breaker.consecutive_failures == 0


class TestBreakerBoard:
    def test_lazy_per_signature_instances(self):
        board = BreakerBoard(threshold=2)
        a = board.get("site:x")
        assert board.get("site:x") is a
        assert board.get("guard:steps") is not a
        assert a.threshold == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            BreakerBoard(threshold=0)
        with pytest.raises(ValueError):
            BreakerBoard(probe_interval=0)

    def test_snapshot_is_key_sorted(self):
        board = BreakerBoard()
        board.get("site:z").record_failure()
        board.get("site:a").record_failure()
        assert list(board.snapshot()) == ["site:a", "site:z"]


class TestBreakerTelemetry:
    @pytest.fixture(autouse=True)
    def clean_obs(self):
        obs.disable()
        obs.reset()
        yield
        obs.disable()
        obs.reset()

    def test_transition_counters(self):
        obs.enable()
        board = BreakerBoard(threshold=2, probe_interval=1)
        breaker = board.get("site:x")
        breaker.record_failure()
        breaker.record_failure()  # trips: CLOSED -> OPEN
        assert obs.counter_value(
            "runtime.breaker.transitions.open") == 1
        breaker.record_skip()
        assert breaker.allows_retries()  # probe: OPEN -> HALF_OPEN
        assert obs.counter_value(
            "runtime.breaker.transitions.half_open") == 1
        breaker.record_success()  # HALF_OPEN -> CLOSED
        assert obs.counter_value(
            "runtime.breaker.transitions.closed") == 1

    def test_open_gauge_tracks_count(self):
        obs.enable()
        board = BreakerBoard(threshold=1)
        board.get("site:a").record_failure()
        assert obs.snapshot()["gauges"]["runtime.breaker.open"] == 1
        board.get("site:b").record_failure()
        assert obs.snapshot()["gauges"]["runtime.breaker.open"] == 2
        board.get("site:a").record_success()
        assert obs.snapshot()["gauges"]["runtime.breaker.open"] == 1

    def test_reasserting_state_emits_nothing(self):
        obs.enable()
        board = BreakerBoard(threshold=1)
        breaker = board.get("site:x")
        breaker.record_success()  # already CLOSED: no transition
        assert obs.counter_value(
            "runtime.breaker.transitions.closed") == 0
