"""Unit tests for the batch runner (repro.runtime.batch)."""

import json

import pytest

from repro import faults
from repro.errors import ReproError, ResourceExhausted
from repro.runtime import manifest as mf
from repro.runtime.batch import BatchRunner, error_chain, run_batch
from repro.runtime.breaker import BreakerBoard
from repro.runtime.retry import RetryPolicy

DTD = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
       "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")
BROKEN_DTD = "<!ELEMENT db (unclosed"


@pytest.fixture(autouse=True)
def _no_leaked_plans():
    yield
    faults.teardown()


def _manifest(tasks, **defaults):
    return mf.build(tasks, defaults=defaults)


def _check_task(**overrides):
    base = {"op": "check", "dtd_text": DTD,
            "fds_text": "db.r.@a -> db.r.@b"}
    base.update(overrides)
    return base


def _policy(**overrides):
    base = {"retries": 2, "backoff_base_ms": 0}
    base.update(overrides)
    return RetryPolicy(**base)


class TestHappyPath:
    def test_all_ops_produce_results(self):
        manifest = _manifest([
            {"id": "i", "op": "implies", "dtd_text": DTD,
             "fds_text": "db.r.@a -> db.r.@b",
             "fd": "db.r.@a -> db.r.@b"},
            _check_task(id="c"),
            {"id": "n", "op": "normalize", "dtd_text": DTD,
             "fds_text": "db.r.@a -> db.r.@b"},
        ])
        summary = run_batch(manifest, policy=_policy())
        assert summary["counts"] == {"total": 3, "ok": 3,
                                     "failed": 0, "lost": 0}
        by_id = {task["id"]: task for task in summary["tasks"]}
        assert by_id["i"]["result"] == {"implied": True}
        assert by_id["c"]["result"]["in_xnf"] is False
        assert by_id["n"]["result"]["final_in_xnf"] is True

    def test_summary_schema_fields(self):
        summary = run_batch(_manifest([_check_task()]), policy=_policy())
        assert summary["schema"] == "repro.runtime.batch"
        assert summary["version"] == 1
        assert summary["dead_letters"] == []
        assert summary["breakers"] == {}


class TestRetries:
    def test_transient_fault_is_retried_to_success(self):
        manifest = _manifest([_check_task()])
        recorded = []
        with faults.use(
                faults.plan_from_spec("fd.closure.iteration:exception")):
            summary = run_batch(manifest, policy=_policy(),
                                sleeper=recorded.append)
        task = summary["tasks"][0]
        assert task["status"] == "ok"
        assert task["attempts"] == 2
        assert task["retried"] is True
        assert task["failures"][0]["transient"] is True
        assert summary["counts"]["failed"] == 0

    def test_backoff_delays_are_planned_and_slept(self):
        manifest = _manifest([_check_task(id="t")], seed=5)
        slept = []
        with faults.use(
                faults.plan_from_spec("fd.closure.iteration:exception")):
            summary = run_batch(
                manifest, policy=RetryPolicy(backoff_base_ms=80, seed=5),
                sleeper=slept.append)
        planned = summary["tasks"][0]["delays_ms"]
        assert slept == planned
        assert planned == [RetryPolicy(backoff_base_ms=80,
                                       seed=5).delay_ms("t", 0)]

    def test_permanent_failure_is_not_retried(self):
        manifest = _manifest([_check_task(dtd_text=BROKEN_DTD)])
        summary = run_batch(manifest, policy=_policy())
        task = summary["tasks"][0]
        assert task["status"] == "dead-letter"
        assert task["attempts"] == 1
        [letter] = summary["dead_letters"]
        assert letter["reason"] == "permanent"

    def test_transient_exhaustion_dead_letters_after_budget(self):
        spec = ",".join(["fd.closure.iteration:exception"] * 10)
        manifest = _manifest([_check_task()])
        with faults.use(faults.plan_from_spec(spec)):
            summary = run_batch(manifest, policy=_policy(retries=2))
        [letter] = summary["dead_letters"]
        assert letter["reason"] == "retries_exhausted"
        assert letter["attempts"] == 3


class TestDeadLetters:
    def test_error_chain_captures_cause_links(self):
        try:
            try:
                raise ValueError("the root cause")
            except ValueError as inner:
                raise ReproError("wrapped") from inner
        except ReproError as outer:
            chain = error_chain(outer)
        assert [entry["type"] for entry in chain] \
            == ["ReproError", "ValueError"]
        assert chain[1]["message"] == "the root cause"

    def test_error_chain_records_fault_site_and_limit(self):
        from repro.errors import InjectedFault
        chain = error_chain(InjectedFault("fd.chase.step", "exception"))
        assert chain[0]["site"] == "fd.chase.step"
        assert chain[0]["kind"] == "exception"
        chain = error_chain(ResourceExhausted(
            "steps", spent=10, allowed=10, partial={"engine": "chase"}))
        assert chain[0]["limit"] == "steps"
        assert chain[0]["partial"] == {"engine": "chase"}

    def test_unreadable_spec_file_is_a_per_task_dead_letter(self,
                                                           tmp_path):
        payload = {"schema": mf.MANIFEST_SCHEMA,
                   "version": mf.MANIFEST_VERSION,
                   "tasks": [{"id": "gone", "op": "check",
                              "dtd": "absent.dtd"},
                             _check_task(id="fine")]}
        manifest = mf.from_payload(payload, base_dir=tmp_path)
        summary = run_batch(manifest, policy=_policy())
        assert summary["counts"] == {"total": 2, "ok": 1,
                                     "failed": 1, "lost": 0}
        [letter] = summary["dead_letters"]
        assert letter["id"] == "gone"
        assert "cannot read spec file" in letter["error_chain"][0]["message"]

    def test_non_repro_errors_propagate(self):
        """A non-ReproError is a contract breach: crash loudly."""
        manifest = _manifest([_check_task()])
        runner = BatchRunner(manifest, policy=_policy())
        original = runner._execute
        runner._execute = lambda task: (_ for _ in ()).throw(
            KeyError("library bug"))
        with pytest.raises(KeyError):
            runner.run()


class TestBreakerIntegration:
    def test_repeated_signature_opens_breaker_and_skips(self):
        spec = ",".join(["fd.closure.iteration:exception"] * 60)
        manifest = _manifest([_check_task(id=f"t{i}")
                              for i in range(12)])
        board = BreakerBoard(threshold=2, probe_interval=4)
        with faults.use(faults.plan_from_spec(spec)):
            summary = run_batch(manifest, policy=_policy(retries=1),
                                board=board)
        snap = summary["breakers"]["site:fd.closure.iteration"]
        assert snap["trips"] >= 1
        assert snap["skips"] >= 1
        reasons = {letter["reason"]
                   for letter in summary["dead_letters"]}
        assert "breaker_open" in reasons
        # The invariant the whole layer exists for:
        assert summary["counts"]["lost"] == 0
        assert summary["counts"]["ok"] \
            + summary["counts"]["failed"] == 12


class TestDeterminism:
    """Satellite: two runs of one manifest are byte-identical."""

    def test_summaries_byte_identical_without_faults(self):
        manifest = _manifest([_check_task(id=f"t{i}")
                              for i in range(5)], seed=3)
        policy = RetryPolicy(retries=2, backoff_base_ms=120, seed=3)
        runs = [json.dumps(run_batch(manifest, policy=policy,
                                     sleeper=lambda ms: None),
                           sort_keys=True)
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_summaries_byte_identical_under_a_fault_plan(self):
        manifest = _manifest([_check_task(id=f"t{i}")
                              for i in range(6)], seed=11)
        policy = RetryPolicy(retries=2, backoff_base_ms=100, seed=11)

        def one_run():
            slept = []
            with faults.use(faults.plan_from_spec(
                    "fd.closure.iteration:exception:2,"
                    "fd.chase.step:exception")):
                summary = run_batch(manifest, policy=policy,
                                    sleeper=slept.append)
            return json.dumps(summary, sort_keys=True), slept

        (first, slept1), (second, slept2) = one_run(), one_run()
        assert first == second
        assert slept1 == slept2      # jitter from seeds, not clocks

    def test_different_seed_changes_planned_delays(self):
        manifest = _manifest([_check_task(id="t")])

        def delays(seed):
            with faults.use(faults.plan_from_spec(
                    "fd.closure.iteration:exception")):
                summary = run_batch(
                    manifest,
                    policy=RetryPolicy(backoff_base_ms=100, seed=seed),
                    sleeper=lambda ms: None)
            return summary["tasks"][0]["delays_ms"]

        assert delays(1) != delays(2)


class TestBackends:
    """The execution-backend seam (serial default, pool pluggable)."""

    def test_default_backend_is_serial(self):
        from repro.runtime.batch import SerialBackend
        runner = BatchRunner(_manifest([_check_task(id="t")]))
        assert isinstance(runner.backend, SerialBackend)

    def test_explicit_serial_backend_matches_default_bytes(self):
        from repro.runtime.batch import SerialBackend
        manifest = _manifest([_check_task(id=f"t{i}")
                              for i in range(3)])
        default = run_batch(manifest, policy=_policy())
        explicit = run_batch(manifest, policy=_policy(),
                             backend=SerialBackend())
        assert json.dumps(default, sort_keys=True) \
            == json.dumps(explicit, sort_keys=True)

    def test_serial_backend_reports_on_task_done_in_order(self):
        manifest = _manifest([_check_task(id=f"t{i}")
                              for i in range(3)])
        seen = []
        run_batch(manifest, policy=_policy(),
                  on_task_done=lambda outcome: seen.append(
                      outcome.task.id))
        assert seen == ["t0", "t1", "t2"]

    def test_summarize_is_a_pure_function_of_outcomes(self):
        """The pool path relies on summarize() rendering the same
        bytes for the same outcome list."""
        manifest = _manifest([_check_task(id=f"t{i}")
                              for i in range(3)])
        runner = BatchRunner(manifest, policy=_policy())
        outcomes = runner.backend.run(runner)
        assert json.dumps(runner.summarize(outcomes), sort_keys=True) \
            == json.dumps(runner.summarize(outcomes), sort_keys=True)
