"""Unit tests for the resource governor (``repro.guard``)."""

from __future__ import annotations

import pytest

from repro import guard, obs
from repro.errors import ReproError, ResourceExhausted
from repro.guard import budget as guard_budget
from repro.dtd.parser import parse_dtd
from repro.fd.chase import chase_implies
from repro.fd.closure import closure_implies
from repro.fd.brute import brute_implies
from repro.fd.model import FD
from repro.regex.matching import matches_multiset
from repro.regex.parser import parse_regex
from repro.tuples.extract import iter_tuples, tuples_of
from repro.xmltree.parser import parse_xml


@pytest.fixture
def disjunctive_spec():
    """Three independent binary disjunctions: the chase forks 2^3
    branches, so tiny branch budgets trip reliably."""
    dtd = parse_dtd("""
        <!ELEMENT r ((a | b), (c | d), (e | f))>
        <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>
        <!ELEMENT d EMPTY> <!ELEMENT e EMPTY> <!ELEMENT f EMPTY>
        <!ATTLIST a x CDATA #REQUIRED>
        <!ATTLIST c y CDATA #REQUIRED>
    """)
    sigma = [FD.parse("r.a.@x -> r.c.@y")]
    query = FD.parse("r.c.@y -> r.a.@x")
    return dtd, sigma, query


@pytest.fixture
def starred_spec():
    """Disjunctions plus a starred child: the query is not structurally
    implied, so the chase really builds and forks tableaux."""
    dtd = parse_dtd("""
        <!ELEMENT r ((a | b), (c | d), e*)>
        <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>
        <!ELEMENT d EMPTY> <!ELEMENT e EMPTY>
        <!ATTLIST e x CDATA #REQUIRED y CDATA #REQUIRED>
    """)
    sigma = [FD.parse("r.e.@y -> r.e.@x")]
    query = FD.parse("r.e.@y -> r.e.@x")
    return dtd, sigma, query


class TestBudget:
    def test_limits_must_be_positive(self):
        for kwargs in ({"deadline": 0}, {"max_steps": -1},
                       {"max_branches": 0}, {"max_nodes": -5},
                       {"deadline": float("nan")},
                       {"max_steps": float("nan")}):
            with pytest.raises(ValueError):
                guard.Budget(**kwargs)

    def test_step_limit_trips_with_payload(self):
        budget = guard.Budget(max_steps=3)
        for _ in range(3):
            budget.tick_steps()
        with pytest.raises(ResourceExhausted) as excinfo:
            budget.tick_steps()
        error = excinfo.value
        assert isinstance(error, ReproError)
        assert error.limit == "steps"
        assert error.spent == 4 and error.allowed == 3
        assert budget.tripped == "steps"

    def test_branch_and_node_limits_independent(self):
        budget = guard.Budget(max_branches=1, max_nodes=10)
        budget.tick_branches()
        budget.tick_nodes(10)
        with pytest.raises(ResourceExhausted) as excinfo:
            budget.tick_nodes()
        assert excinfo.value.limit == "nodes"

    def test_deadline_with_injected_clock(self):
        now = [0.0]
        budget = guard.Budget(deadline=1.0, clock=lambda: now[0])
        budget.tick_steps()
        now[0] = 0.99
        budget.check()
        now[0] = 1.0
        with pytest.raises(ResourceExhausted) as excinfo:
            budget.check()
        assert excinfo.value.limit == "deadline"
        assert "deadline" in str(excinfo.value)

    def test_remaining_and_spent(self):
        now = [0.0]
        budget = guard.Budget(deadline=2.0, max_steps=10,
                              clock=lambda: now[0])
        budget.tick_steps(4)
        now[0] = 0.5
        remaining = budget.remaining()
        assert remaining["steps"] == 6
        assert remaining["deadline"] == pytest.approx(1.5)
        assert remaining["branches"] is None
        spent = budget.spent()
        assert spent["steps"] == 4
        assert spent["elapsed"] == pytest.approx(0.5)


class TestAmbientInstallation:
    def test_use_installs_and_restores(self):
        assert guard.current() is None
        assert guard_budget.active is False
        budget = guard.Budget(max_steps=1)
        with guard.use(budget) as installed:
            assert installed is budget
            assert guard.current() is budget
            assert guard_budget.active is True
        assert guard.current() is None
        assert guard_budget.active is False

    def test_nesting_innermost_wins(self):
        outer = guard.Budget(max_steps=100)
        inner = guard.Budget(max_steps=1)
        with guard.use(outer):
            with guard.use(inner):
                assert guard.current() is inner
            assert guard.current() is outer

    def test_limits_noop_when_unset(self):
        with guard.limits() as budget:
            assert budget is None
            assert guard_budget.active is False

    def test_restored_after_trip(self, starred_spec):
        dtd, sigma, query = starred_spec
        with pytest.raises(ResourceExhausted):
            with guard.limits(max_steps=2):
                chase_implies(dtd, sigma, query)
        assert guard.current() is None
        assert guard_budget.active is False


class TestEngineIntegration:
    def test_chase_branch_budget_with_partial(self, starred_spec):
        dtd, sigma, query = starred_spec
        with guard.limits(max_branches=2):
            with pytest.raises(ResourceExhausted) as excinfo:
                chase_implies(dtd, sigma, query)
        partial = excinfo.value.partial
        assert partial["engine"] == "chase"
        assert partial["branches_explored"] >= 1
        assert "query" in partial

    def test_closure_step_budget_with_partial(self, disjunctive_spec):
        dtd, sigma, query = disjunctive_spec
        with guard.limits(max_steps=1):
            with pytest.raises(ResourceExhausted) as excinfo:
                closure_implies(dtd, sigma, query)
        assert excinfo.value.partial["engine"] == "closure"

    def test_brute_budget_with_partial(self, disjunctive_spec):
        dtd, sigma, query = disjunctive_spec
        with guard.limits(max_steps=5):
            with pytest.raises(ResourceExhausted) as excinfo:
                brute_implies(dtd, sigma, query)
        assert excinfo.value.partial["engine"] == "brute"
        assert excinfo.value.partial["trees_enumerated"] >= 0

    def test_matches_multiset_budget(self):
        regex = parse_regex("((a | b)*, (c | d)*, (e | f)*)")
        counts = {"a": 3, "b": 3, "c": 3, "d": 3, "e": 3, "f": 3}
        assert matches_multiset(regex, counts)
        with guard.limits(max_steps=2):
            with pytest.raises(ResourceExhausted):
                matches_multiset(regex, counts)

    def test_unguarded_behaviour_unchanged(self, starred_spec):
        dtd, sigma, query = starred_spec
        assert chase_implies(dtd, sigma, query) is True
        assert closure_implies(dtd, sigma, query) is True


class TestTupleEnumeration:
    @pytest.fixture
    def wide_instance(self):
        """3 labels x 4 children each: 64 maximal tuples."""
        dtd = parse_dtd("""
            <!ELEMENT r (a*, b*, c*)>
            <!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>
            <!ATTLIST a x CDATA #REQUIRED>
        """)
        xml = "<r>" + "".join(
            f'<a x="{i}"/>' for i in range(4)) + "<b/><b/><b/><b/>" \
            + "<c/><c/><c/><c/></r>"
        return dtd, parse_xml(xml)

    def test_node_budget_trips_before_full_product(self, wide_instance):
        dtd, tree = wide_instance
        with guard.limits(max_nodes=20):
            with pytest.raises(ResourceExhausted) as excinfo:
                tuples_of(tree, dtd)
        error = excinfo.value
        assert error.limit == "nodes"
        assert error.partial["engine"] == "tuples"
        assert "tuples_yielded" in error.partial

    def test_streaming_prefix_within_budget(self, wide_instance):
        """Lazy enumeration: the first few tuples are retrievable under
        a budget far too small for the full product."""
        dtd, tree = wide_instance
        with guard.limits(max_nodes=30):
            iterator = iter_tuples(tree, dtd)
            first = next(iterator)
            second = next(iterator)
        assert first.paths and second.paths

    def test_budget_free_enumeration_unchanged(self, wide_instance):
        dtd, tree = wide_instance
        assert len(tuples_of(tree, dtd)) == 4 ** 3


class TestObsCounters:
    def test_checks_trips_and_remaining_recorded(self, disjunctive_spec):
        dtd, sigma, query = disjunctive_spec
        was_enabled = obs.is_enabled()
        obs.enable()
        obs.reset()
        try:
            with pytest.raises(ResourceExhausted):
                with guard.limits(max_steps=3):
                    closure_implies(dtd, sigma, query)
            snapshot = obs.snapshot()
            assert snapshot["counters"]["guard.checks"] >= 3
            assert snapshot["counters"]["guard.trips.steps"] == 1
            assert "guard.remaining.steps" in snapshot["histograms"]
            # A completed (untripped) region records headroom and the
            # completion counter.
            with guard.limits(max_steps=10_000):
                closure_implies(dtd, sigma, query)
            snapshot = obs.snapshot()
            assert snapshot["counters"]["guard.completed"] == 1
            remaining = snapshot["histograms"]["guard.remaining.steps"]
            assert remaining["max"] > 0
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()

    def test_no_counters_while_disabled(self, disjunctive_spec):
        dtd, sigma, query = disjunctive_spec
        obs.reset()
        with guard.limits(max_steps=10_000):
            closure_implies(dtd, sigma, query)
        assert obs.counter_value("guard.checks") == 0


class TestThreadScope:
    """Each thread has its own budget stack: a budget governs the
    thread that installed it (every unit of work installs its own)."""

    def test_other_threads_see_no_budget(self):
        import threading

        seen: list[object] = []

        def worker() -> None:
            seen.append(guard.current())

        with guard.use(guard.Budget(max_steps=1)):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert seen == [None]

    def test_concurrent_thread_budgets_are_isolated(self):
        import threading

        barrier = threading.Barrier(2)
        results: dict[str, object] = {}

        def worker(name: str, budget: guard.Budget) -> None:
            with guard.use(budget):
                barrier.wait(timeout=5)
                results[name] = guard.current()
                barrier.wait(timeout=5)

        fast = guard.Budget(max_steps=1)
        slow = guard.Budget(max_steps=10_000)
        threads = [threading.Thread(target=worker, args=("fast", fast)),
                   threading.Thread(target=worker, args=("slow", slow))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results["fast"] is fast
        assert results["slow"] is slow

    def test_one_thread_tripping_leaves_neighbors_ungoverned(
            self, disjunctive_spec):
        import threading

        dtd, sigma, query = disjunctive_spec
        outcomes: dict[str, object] = {}

        def tight() -> None:
            try:
                with guard.limits(max_steps=1):
                    closure_implies(dtd, sigma, query)
                outcomes["tight"] = "completed"
            except ResourceExhausted as error:
                outcomes["tight"] = error.limit

        def free() -> None:
            outcomes["free"] = closure_implies(dtd, sigma, query)

        tight_thread = threading.Thread(target=tight)
        tight_thread.start()
        tight_thread.join()
        free_thread = threading.Thread(target=free)
        free_thread.start()
        free_thread.join()
        assert outcomes["tight"] == "steps"
        assert isinstance(outcomes["free"], bool)
        assert guard_budget.active is False

    def test_active_flag_counts_across_scopes(self):
        """``active`` stays set while any thread has a budget."""
        import threading

        installed = threading.Event()
        release = threading.Event()

        def worker() -> None:
            with guard.use(guard.Budget(max_steps=10)):
                installed.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        installed.wait(timeout=5)
        with guard.use(guard.Budget(max_steps=10)):
            assert guard_budget.active is True
        assert guard.current() is None
        assert guard_budget.active is True
        release.set()
        thread.join()
        assert guard_budget.active is False

    def test_teardown_sweeps_both_scopes(self):
        """Teardown sweeps every budget of the calling thread, nested
        ones included."""
        with guard.use(guard.Budget(max_steps=10)):
            with guard.use(guard.Budget(max_steps=10)):
                assert guard.teardown() == 2
                assert guard.current() is None
                assert guard_budget.active is False
        assert guard.current() is None
        assert guard_budget.active is False

    def test_bad_scope_rejected(self):
        """There is one scope, the thread: ``scope=`` is gone."""
        with pytest.raises(TypeError, match="scope"):
            with guard.use(guard.Budget(max_steps=1), scope="thread"):
                pass
        with pytest.raises(TypeError, match="scope"):
            guard.limits(max_steps=1, scope="thread")


class TestLimits:
    """``repro.guard.Limits``: the one rule for the four limits, how a
    unit's limits combine with the operator's, and where ``timeout``
    becomes the budget's ``deadline``."""

    @pytest.mark.parametrize("key, value", [
        ("timeout", 0), ("timeout", -1.5), ("timeout", float("nan")),
        ("timeout", float("inf")), ("timeout", True), ("timeout", "5"),
        pytest.param("timeout", 10 ** 400, id="timeout-beyond-float"),
        ("max_steps", 0), ("max_steps", 0.5), ("max_steps", 2.9),
        ("max_steps", float("nan")), ("max_branches", True),
        ("max_nodes", -1), ("max_nodes", "10"),
    ])
    def test_bad_values_are_refused_naming_the_key(self, key, value):
        with pytest.raises(ValueError, match=key):
            guard.Limits(**{key: value})

        class Refused(ReproError):
            pass

        with pytest.raises(Refused, match=f"^here: {key} must be"):
            guard.Limits.parse({key: value, "other": "ignored"},
                               where="here: ", error=Refused)

    def test_good_values(self):
        limits = guard.Limits.parse({"timeout": 2, "max_steps": 5,
                                     "max_nodes": None, "id": "x"})
        assert limits == guard.Limits(timeout=2, max_steps=5)
        assert limits and not guard.Limits()
        assert guard.Limits(timeout=0.5).to_json() == {
            "timeout": 0.5, "max_steps": None, "max_branches": None,
            "max_nodes": None}

    def test_fill_takes_unset_limits_from_defaults(self):
        own = guard.Limits(max_steps=5)
        defaults = guard.Limits(timeout=2.0, max_steps=50, max_nodes=9)
        assert own.fill(defaults) == guard.Limits(
            timeout=2.0, max_steps=5, max_nodes=9)

    def test_cap_keeps_the_tighter_limit(self):
        own = guard.Limits(timeout=30.0, max_steps=5)
        ceiling = guard.Limits(timeout=2.0, max_steps=50, max_nodes=9)
        assert own.cap(ceiling) == guard.Limits(
            timeout=2.0, max_steps=5, max_nodes=9)
        assert guard.Limits().cap(ceiling) == ceiling

    def test_install_turns_timeout_into_the_deadline(self):
        with guard.Limits(timeout=3.0, max_nodes=7).install() as budget:
            assert guard.current() is budget
            assert (budget.deadline, budget.max_nodes) == (3.0, 7)
        with guard.Limits().install() as budget:
            assert budget is None and guard_budget.active is False
