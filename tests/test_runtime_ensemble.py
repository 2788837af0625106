"""Unit tests for the differential engine ensemble."""

import copy

import pytest

from repro.errors import (
    EnsembleDisagreementError,
    ResourceExhausted,
    UnsupportedFeatureError,
)
from repro.fd.model import FD
from repro.fd import ensemble
from repro.serve import BudgetDefaults, SpecCache
from repro.serve.handlers import handle
from repro.spec import XMLSpec
from repro import guard, obs

SIMPLE_DTD = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
              "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")
DISJUNCTIVE_DTD = """
    <!ELEMENT r ((a | b), c*)>
    <!ELEMENT a EMPTY>
    <!ELEMENT b EMPTY>
    <!ELEMENT c EMPTY>
    <!ATTLIST c x CDATA #REQUIRED>
"""
RECURSIVE_DTD = ("<!ELEMENT db (part*)>\n"
                 "<!ELEMENT part (part*)>\n"
                 "<!ATTLIST part pno CDATA #REQUIRED>")


def _spec(dtd_text, fds):
    return XMLSpec.parse(dtd_text, fds, engine="ensemble")


@pytest.fixture
def counters():
    """The obs counters recorded during the test."""
    was_enabled = obs.is_enabled()
    obs.enable()
    obs.reset()
    yield lambda: obs.snapshot()["counters"]
    obs.reset()
    if not was_enabled:
        obs.disable()


class TestAgreement:
    def test_simple_dtd_both_polarities(self):
        spec = _spec(SIMPLE_DTD, ["db.r.@a -> db.r.@b"])
        with ensemble.session("strict") as sess:
            assert spec.implies("db.r.@a -> db.r.@b")
            assert not spec.implies("db.r.@b -> db.r.@a")
        assert sess.disagreements == []

    def test_disjunctive_dtd_agrees_with_chase(self):
        """The classic closure-incomplete case: the disjunction forces
        a case split only the chase (and brute) can decide."""
        sigma = ["r.a -> r.c.@x", "r.b -> r.c.@x"]
        spec = _spec(DISJUNCTIVE_DTD, sigma)
        with ensemble.session("strict") as sess:
            assert spec.implies("r -> r.c.@x")
        assert sess.disagreements == []

    def test_spec_level_pipelines_run_under_the_oracle(self):
        spec = _spec(SIMPLE_DTD, ["db.r.@a -> db.r.@b"])
        with ensemble.session("strict") as sess:
            spec.xnf_violations()
            spec.normalize()
        assert sess.disagreements == []


class TestDisagreement:
    @pytest.fixture
    def rigged(self, monkeypatch):
        """Force the closure member to claim YES on everything; on a
        non-simple DTD where the chase proves NO, that is an
        authoritative contradiction."""
        monkeypatch.setattr(ensemble, "closure_implies",
                            lambda dtd, sigma, fd: True)

    def test_check_mode_records_and_resolves_with_chase(self, rigged):
        spec = _spec(DISJUNCTIVE_DTD, ["r.a -> r.c.@x"])
        with ensemble.session("check") as sess:
            answer = spec.implies("r -> r.c.@x")
        assert answer is False               # the exact engine wins
        [record] = sess.disagreements
        assert record.resolved_with == "chase"
        assert dict(record.verdicts)["closure"] == "YES"
        assert dict(record.verdicts)["chase"] == "NO"

    def test_strict_mode_raises_with_the_record(self, rigged):
        spec = _spec(DISJUNCTIVE_DTD, ["r.a -> r.c.@x"])
        with ensemble.session("strict") as sess:
            with pytest.raises(EnsembleDisagreementError) as info:
                spec.implies("r -> r.c.@x")
        assert info.value.record is not None
        assert info.value.record.resolved_with is None
        assert sess.disagreements      # escalated, never silent

    def test_closure_incompleteness_is_not_a_disagreement(self):
        """closure NO / chase YES on a non-simple DTD is the documented
        approximation gap, not a contradiction."""
        sigma = ["r.a -> r.c.@x", "r.b -> r.c.@x"]
        spec = _spec(DISJUNCTIVE_DTD, sigma)
        with ensemble.session("strict") as sess:
            assert spec.implies("r -> r.c.@x")
        assert sess.disagreements == []


class TestDegradation:
    def test_chase_limit_falls_back_to_sound_closure_yes(
            self, monkeypatch, counters):
        def exhausted(dtd, sigma, fd, **kwargs):
            raise ResourceExhausted("branches", spent=8, allowed=8)
        monkeypatch.setattr(ensemble, "chase_implies", exhausted)
        spec = _spec(DISJUNCTIVE_DTD, ["r.a -> r.c.@x"])
        with ensemble.session("check"):
            assert spec.implies("r.a -> r.c.@x")   # closure proves YES
        assert counters()["ensemble.fallback.closure"] == 1
        assert "ensemble.fallback.chase" not in counters()

    def test_chase_limit_with_unsound_closure_no_reraises(self,
                                                          monkeypatch):
        def exhausted(dtd, sigma, fd, **kwargs):
            raise ResourceExhausted("branches", spent=8, allowed=8)
        monkeypatch.setattr(ensemble, "chase_implies", exhausted)
        spec = _spec(DISJUNCTIVE_DTD, ["r.a -> r.c.@x"])
        with ensemble.session("check"):
            with pytest.raises(ResourceExhausted):
                spec.implies("r -> r.c.@x")   # closure NO is not sound

    def test_closure_limit_falls_back_to_exact_chase(self, monkeypatch,
                                                     counters):
        def exhausted(dtd, sigma, fd, **kwargs):
            raise ResourceExhausted("steps", spent=5, allowed=5)
        monkeypatch.setattr(ensemble, "closure_implies", exhausted)
        spec = _spec(DISJUNCTIVE_DTD, ["r.a -> r.c.@x"])
        with ensemble.session("check"):
            assert not spec.implies("r -> r.c.@x")
        assert counters()["ensemble.fallback.chase"] == 1
        assert "ensemble.fallback.closure" not in counters()

    def test_budget_trips_leave_the_default_session_unchanged(
            self, counters):
        """``xnf serve`` runs ensemble requests in the process-wide
        default session, which nothing clears: a fallback must not
        grow it."""
        before = copy.deepcopy(vars(ensemble.current()))
        cache = SpecCache(capacity=4)
        payload = {"dtd": DISJUNCTIVE_DTD, "fds": "r.a -> r.c.@x",
                   "fd": "r.a -> r.c.@x", "engine": "ensemble",
                   "budget": {"max_steps": 5}}
        for _ in range(3):
            status, _ = handle("/v1/implication", payload, cache=cache,
                               defaults=BudgetDefaults())
            assert status == 200
        assert counters().get("ensemble.fallback.closure", 0) \
            + counters().get("ensemble.fallback.chase", 0) > 0
        assert vars(ensemble.current()) == before

    def test_recursive_simple_dtd_served_by_closure(self):
        spec = _spec(RECURSIVE_DTD, ["db.part.@pno -> db.part"])
        with ensemble.session("strict") as sess:
            assert spec.implies("db.part.@pno -> db.part")
        assert sess.disagreements == []

    def test_recursive_non_simple_refusal_matches_auto(self):
        """A closure NO on a recursive non-simple DTD is unsound to
        serve, and no exact engine can run — refuse like auto."""
        dtd = ("<!ELEMENT db ((a | part), part)>\n<!ELEMENT a EMPTY>\n"
               "<!ELEMENT part (part?)>\n"
               "<!ATTLIST part pno CDATA #REQUIRED>")
        spec = _spec(dtd, [])
        with pytest.raises(UnsupportedFeatureError):
            spec.implies("db.part.@pno -> db.part")


class TestBruteMember:
    def test_small_inputs_include_brute(self):
        dtd = XMLSpec.parse(SIMPLE_DTD, []).dtd
        assert ensemble.brute_feasible(dtd, sigma_size=1)

    def test_large_sigma_excludes_brute(self):
        dtd = XMLSpec.parse(SIMPLE_DTD, []).dtd
        assert not ensemble.brute_feasible(
            dtd, sigma_size=ensemble.BRUTE_MAX_SIGMA + 1)

    def test_recursive_dtd_excludes_brute(self):
        dtd = XMLSpec.parse(RECURSIVE_DTD, []).dtd
        assert not ensemble.brute_feasible(dtd, sigma_size=1)

    def test_brute_countermodel_contradicts_rigged_exact_engines(
            self, monkeypatch):
        """brute finds a countermodel -> authoritative NO, even when
        both closure and chase are rigged to say YES."""
        monkeypatch.setattr(ensemble, "closure_implies",
                            lambda dtd, sigma, fd: True)
        monkeypatch.setattr(ensemble, "chase_implies",
                            lambda dtd, sigma, fd, **kw: True)
        spec = _spec(SIMPLE_DTD, [])
        with ensemble.session("check") as sess:
            answer = spec.implies("db.r.@a -> db.r.@b")
        assert answer is True          # resolved with the primary
        [record] = sess.disagreements
        assert dict(record.verdicts)["brute"] == "NO"


class TestSession:
    def test_sessions_nest_and_drain(self):
        outer = ensemble.current()
        with ensemble.session("check") as sess:
            assert ensemble.current() is sess
        assert ensemble.current() is outer

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ensemble.Session("paranoid")
