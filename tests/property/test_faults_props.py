"""Chaos suite: sweep every registered fault site under seeded plans.

The exception-safety contract under test (docs/ROBUSTNESS.md):

* a fault injected at *any* site surfaces from the public entry points
  only as a :class:`~repro.errors.ReproError` subclass — never a raw
  ``ValueError``/``KeyError``/``RecursionError``;
* no cache is poisoned — an aborted implication query is never stored,
  and the same engine re-queried without faults gives the right answer;
* the pipeline is reusable afterwards: fresh runs over the same inputs
  succeed and agree with ground truth.

All plans are seeded, so every failing example here replays exactly.
"""

from __future__ import annotations

import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import faults, obs
from repro.errors import FaultError, ReproError, ResourceExhausted
from repro.datasets.university import (
    UNIVERSITY_DOCUMENT,
    UNIVERSITY_DTD,
    UNIVERSITY_FDS,
)
from repro.dtd.parser import parse_dtd
from repro.fd.chase import chase_implies
from repro.fd.implication import ImplicationEngine
from repro.fd.model import FD, parse_fds
from repro.normalize.algorithm import normalize
from repro.tuples.extract import tuples_of
from repro.xmltree.conformance import conforms, conforms_unordered
from repro.xmltree.parser import parse_xml

DISJUNCTIVE_DTD = """
    <!ELEMENT r ((a | b), c*)>
    <!ELEMENT a EMPTY>
    <!ELEMENT b EMPTY>
    <!ELEMENT c EMPTY>
    <!ATTLIST c x CDATA #REQUIRED>
"""

#: (site name, valid kinds) for the complete pipeline registry.
ALL_SITES = faults.all_sites()
#: The ``serve`` subsystem's containment contract is HTTP-shaped — a
#: fault becomes a structured error *response*, it never escapes — and
#: is swept by tests/property/test_serve_chaos.py; the raise-contract
#: driver below never opens a socket, so those sites are excluded here.
SITE_NAMES = [site.name for site in ALL_SITES
              if site.subsystem != "serve"]

#: Ground truth probes: (query, expected) over the university spec.
TRUE_QUERY = "courses.course.@cno -> courses.course"
FALSE_QUERY = "courses.course.title.S -> courses.course.@cno"

#: Sweep depth: CI runs the default; the nightly workflow raises it
#: for the full chaos sweep (see .github/workflows/nightly-bench.yml).
CHAOS_EXAMPLES = int(os.environ.get("REPRO_CHAOS_EXAMPLES", "80"))


@pytest.fixture(autouse=True)
def _no_leaked_plans():
    """A test that escapes a ``with faults.use(...)`` abnormally must
    not leave a plan installed for the next test."""
    yield
    faults.teardown()


def _drive_pipeline() -> None:
    """One end-to-end run visiting every registered fault site:
    both parsers, ordered + multiset conformance, the closure and
    chase implication engines, tuple extraction, normalization, and a
    batch journal append + resume read-back."""
    dtd = parse_dtd(UNIVERSITY_DTD)
    sigma = parse_fds(UNIVERSITY_FDS)
    doc = parse_xml(UNIVERSITY_DOCUMENT)
    conforms(doc, dtd)
    conforms_unordered(doc, dtd)
    tuples_of(doc, dtd)
    engine = ImplicationEngine(dtd, sigma)
    engine.implies(FD.parse(TRUE_QUERY))
    normalize(dtd, sigma)
    with tempfile.TemporaryDirectory() as tmp:
        _drive_journal(os.path.join(tmp, "drive.journal"))
    chase_implies(parse_dtd(DISJUNCTIVE_DTD),
                  [FD.parse("r.a -> r.c.@x"), FD.parse("r.b -> r.c.@x")],
                  FD.parse("r -> r.c.@x"))


def _drive_journal(path: str) -> None:
    """Visit ``runtime.journal.append`` (meta + one result) and
    ``runtime.journal.replay`` (one resume read-back)."""
    from repro.runtime import journal as journal_mod
    from repro.runtime import manifest as manifest_mod
    from repro.runtime.batch import TaskOutcome
    from repro.runtime.breaker import BreakerBoard
    from repro.runtime.retry import RetryPolicy

    manifest = manifest_mod.build(
        [{"id": "drive", "op": "check",
          "dtd_text": "<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>"}])
    journal = journal_mod.open_journal(
        path, manifest=manifest, policy=RetryPolicy(),
        board=BreakerBoard(), fsync=False, warn=lambda message: None)
    journal.result(0, TaskOutcome(task=manifest.tasks[0], attempts=1))
    journal.close()
    journal_mod.open_journal(
        path, manifest=manifest, policy=RetryPolicy(),
        board=BreakerBoard(), resume=True, fsync=False,
        warn=lambda message: None).close()


def _assert_pipeline_healthy() -> None:
    """The post-fault probe: fresh runs agree with ground truth."""
    assert not faults.active
    dtd = parse_dtd(UNIVERSITY_DTD)
    sigma = parse_fds(UNIVERSITY_FDS)
    engine = ImplicationEngine(dtd, sigma)
    assert engine.implies(FD.parse(TRUE_QUERY))
    assert not engine.implies(FD.parse(FALSE_QUERY))
    result = normalize(dtd, sigma)
    assert result.steps


class TestRegistry:
    def test_expected_sites_registered(self):
        assert set(SITE_NAMES) >= {
            "dtd.parser.input", "dtd.parser.decl",
            "xml.parser.input", "xml.parser.tag",
            "regex.matching.search",
            "fd.chase.branch", "fd.chase.step",
            "fd.closure.iteration",
            "tuples.extract.node",
            "normalize.round",
            "runtime.journal.append", "runtime.journal.replay",
        }

    def test_every_site_reachable_by_the_driver(self):
        """``after=0`` at each site must actually fire — otherwise the
        sweep would vacuously pass on sites the driver never visits."""
        for name in SITE_NAMES:
            plan = faults.FaultPlan([faults.FaultArm(site=name)])
            with faults.use(plan):
                with pytest.raises(ReproError):
                    _drive_pipeline()
            assert plan.fired == [(name, "exception")], name

    def test_input_sites_allow_truncation(self):
        by_name = {site.name: site for site in ALL_SITES}
        assert "truncate" in by_name["dtd.parser.input"].kinds
        assert "truncate" in by_name["xml.parser.input"].kinds
        assert "truncate" not in by_name["fd.chase.step"].kinds


@settings(max_examples=CHAOS_EXAMPLES, deadline=None)
@given(site=st.sampled_from(SITE_NAMES),
       kind=st.sampled_from(sorted(faults.INPUT_KINDS)),
       after=st.integers(0, 8),
       seed=st.integers(0, 1_000))
def test_chaos_sweep_only_repro_errors_escape(site, kind, after, seed):
    """Any fault at any site, on any hit: either the pipeline survives
    (fault never fired or a truncation parsed as a valid prefix) or a
    ReproError escapes — and afterwards everything still works."""
    plan = faults.FaultPlan(
        [faults.FaultArm(site=site, kind=kind, after=after)], seed=seed)
    try:
        with faults.use(plan):
            _drive_pipeline()
    except ReproError:
        pass
    except BaseException as error:  # noqa: BLE001 — the contract itself
        raise AssertionError(
            f"non-ReproError {type(error).__name__} escaped for "
            f"{kind}@{site} after={after}: {error}") from error
    _assert_pipeline_healthy()


@settings(max_examples=max(25, CHAOS_EXAMPLES // 3), deadline=None)
@given(after=st.integers(0, 6),
       kind=st.sampled_from(sorted(faults.RAISE_KINDS)))
def test_aborted_implication_queries_are_never_cached(after, kind):
    dtd = parse_dtd(UNIVERSITY_DTD)
    sigma = parse_fds(UNIVERSITY_FDS)
    probe = FD.parse(FALSE_QUERY)
    expected = ImplicationEngine(dtd, sigma).implies(probe)

    engine = ImplicationEngine(dtd, sigma)
    fired = False
    try:
        with faults.inject("fd.closure.*", kind=kind, after=after):
            engine.implies(probe)
    except ReproError:
        fired = True
    info = engine.cache_info()
    # Coherent stats: every stored entry was a completed miss.
    assert info.currsize <= info.misses
    assert info.hits >= 0
    # The same engine, re-queried without faults, is correct — an
    # aborted (or poisoned) entry would surface here as a wrong hit.
    assert engine.implies(probe) == expected
    if fired and after == 0:
        # The very first closure iteration aborted: nothing from this
        # probe may have been stored.
        assert engine.cache_info().currsize >= info.currsize


def test_allocation_fault_is_both_repro_and_memory_error():
    with faults.inject("fd.closure.iteration", kind="allocation"):
        with pytest.raises(ReproError) as excinfo:
            _drive_pipeline()
    assert isinstance(excinfo.value, MemoryError)
    assert isinstance(excinfo.value, FaultError)


def test_exhaustion_fault_reports_injected_limit():
    with faults.inject("tuples.extract.node", kind="exhaustion"):
        with pytest.raises(ResourceExhausted) as excinfo:
            _drive_pipeline()
    assert excinfo.value.limit == "injected"
    assert excinfo.value.partial["site"] == "tuples.extract.node"


def test_truncation_is_deterministic_per_seed():
    def outcome(seed):
        plan = faults.FaultPlan(
            [faults.FaultArm(site="xml.parser.input", kind="truncate")],
            seed=seed)
        with faults.use(plan):
            try:
                tree = parse_xml(UNIVERSITY_DOCUMENT)
                return ("parsed", len(tree.nodes))
            except ReproError as error:
                return ("error", str(error))
    assert outcome(7) == outcome(7)
    assert outcome(11) == outcome(11)


def test_fired_log_and_obs_counters():
    obs.enable()
    obs.reset()
    try:
        plan = faults.FaultPlan(
            [faults.FaultArm(site="fd.chase.step", kind="exception",
                             after=2)])
        with faults.use(plan):
            with pytest.raises(ReproError):
                chase_implies(
                    parse_dtd(DISJUNCTIVE_DTD),
                    [FD.parse("r.a -> r.c.@x"),
                     FD.parse("r.b -> r.c.@x")],
                    FD.parse("r -> r.c.@x"))
        assert plan.fired == [("fd.chase.step", "exception")]
        counters = obs.snapshot()["counters"]
        assert counters["faults.injected"] == 1
        assert counters["faults.injected.exception"] == 1
    finally:
        obs.reset()
        obs.disable()


def test_plans_nest_innermost_wins():
    outer = faults.FaultPlan(
        [faults.FaultArm(site="fd.closure.iteration", after=0)])
    inner = faults.FaultPlan(
        [faults.FaultArm(site="fd.closure.iteration", kind="exhaustion",
                         after=0)])
    dtd = parse_dtd(UNIVERSITY_DTD)
    sigma = parse_fds(UNIVERSITY_FDS)
    with faults.use(outer):
        with faults.use(inner):
            with pytest.raises(ResourceExhausted):
                ImplicationEngine(dtd, sigma).implies(
                    FD.parse(TRUE_QUERY))
        assert outer.fired == []
    assert not faults.active
