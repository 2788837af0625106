"""Property tests for the decomposition algorithm (Thm 2, Prop 6-8).

Random simple specifications are normalized; we check termination, the
XNF postcondition, the shrinking anomalous-path measure, and instance
losslessness on random conforming documents.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import (
    NormalizationError,
    ReproError,
    UnsupportedFeatureError,
)
from repro.datasets.generators import (
    random_document,
    random_fds,
    random_simple_dtd,
)
from repro.fd.implication import ImplicationEngine
from repro.fd.satisfaction import satisfies_all
from repro.lossless.check import check_normalization_lossless
from repro.normalize.algorithm import normalize
from repro.xnf.anomalous import anomalous_paths
from repro.xnf.check import is_in_xnf


def _spec(seed: int):
    rng = random.Random(seed)
    dtd = random_simple_dtd(rng, max_depth=3, max_children=2, max_attrs=2)
    sigma = random_fds(rng, dtd, rng.randint(1, 3))
    return rng, dtd, sigma


def _normalize(dtd, sigma):
    try:
        return normalize(dtd, sigma)
    except UnsupportedFeatureError:
        # a random transformation target occurs at several paths —
        # outside the Section 6 fragment; not a failure of the theorem
        return None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
@example(seed=69910)   # the pinned Prop 6 bug seed, via the filter
@example(seed=740)     # a minimality two-cycle (the descent must end)
def test_theorem2_terminates_in_xnf(seed):
    _rng, dtd, sigma = _spec(seed)
    result = _normalize(dtd, sigma)
    if result is None:
        return
    assert is_in_xnf(result.dtd, result.sigma)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 100_000))
@example(seed=69910)   # the pinned Prop 6 bug seed, via the filter
@example(seed=740)     # a minimality two-cycle (the descent must end)
def test_proposition6_measure_shrinks(seed):
    """Each step strictly reduces the anomalous-path set (checked
    inside normalize when check_progress=True, re-asserted here on the
    endpoints)."""
    _rng, dtd, sigma = _spec(seed)
    before = anomalous_paths(ImplicationEngine(dtd, sigma))
    result = _normalize(dtd, sigma)
    if result is None:
        return
    after = anomalous_paths(ImplicationEngine(result.dtd, result.sigma))
    assert not after
    if result.steps:
        assert before


def test_known_prop6_progress_violation_seed_69910():
    """Regression pin for the once-open seed-69910 progress violation.

    Two fixes keep this green: the closure engine's case-split
    candidates now include derived-equal element paths with unshared
    parents (so ``e1.e2.@a3 -> e1.e4`` stays derivable after the
    create step rewrites Σ and ``e1.e4.@a6`` never looks newly
    anomalous), and the runtime progress check asserts Proposition 6's
    lexicographic depth-multiset measure instead of strict set
    inclusion.  Historically this raised ``NormalizationError``
    ("Proposition 6 progress violated") and was pinned as a strict
    xfail; it must now normalize to XNF in a single create step."""
    _rng, dtd, sigma = _spec(69910)
    result = normalize(dtd, sigma)
    assert is_in_xnf(result.dtd, result.sigma)
    assert [step.kind for step in result.steps] == ["create"]


def _check_lossless(seed):
    rng, dtd, sigma = _spec(seed)
    result = _normalize(dtd, sigma)
    if result is None or not result.steps:
        return
    found = 0
    for attempt in range(40):
        doc = random_document(rng, dtd, max_repeat=2)
        if not satisfies_all(doc, dtd, sigma):
            continue
        found += 1
        try:
            migrated = result.migrate(doc)
            assert satisfies_all(migrated, result.dtd, result.sigma)
            assert check_normalization_lossless(result, dtd, doc)
        except ReproError:
            # The document carries a value with no target node to
            # receive it: the paper's lossless witness invents carrier
            # nodes here, while our value-preserving migrator refuses
            # loudly (see EXPERIMENTS.md) — not a losslessness failure.
            continue
        if found >= 3:
            break


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000))
# Discovered failure: a create step whose key path is null on some
# tuples silently dropped the moved value; migration now refuses.
@example(seed=2138)
@example(seed=740)     # a minimality two-cycle (the descent must end)
def test_proposition8_lossless_on_random_documents(seed):
    _check_lossless(seed)


# Open failures a scan of every seed 0-100,000 found; each stands for
# its class (CHANGES.md lists every seed).  Strict, so a fix shows up.
@pytest.mark.parametrize("seed", [
    pytest.param(5074, marks=pytest.mark.xfail(
        strict=True, raises=NormalizationError,
        reason="Proposition 6 progress violated after a create step")),
    pytest.param(8169, marks=pytest.mark.xfail(
        strict=True, raises=NormalizationError,
        reason="Proposition 6 progress violated after a move step")),
    pytest.param(11912, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the migrated document violates the normalized sigma")),
    pytest.param(54850, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="the migrated instance is not lossless")),
])
def test_known_open_failure_seeds(seed):
    _check_lossless(seed)
