"""Differential pin for the interned-path closure kernel.

``repro.fd.closure`` runs on path ids and bitmasks; the ``Path``-set
solver it replaced is kept as a test-only oracle
(``tests/property/path_set_closure.py``).  On the generated specs of
the other property suites and on the bundled schemas, both must return
the same ``(EQ, NN)`` sets from ``pair_closure`` and the same verdicts
from ``closure_implies``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.bookstore import bookstore_spec
from repro.datasets.dblp import dblp_spec
from repro.datasets.generators import (
    random_fds,
    random_simple_dtd,
    scaled_university_spec,
)
from repro.datasets.university import university_spec
from repro.fd.closure import closure_implies, pair_closure
from repro.fd.model import FD
from repro.nested import nested_dtd, nested_sigma
from repro.nested.schema import NestedSchema
from repro.relational.schema import RelationalFD
from tests.property import path_set_closure as oracle
from tests.property.test_implication_agree import _tiny_disjunctive_dtd


def _generated_spec(seed: int):
    """A random simple spec (as in the normalization properties) or a
    tiny disjunctive one (as in the engine-agreement properties)."""
    rng = random.Random(seed)
    if rng.random() < 0.75:
        dtd = random_simple_dtd(rng, max_depth=3, max_children=2,
                                max_attrs=2)
    else:
        dtd = _tiny_disjunctive_dtd(rng)
    return rng, dtd, random_fds(rng, dtd, rng.randint(0, 4))


def _nested_spec():
    left = NestedSchema("L", ("B",))
    right = NestedSchema("R", ("C",))
    schema = NestedSchema("H1", ("A",), (left, right))
    return nested_dtd(schema), nested_sigma(
        schema, [RelationalFD.parse("A -> B")])


def _of(spec):
    return spec.dtd, spec.sigma


#: The bundled schemas: the nested coding exercises the case split,
#: the others the hybrid rule.
BUNDLED = {
    "university": lambda: _of(university_spec()),
    "dblp": lambda: _of(dblp_spec()),
    "bookstore": lambda: _of(bookstore_spec()),
    "scaled-2": lambda: _of(scaled_university_spec(2)),
    "nested": _nested_spec,
}


def _assert_same_pair_closure(dtd, sigma, lhs, extra):
    assert pair_closure(dtd, sigma, lhs, extra) == \
        oracle.pair_closure(dtd, sigma, lhs, extra), (
            str(dtd), [str(fd) for fd in sigma], sorted(map(str, lhs)))


def _assert_same_verdict(dtd, sigma, query):
    assert closure_implies(dtd, sigma, query) == \
        oracle.closure_implies(dtd, sigma, query), (
            str(dtd), [str(fd) for fd in sigma], str(query))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_pair_closure_matches_path_set_solver(seed):
    rng, dtd, sigma = _generated_spec(seed)
    paths = sorted(dtd.paths, key=str)
    lhs = frozenset(rng.sample(paths, rng.randint(1, min(3, len(paths)))))
    extra = rng.sample(paths, rng.randint(0, min(2, len(paths))))
    _assert_same_pair_closure(dtd, sigma, lhs, extra)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 100_000))
def test_closure_verdicts_match_path_set_solver(seed):
    rng, dtd, sigma = _generated_spec(seed)
    paths = sorted(dtd.paths, key=str)
    for _ in range(4):
        lhs = rng.sample(paths, rng.randint(1, min(3, len(paths))))
        _assert_same_verdict(dtd, sigma, FD.of(lhs, rng.choice(paths)))


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_schemas_match_path_set_solver(name):
    """Every Σ left-hand side against every path of the schema."""
    dtd, sigma = BUNDLED[name]()
    paths = sorted(dtd.paths, key=str)
    for fd in sigma:
        _assert_same_pair_closure(dtd, sigma, fd.lhs, paths)
        for path in paths:
            _assert_same_verdict(dtd, sigma, FD(fd.lhs, frozenset({path})))
