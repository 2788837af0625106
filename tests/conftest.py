"""Shared fixtures: the paper's running examples and small helper DTDs."""

from __future__ import annotations

import pytest

from repro.datasets.dblp import dblp_document, dblp_spec
from repro.datasets.university import university_document, university_spec
from repro.dtd.parser import parse_dtd
from repro.spec import XMLSpec


@pytest.fixture
def uni_spec() -> XMLSpec:
    """Example 1.1: the university schema with FD1-FD3."""
    return university_spec()


@pytest.fixture
def uni_doc(uni_spec):
    """Figure 1(a)."""
    return university_document()


@pytest.fixture
def dblp() -> XMLSpec:
    """Example 1.2: the DBLP fragment with FD4-FD5."""
    return dblp_spec()


@pytest.fixture
def dblp_doc(dblp):
    return dblp_document()


@pytest.fixture
def flat_ab_dtd():
    """r -> a*, b* with one attribute each: the workhorse for
    implication corner cases."""
    return parse_dtd("""
        <!ELEMENT r (a*, b*)>
        <!ELEMENT a EMPTY>
        <!ELEMENT b EMPTY>
        <!ATTLIST a x CDATA #REQUIRED>
        <!ATTLIST b y CDATA #REQUIRED>
    """)


@pytest.fixture
def forced_ab_dtd():
    """r -> a+, b*: the cross-tuple (hybrid) implication case."""
    return parse_dtd("""
        <!ELEMENT r (a+, b*)>
        <!ELEMENT a EMPTY>
        <!ELEMENT b EMPTY>
        <!ATTLIST a x CDATA #REQUIRED>
        <!ATTLIST b y CDATA #REQUIRED>
    """)


@pytest.fixture
def disjunctive_dtd():
    """r -> (a | b), c*: closure is incomplete here; the chase decides."""
    return parse_dtd("""
        <!ELEMENT r ((a | b), c*)>
        <!ELEMENT a EMPTY>
        <!ELEMENT b EMPTY>
        <!ELEMENT c EMPTY>
        <!ATTLIST c x CDATA #REQUIRED>
    """)


@pytest.fixture
def built_tasks(monkeypatch) -> list[int]:
    """The manifest indices ``repro.runtime.manifest`` builds a ``Task``
    for from now on, in order: a lazy manifest builds none at load and
    none that an iteration skips."""
    from repro.runtime import manifest as mf
    built: list[int] = []
    original = mf._build_task

    def counting(raw, index, *rest):
        built.append(index)
        return original(raw, index, *rest)

    monkeypatch.setattr(mf, "_build_task", counting)
    return built
