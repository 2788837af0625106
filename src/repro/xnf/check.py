"""The XNF test (Definition 8, via Proposition 10 / Corollary 1)."""

from __future__ import annotations

from typing import Iterable

from repro.dtd.model import DTD
from repro.fd.implication import EngineName, ImplicationEngine
from repro.fd.model import FD
from repro.obs import metrics as _obs
from repro.obs.trace import span as _span
from repro.xnf.anomalous import anomalous_sigma_fds


def xnf_violations(dtd: DTD, sigma: Iterable[FD], *,
                   engine: EngineName = "auto",
                   oracle: ImplicationEngine | None = None) -> list[FD]:
    """The Σ-FDs witnessing that ``(D, Σ)`` is not in XNF.

    Each returned FD is a single-RHS ``S -> p.@l`` / ``S -> p.S`` that
    is non-trivial and implied while ``S -> p`` is not — an *anomalous*
    FD.  By Proposition 10 the list is empty iff ``(D, Σ)`` is in XNF
    whenever the DTD is relational (in particular disjunctive or
    simple).  For simple DTDs this runs in cubic time (Corollary 1):
    |Σ| implication queries, each quadratic.

    ``oracle``, an engine the caller already holds on ``(dtd, sigma)``,
    answers the queries (from its cache where it can) in place of a
    fresh ``engine``.
    """
    with _obs.timer("xnf.check"), _span("xnf.check") as sp:
        if oracle is None:
            oracle = ImplicationEngine(dtd, sigma, engine=engine)
        queries = oracle.query_count()
        violations = anomalous_sigma_fds(oracle)
        sp.set("violations", len(violations))
        sp.set("implication_queries", oracle.query_count() - queries)
    return violations


def is_in_xnf(dtd: DTD, sigma: Iterable[FD], *,
              engine: EngineName = "auto") -> bool:
    """Whether ``(D, Σ)`` is in XML Normal Form."""
    return not xnf_violations(dtd, sigma, engine=engine)
