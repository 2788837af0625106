"""XML functional dependencies — Section 4 of the paper.

An FD over a DTD ``D`` is ``S1 -> S2`` with ``S1, S2`` finite non-empty
sets of paths of ``D``.  A tree ``T < D`` satisfies it when every two
maximal tree tuples that agree (non-null) on ``S1`` agree on ``S2`` —
the standard semantics of FDs over relations with nulls.

Public surface:

* :class:`FD` and :func:`FD.parse` — the dependency and its textual
  syntax (``courses.course.@cno -> courses.course``);
* :func:`satisfies` — ``T |= S1 -> S2``;
* :func:`implies` / :class:`ImplicationEngine` — the implication
  problem ``(D, Σ) |- φ`` with three engines: ``closure`` (the
  quadratic algorithm of Theorem 3 for simple DTDs), ``chase`` (general
  non-recursive DTDs; worst-case exponential, matching Theorem 5), and
  ``brute`` (exhaustive bounded model search, the test oracle);
* :func:`is_trivial` — ``(D, ∅) |- φ``;
* :mod:`repro.fd.ensemble` — the differential oracle behind
  ``engine="ensemble"``: every applicable engine decides every query
  and contradictions are escalated as records.  Not imported here:
  :class:`ImplicationEngine` loads it on the first ensemble query.
"""

from repro.fd.model import FD, parse_fds
from repro.fd.satisfaction import satisfies, satisfies_all, violating_pairs
from repro.fd.implication import ImplicationEngine, implies, is_trivial

__all__ = [
    "FD", "parse_fds", "satisfies", "satisfies_all", "violating_pairs",
    "implies", "is_trivial", "ImplicationEngine",
]
