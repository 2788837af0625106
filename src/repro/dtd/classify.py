"""Section 7 classification of whole DTDs.

* A DTD is **simple** if every (reachable) production uses a simple
  regular expression over ``E ∪ {S}`` — the prevalent case in practice
  (the paper demonstrates this on the ebXML Business Process
  Specification Schema, Figure 5).
* A DTD is **disjunctive** if every production is a concatenation of
  simple regexes and simple disjunctions over pairwise-disjoint
  alphabets; this strictly generalizes simple DTDs.
* ``N_D`` measures the number of unrestricted-disjunction choices; FD
  implication is polynomial when ``N_D <= k * log |D|`` (Theorem 4) and
  coNP-complete for unbounded disjunctive DTDs (Theorem 5).
"""

from __future__ import annotations

from repro.errors import RecursionLimitError, ReproError
from repro.dtd.model import DTD
from repro.regex.ast import PCData
from repro.regex.classify import (
    disjunction_measure as _regex_measure,
    is_disjunctive_production,
    is_simple,
)


def is_simple_dtd(dtd: DTD, *, reachable_only: bool = True) -> bool:
    """Whether every production uses a simple regular expression."""
    if reachable_only:
        return dtd.is_simple
    return all(is_simple(dtd.content(element))
               for element in dtd.element_types)


def is_disjunctive_dtd(dtd: DTD, *, reachable_only: bool = True) -> bool:
    """Whether every production is a disjunctive production."""
    elements = dtd.reachable_types if reachable_only else dtd.element_types
    return all(
        isinstance(dtd.content(element), PCData)
        or is_disjunctive_production(dtd.content(element))
        for element in elements)


def dtd_size(dtd: DTD) -> int:
    """``|D|``: the length of the serialized DTD, the size measure used
    by the Theorem 4 bound."""
    from repro.dtd.serializer import serialize_dtd
    return len(serialize_dtd(dtd))


def disjunction_measure(dtd: DTD) -> int:
    """The measure ``N_D`` of Section 7.

    For each element type ``tau``: ``N_tau = 1`` if ``P(tau)`` is a
    simple regex, and otherwise ``|{p in paths(D) : last(p) = tau}|``
    times the product of the per-factor measures.  ``N_D`` is the
    product of all ``N_tau``.  Requires a non-recursive DTD (the path
    counts must be finite).
    """
    if dtd.is_recursive:
        raise RecursionLimitError(
            "N_D is defined via paths(D), which is infinite for a "
            "recursive DTD")
    if not is_disjunctive_dtd(dtd):
        raise ReproError("N_D is only defined for disjunctive DTDs")
    path_counts: dict[str, int] = {}
    for path in dtd.paths:
        if path.is_element:
            path_counts[path.last] = path_counts.get(path.last, 0) + 1
    measure = 1
    for element in dtd.reachable_types:
        production = dtd.content(element)
        if isinstance(production, PCData) or is_simple(production):
            continue
        measure *= path_counts.get(element, 0) * _regex_measure(production)
    return measure
