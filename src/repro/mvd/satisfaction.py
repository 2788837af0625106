"""MVD satisfaction on documents, via tree tuples.

``T |= S1 ->> S2`` iff for all maximal tuples ``t1, t2`` with
``t1.S1 = t2.S1 ≠ ⊥``, the *exchanged* combination — ``t1`` on
``S1 ∪ S2``, ``t2`` on everything else — also appears in
``tuples_D(T)``.  This is the classical relational semantics applied
to the tree-tuple relation, with the FD-style null guard on the LHS.

Node identities are excluded from the exchanged projections: two
tuples exchange *values* (attribute/text paths), never the node ids
that merely witness where the values sit — otherwise no non-trivial
MVD could ever hold, since each node id occurs with exactly one value
combination.  Element paths remain meaningful on the left-hand side
(relative MVDs scope the exchange to a subtree, exactly like the
paper's relative FDs).
"""

from __future__ import annotations

from typing import Sequence

from repro.dtd.model import DTD
from repro.mvd.model import MVD
from repro.tuples.extract import tuples_of
from repro.tuples.model import TreeTuple
from repro.xmltree.model import XMLTree


def mvd_violating_pairs(tree: XMLTree, dtd: DTD, mvd: MVD, *,
                        tuples: Sequence[TreeTuple] | None = None,
                        limit: int | None = None,
                        ) -> list[tuple[TreeTuple, TreeTuple]]:
    """Pairs witnessing a violation of the exchange property."""
    if tuples is None:
        tuples = tuples_of(tree, dtd)
    all_paths = sorted({p for t in tuples for p in t.paths}
                       | set(mvd.paths), key=str)
    lhs = sorted(mvd.lhs, key=str)
    rhs = sorted((p for p in mvd.rhs - mvd.lhs if not p.is_element),
                 key=str)
    rest = [p for p in all_paths
            if p not in mvd.lhs and p not in mvd.rhs
            and not p.is_element]

    groups: dict[tuple, list[TreeTuple]] = {}
    for tuple_ in tuples:
        key = tuple(tuple_.get(p) for p in lhs)
        if any(value is None for value in key):
            continue
        groups.setdefault(key, []).append(tuple_)

    violations: list[tuple[TreeTuple, TreeTuple]] = []
    for members in groups.values():
        if len(members) < 2:
            continue
        present = {
            (tuple(t.get(p) for p in rhs),
             tuple(t.get(p) for p in rest))
            for t in members
        }
        rhs_values = {r for r, _ in present}
        rest_values = {w for _, w in present}
        if len(present) == len(rhs_values) * len(rest_values):
            continue  # the group is a full cross product: exchange holds
        for t1 in members:
            for t2 in members:
                combo = (tuple(t1.get(p) for p in rhs),
                         tuple(t2.get(p) for p in rest))
                if combo not in present:
                    violations.append((t1, t2))
                    if limit is not None and len(violations) >= limit:
                        return violations
    return violations


def satisfies_mvd(tree: XMLTree, dtd: DTD, mvd: MVD, *,
                  tuples: Sequence[TreeTuple] | None = None) -> bool:
    """``T |= S1 ->> S2``."""
    return not mvd_violating_pairs(tree, dtd, mvd, tuples=tuples,
                                   limit=1)
