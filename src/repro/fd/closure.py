"""The closure-based FD implication engine (Theorem 3 regime).

Decides ``(D, Σ) |- S -> q`` by saturating two predicates about a
hypothetical pair of maximal tree tuples ``t1, t2`` of the same tree
that agree, non-null, on ``S``:

* ``NN(p)`` — ``t1.p`` and ``t2.p`` are provably non-null,
* ``EQ(p)`` — ``t1.p = t2.p`` is provable (null-tolerant equality).

Structural rules come from the tree-tuple semantics (Definitions 4-6):
the root is shared; non-null paths force non-null ancestors; a node
determines its attributes, its text, and its children of multiplicity
``1``/``?``; tuple maximality forces children of multiplicity
``1``/``+`` of non-null paths to be non-null.

Σ rules use the *hybrid-tuple* argument: for ``S1 -> S2 ∈ Σ``, if each
path of ``S1`` is non-null and is either provably equal or lives in a
subtree hanging off a provably-shared node, then the hybrid maximal
tuple that copies ``t1`` on those subtrees and ``t2`` elsewhere exists
in the same tree; applying the FD to ``(t1, hybrid)`` and using that
the hybrid equals ``t2`` outside the copied subtrees yields
``t1.q' = t2.q'`` for every ``q' ∈ S2`` outside them.  (With
``S1 ⊆ EQ ∩ NN`` no subtree is copied and this degenerates to the
classical transitivity rule.)

When the monotone rules stall, a *null-correlation case split* applies
to a path ``w`` whose nullness is provably correlated between the two
tuples — either ``w ∈ EQ`` (equal values are null together) or ``w`` is
an element path under a shared node (by tuple maximality the shared
parent either has a ``w``-labelled child for both tuples or for
neither).  The rule closes both branches — assuming ``NN(w)``, and
assuming the whole region that must be null with ``w`` is null (hence
trivially equal) — and keeps the facts derivable in *both*.  This is
what validates e.g. ``@A -> L`` against ``{A -> B} ∪ PNF-keys`` in the
nested codings of Proposition 5, where the group key fires only in the
non-null branch.  Splits nest two levels and are pruned to the premise
paths of not-yet-fired, query-relevant FDs, so the common case never
pays for them.

The closure is **sound for every DTD** (including recursive ones — the
rules only ever walk the finite prefix-closure of the mentioned paths)
and **complete for simple DTDs** as far as extensive differential
fuzzing against the exact chase engine and a brute-force model
enumerator can establish; this is the polynomial regime of Theorem 3.
For non-simple DTDs a ``False`` answer must be confirmed by the chase
engine (disjunction can force equalities the multiplicity abstraction
cannot see).

The solver runs on the DTD's :class:`~repro.dtd.table.PathTable`:
paths are interned to small ints, ``EQ`` and ``NN`` are int bitmasks,
and the case-split memo is keyed by ``(NN, EQ, depth)`` int triples.
Σ is compiled once per :class:`SigmaIndex` (one per implication
engine), which also holds the relevance components used to prune Σ to
the FDs prefix-connected to a query.  Every rule iterates in
path-step order (a prefix before its extensions) and Σ in list order,
never in interning or hash order, so derivations, explanations and
``closure.iterations`` do not depend on ``PYTHONHASHSEED``.  ``Path``
objects appear only at the API edge: the sets :func:`pair_closure`
returns and the paths of explanation events.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import ResourceExhausted
from repro.dtd.model import DTD
from repro.dtd.paths import Path
from repro.dtd.table import PathTable, ids_of
from repro.faults import plan as _faults
from repro.fd.model import FD
from repro.guard import budget as _guard
from repro.obs import metrics as _obs

#: Nesting depth of null-correlation case splits.
SPLIT_DEPTH = 2

_SITE_ITERATION = _faults.register_site(
    "fd.closure.iteration", "fd",
    "each pass of the closure's monotone fixpoint loop")


def closure_implies(dtd: DTD, sigma: Iterable[FD], fd: FD, *,
                    index: "SigmaIndex | None" = None) -> bool:
    """Whether the closure derives ``fd`` from ``(D, Σ)``.

    ``index`` is Σ already compiled against ``dtd`` (an implication
    engine passes the one it keeps); ``sigma`` is then not read.
    """
    if index is None:
        index = SigmaIndex(dtd, sigma)
    with _obs.timer("closure.implies"):
        try:
            for single in fd.expand():
                solver = index.solver(single.lhs, (single.single_rhs,),
                                      prune=True)
                eq, nn = solver.solve(0, 0, SPLIT_DEPTH)
                if _obs.enabled:
                    _obs.observe("closure.derived.eq", eq.bit_count())
                    _obs.observe("closure.derived.nn", nn.bit_count())
                if not eq >> solver.extra[0] & 1:
                    return False
        except ResourceExhausted as error:
            error.partial.setdefault("engine", "closure")
            error.partial.setdefault("query", str(fd))
            raise
    return True


def pair_closure(dtd: DTD, sigma: list[FD], lhs: frozenset[Path],
                 extra: Iterable[Path] = (),
                 ) -> tuple[frozenset[Path], frozenset[Path]]:
    """Saturate ``(EQ, NN)`` for a pair agreeing non-null on ``lhs``;
    ``extra`` paths are added to the universe so membership can be read
    off the result.  (No Σ relevance pruning here — callers that want
    the full fact set, like the normalization transforms, use this.)"""
    solver = SigmaIndex(dtd, sigma).solver(lhs, extra, prune=False)
    eq, nn = solver.solve(0, 0, SPLIT_DEPTH)
    return solver.table.paths_of(eq), solver.table.paths_of(nn)


class _Rule:
    """One Σ-FD on path ids: premise and conclusion ids in path-step
    order with their masks, ``span`` (every prefix of every path: its
    share of the solver's universe), ``chain`` (the prefixes below the
    root: what relevance pruning connects on) and the premise prefixes
    a case split may pick."""

    __slots__ = ("fd", "lhs", "lhs_mask", "rhs", "span", "chain",
                 "split_prefixes")

    def __init__(self, fd: FD, table: PathTable) -> None:
        self.fd = fd
        self.lhs = table.in_step_order(map(table.intern, fd.lhs))
        self.rhs = table.in_step_order(map(table.intern, fd.rhs))
        self.lhs_mask = sum(1 << pid for pid in self.lhs)  # distinct ids
        self.span = _prefix_closure(table, self.lhs + self.rhs)
        self.chain = _below_root(table, self.lhs + self.rhs)
        self.split_prefixes = table.in_step_order(
            {prefix for pid in self.lhs
             for prefix in table.prefixes[pid][1:]})


class SigmaIndex:
    """Σ compiled against one DTD's path table, built once and shared
    by every query of an implication engine.

    Besides the compiled rules it keeps the *relevance components*:
    two FDs are connected when their paths share a prefix below the
    root, and a query keeps exactly the components that touch its own
    prefix chain.  Dropping the rest is sound (fewer derivations) and
    loses nothing: every rule propagates along prefix chains of the
    paths it touches.
    """

    def __init__(self, dtd: DTD, sigma: Iterable[FD]) -> None:
        self.table = dtd.path_table
        self.root = self.table.intern(Path.root(dtd.root))
        self.rules = [_Rule(fd, self.table) for fd in sigma]
        components: list[tuple[int, list[int]]] = []
        for position, rule in enumerate(self.rules):
            chain, members = rule.chain, [position]
            apart = []
            for other_chain, other_members in components:
                if other_chain & chain:
                    chain |= other_chain
                    members += other_members
                else:
                    apart.append((other_chain, other_members))
            components = apart + [(chain, members)]
        self._components = components

    def relevant(self, chain: int) -> list[_Rule]:
        """The rules connected to a query with prefix chain ``chain``,
        in Σ order (all of Σ when the query lies at the root)."""
        if not chain:
            return self.rules
        positions = sorted(position
                           for component, members in self._components
                           if component & chain
                           for position in members)
        return [self.rules[position] for position in positions]

    def solver(self, lhs: Iterable[Path], extra: Iterable[Path], *,
               prune: bool) -> "_Solver":
        """A fresh solver for the pair agreeing non-null on ``lhs``,
        with ``extra`` in its universe; ``prune`` keeps only the rules
        relevant to ``lhs`` and ``extra``."""
        intern = self.table.intern
        lhs_ids = tuple(map(intern, lhs))
        extra_ids = tuple(map(intern, extra))
        rules = self.rules
        if prune:
            rules = self.relevant(
                _below_root(self.table, lhs_ids + extra_ids))
        return _Solver(self.table, self.root, rules, lhs_ids, extra_ids)


def _prefix_closure(table: PathTable, ids: Iterable[int]) -> int:
    mask = 0
    for pid in ids:
        mask |= table.prefix_mask[pid]
    return mask


def _below_root(table: PathTable, ids: Iterable[int]) -> int:
    """The prefixes of ``ids`` of length at least two."""
    mask = 0
    for pid in ids:
        mask |= table.prefix_mask[pid] & ~(1 << table.prefixes[pid][0])
    return mask


class _Solver:
    """Fixpoint engine for one (D, Σ, lhs, extra) problem on path ids,
    memoizing the case-split branch closures."""

    def __init__(self, table: PathTable, root: int, rules: list[_Rule],
                 lhs: tuple[int, ...], extra: tuple[int, ...]) -> None:
        self.table = table
        self.rules = rules
        self.extra = extra
        universe = _prefix_closure(table, lhs + extra)
        for rule in rules:
            universe |= rule.span
        #: The universe in path-step order, and its non-root entries as
        #: (id, parent id, forced, determined, is element) rows.
        self._order = table.in_step_order(ids_of(universe))
        self._steps = [
            (pid, table.parent[pid], table.forced[pid],
             table.determined[pid], table.is_element[pid])
            for pid in self._order if table.parent[pid] >= 0]
        self._base_nn = self._base_eq = 1 << root
        for pid in lhs:
            self._base_nn |= table.prefix_mask[pid]
            self._base_eq |= (table.prefix_mask[pid]
                              if table.is_element[pid] else 1 << pid)
        self._memo: dict[tuple[int, int, int], tuple[int, int]] = {}
        self._regions: dict[int, int] = {}
        #: When set to a list, top-level rule applications append
        #: (kind, path id, reason) events for explanation rendering.
        self.events: list[tuple[str, int, str]] | None = None
        self._in_branch = 0
        self._budget = _guard.current() if _guard.active else None

    # -- the fixpoint -------------------------------------------------------

    def solve(self, assumed_nn: int, assumed_eq: int, depth: int,
              ) -> tuple[int, int]:
        """``(EQ, NN)`` as bitmasks, starting from the assumed facts."""
        key = (assumed_nn, assumed_eq, depth)
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        nn = assumed_nn | self._base_nn
        eq = assumed_eq | self._base_eq
        changed = True
        while changed:
            if self._budget is not None:
                self._budget.tick_steps()
            if _faults.active:
                _faults.fire(_SITE_ITERATION)
            if _obs.enabled:
                _obs.inc("closure.iterations")
            new_eq, new_nn = self._structural_rules(eq, nn)
            new_eq = self._sigma_rules(new_eq, new_nn)
            changed = new_eq != eq or new_nn != nn
            eq, nn = new_eq, new_nn
            if depth > 0 and not changed:
                eq, changed = self._case_split(eq, nn, depth)

        result = (eq, nn)
        self._memo[key] = result
        return result

    def _tracing(self) -> bool:
        return self.events is not None and not self._in_branch

    def _record(self, kind: str, pid: int, reason: str) -> None:
        assert self.events is not None
        self.events.append((kind, pid, reason))

    def _structural_rules(self, eq: int, nn: int) -> tuple[int, int]:
        path = self.table.path
        trace = self._tracing()
        # Downward, parents first: forced steps stay non-null;
        # determined steps stay equal.
        for pid, parent, forced, determined, _element in self._steps:
            bit = 1 << pid
            if forced and nn >> parent & 1 and not nn & bit:
                nn |= bit
                if trace:
                    self._record("NN", pid, "forced step under non-null "
                                 f"{path(parent)}")
            if determined and eq >> parent & 1 and not eq & bit:
                eq |= bit
                if trace:
                    self._record("EQ", pid, "determined step under equal "
                                 f"{path(parent)}")
        # Upward, children first: non-null paths have non-null
        # ancestors; shared nodes have shared parents.
        for pid, parent, _forced, _determined, _element in \
                reversed(self._steps):
            if nn >> pid & 1 and not nn >> parent & 1:
                nn |= 1 << parent
                if trace:
                    self._record("NN", parent,
                                 f"ancestor of non-null {path(pid)}")
        for pid, parent, _forced, _determined, element in \
                reversed(self._steps):
            if (element and eq >> pid & 1 and nn >> pid & 1
                    and not eq >> parent & 1):
                eq |= 1 << parent
                if trace:
                    self._record("EQ", parent,
                                 f"parent of shared node {path(pid)}")
        return eq, nn

    def _sigma_rules(self, eq: int, nn: int) -> int:
        for rule in self.rules:
            if rule.lhs_mask & ~nn:
                continue  # some premise may be null: no hybrid tuple
            copied = 0
            if rule.lhs_mask & ~(eq & nn):
                copied = self._hybrid_roots(rule, eq & nn)
                if copied is None:
                    continue
            for target in rule.rhs:
                if eq >> target & 1:
                    continue
                if self.table.prefix_mask[target] & copied:
                    continue  # the hybrid copies t1 here: no information
                eq |= 1 << target
                if self._tracing():
                    self._record("EQ", target,
                                 self._fired(rule.fd, copied))
        return eq

    def _fired(self, fd: FD, copied: int) -> str:
        if not copied:
            return f"FD {fd} fires (premise shared)"
        roots = ", ".join(str(self.table.path(pid))
                          for pid in self._order if copied >> pid & 1)
        return f"FD {fd} via the hybrid tuple copied at {{{roots}}}"

    def _case_split(self, eq: int, nn: int, depth: int) -> tuple[int, bool]:
        for witness in self._split_candidates(eq, nn):
            null_region = self._null_region(witness)
            if self._budget is not None:
                self._budget.tick_branches()
            if _obs.enabled:
                _obs.inc("closure.case_splits")
            self._in_branch += 1
            try:
                branch_nonnull, _ = self.solve(nn | 1 << witness, eq,
                                               depth - 1)
                branch_null, _ = self.solve(nn, eq | null_region,
                                            depth - 1)
            finally:
                self._in_branch -= 1
            common = branch_nonnull & branch_null & ~eq
            if common:
                if self._tracing():
                    for pid in self._order:
                        if common >> pid & 1:
                            self._record(
                                "EQ", pid, "case split on nullness of "
                                f"{self.table.path(witness)} "
                                "(derivable in both branches)")
                return eq | common, True  # re-run the monotone rules
        return eq, False

    def _split_candidates(self, eq: int, nn: int) -> list[int]:
        """Null-correlated paths worth splitting on: premise paths of
        FDs that have not fired (and their element prefixes), plus
        derived-equal element paths whose parents are still unshared.

        The second family closes a completeness gap: when a Σ rule
        derives ``EQ(w)`` for an element path ``w`` that is not known
        non-null, the upward "parent of shared node" rule cannot fire,
        yet ``w``'s nullness *is* correlated (equal values are null
        together).  Splitting on ``w`` resolves it — the non-null
        branch shares the parent directly, the null branch nulls the
        whole region that must vanish with ``w`` — so facts like
        ``EQ(parent(w))`` become derivable even when no unfired FD
        happens to mention ``w``.  (Found via the seed-69910 Prop. 6
        pin: a create step rewrote Σ so the only FD mentioning the
        split path disappeared, and a previously-derivable node
        equality silently stopped being derived, making a cured
        attribute path look newly anomalous.)
        """
        table = self.table
        shared = eq & nn
        found = 0
        for rule in self.rules:
            if not rule.lhs_mask & ~shared:
                continue  # fired
            for prefix in rule.split_prefixes:
                if nn >> prefix & 1:
                    continue
                if eq >> prefix & 1 or (
                        table.is_element[prefix]
                        and shared >> table.parent[prefix] & 1):
                    found |= 1 << prefix
        for pid, parent, _forced, _determined, element in self._steps:
            if (element and eq >> pid & 1 and not nn >> pid & 1
                    and not eq >> parent & 1):
                found |= 1 << pid
        return [pid for pid in self._order if found >> pid & 1]

    def _null_region(self, witness: int) -> int:
        """Paths null (in both tuples) whenever ``witness`` is: its own
        subtree, widened upward while the step from the parent is
        forced (a node cannot lack a required attribute, text, or
        forced child)."""
        region = self._regions.get(witness)
        if region is None:
            table = self.table
            base = witness
            while table.parent[base] >= 0 and table.forced[base]:
                base = table.parent[base]
            region = 0
            for pid in self._order:
                if table.prefix_mask[pid] >> base & 1:
                    region |= 1 << pid
            self._regions[witness] = region
        return region

    def _hybrid_roots(self, rule: _Rule, shared: int) -> int | None:
        """The copied-subtree roots ``W`` (a mask) for a rule whose
        premise is all non-null, or ``None`` if the hybrid tuple is not
        guaranteed to exist.

        Premise paths not provably equal must lie in a subtree whose
        root hangs off a provably shared node — that root is the
        shortest element-path prefix outside ``EQ ∩ NN`` (its parent is
        inside: the shared region is prefix-closed on element paths,
        and by construction every shorter prefix of the chosen root is
        shared).
        """
        table = self.table
        roots = 0
        for pid in rule.lhs:
            if shared >> pid & 1:
                continue
            for prefix in table.prefixes[pid]:
                if table.is_element[prefix] and not shared >> prefix & 1:
                    roots |= 1 << prefix
                    break
            else:
                # Every element prefix is shared: the path itself is an
                # attribute/text of a shared node and the downward rules
                # will catch up — treat as not yet derivable.
                return None
        return roots
