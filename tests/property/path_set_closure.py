"""The closure engine as it stood before path interning: a test oracle.

This is the ``Path``-set solver that ``repro.fd.closure`` replaced with
the interned-id kernel, kept verbatim (minus the budget, fault and
metrics hooks) so property tests can pin the kernel to it: both must
return the same ``(EQ, NN)`` sets and the same verdicts.  Nothing in
``src/`` imports it.
"""

from __future__ import annotations

from typing import Iterable

from repro.dtd.model import DTD
from repro.dtd.paths import TEXT_STEP, Path
from repro.fd.model import FD
from repro.regex.ast import PCData

#: Nesting depth of null-correlation case splits.
SPLIT_DEPTH = 2


def closure_implies(dtd: DTD, sigma: Iterable[FD], fd: FD) -> bool:
    """Whether the closure derives ``fd`` from ``(D, Σ)``."""
    sigma = list(sigma)
    for single in fd.expand():
        relevant = _relevant_sigma(sigma, single)
        solver = _Solver(dtd, relevant, single.lhs,
                         extra=frozenset({single.single_rhs}))
        eq, _nn = solver.solve(frozenset(), frozenset(), SPLIT_DEPTH)
        if single.single_rhs not in eq:
            return False
    return True


def pair_closure(dtd: DTD, sigma: list[FD], lhs: frozenset[Path],
                 extra: Iterable[Path] = (),
                 ) -> tuple[frozenset[Path], frozenset[Path]]:
    """Saturate ``(EQ, NN)`` for a pair agreeing non-null on ``lhs``;
    ``extra`` paths are added to the universe so membership can be read
    off the result.  (No Σ relevance pruning here — callers that want
    the full fact set, like the normalization transforms, use this.)"""
    solver = _Solver(dtd, list(sigma), lhs, extra=frozenset(extra))
    return solver.solve(frozenset(), frozenset(), SPLIT_DEPTH)


def _relevant_sigma(sigma: list[FD], query: FD) -> list[FD]:
    """The FDs transitively connected to the query's paths.

    Two paths are *connected* when one is a prefix of the other below
    the root (the root trivially prefixes everything, so length-1
    prefixes are ignored); an FD is relevant when any of its paths
    connects to the growing relevance set.  Dropping the rest is sound
    (fewer derivations) and loses nothing: every rule propagates along
    prefix chains of the paths it touches.
    """
    def chains(paths: Iterable[Path]) -> set[Path]:
        return {prefix for path in paths for prefix in path.prefixes()
                if prefix.length >= 2}

    relevance = chains(query.paths)
    if not relevance:
        return list(sigma)
    kept: list[FD] = []
    pending = list(sigma)
    changed = True
    while changed:
        changed = False
        remaining: list[FD] = []
        for fd in pending:
            fd_chains = chains(fd.paths)
            if fd_chains & relevance:
                kept.append(fd)
                relevance |= fd_chains
                changed = True
            else:
                remaining.append(fd)
        pending = remaining
    return kept


class _Solver:
    """Fixpoint engine for one (D, Σ, lhs, extra) problem, memoizing
    the case-split branch closures."""

    def __init__(self, dtd: DTD, sigma: list[FD], lhs: frozenset[Path],
                 extra: frozenset[Path]) -> None:
        self.dtd = dtd
        self.sigma = sigma
        self.lhs = lhs
        self.universe = self._universe(extra)
        self.root = Path.root(dtd.root)
        self._memo: dict[tuple, tuple[frozenset[Path],
                                      frozenset[Path]]] = {}
        #: When set to a list, top-level rule applications append
        #: (kind, path, reason) events for explanation rendering.
        self.events: list[tuple[str, Path, str]] | None = None
        self._in_branch = 0

    def _universe(self, extra: frozenset[Path]) -> set[Path]:
        mentioned: set[Path] = set(self.lhs) | set(extra)
        for dependency in self.sigma:
            mentioned |= dependency.paths
        universe: set[Path] = set()
        for path in mentioned:
            universe.update(path.prefixes())
        return universe

    # -- the fixpoint -------------------------------------------------------

    def solve(self, assumed_nn: frozenset[Path],
              assumed_eq: frozenset[Path], depth: int,
              ) -> tuple[frozenset[Path], frozenset[Path]]:
        key = (assumed_nn, assumed_eq, depth)
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        nn: set[Path] = set(assumed_nn)
        eq: set[Path] = set(assumed_eq)
        nn.add(self.root)
        eq.add(self.root)
        for path in self.lhs:
            nn.update(path.prefixes())
            eq.add(path)
            if path.is_element:
                eq.update(path.prefixes())

        changed = True
        while changed:
            changed = False
            changed |= self._structural_rules(eq, nn)
            changed |= self._sigma_rules(eq, nn)
            if depth > 0 and not changed:
                changed = self._case_split(eq, nn, depth)

        result = (frozenset(eq), frozenset(nn))
        self._memo[key] = result
        return result

    def _record(self, kind: str, path: Path, reason: str) -> None:
        if self.events is not None and not self._in_branch:
            self.events.append((kind, path, reason))

    def _structural_rules(self, eq: set[Path], nn: set[Path]) -> bool:
        changed = False
        # Downward: forced steps stay non-null; determined steps stay
        # equal.
        for path in self.universe:
            if path.length == 1:
                continue
            parent = path.parent
            if parent in nn and path not in nn \
                    and self._step_forced(path):
                nn.add(path)
                self._record("NN", path,
                             f"forced step under non-null {parent}")
                changed = True
            if parent in eq and path not in eq \
                    and self._step_determined(path):
                eq.add(path)
                self._record("EQ", path,
                             f"determined step under equal {parent}")
                changed = True
        # Upward: non-null paths have non-null ancestors; shared nodes
        # have shared parents.
        for path in list(nn):
            if path.length > 1 and path.parent not in nn:
                nn.add(path.parent)
                self._record("NN", path.parent,
                             f"ancestor of non-null {path}")
                changed = True
        for path in list(eq):
            if (path in nn and path.is_element and path.length > 1
                    and path.parent not in eq):
                eq.add(path.parent)
                self._record("EQ", path.parent,
                             f"parent of shared node {path}")
                changed = True
        return changed

    def _sigma_rules(self, eq: set[Path], nn: set[Path]) -> bool:
        changed = False
        for dependency in self.sigma:
            copied_roots = self._hybrid_roots(dependency.lhs, eq, nn)
            if copied_roots is None:
                continue
            for target in dependency.rhs:
                if target in eq:
                    continue
                if any(w.is_prefix_of(target) for w in copied_roots):
                    continue  # the hybrid copies t1 here: no information
                eq.add(target)
                if copied_roots:
                    roots = ", ".join(str(w) for w in
                                      sorted(copied_roots, key=str))
                    reason = (f"FD {dependency} via the hybrid tuple "
                              f"copied at {{{roots}}}")
                else:
                    reason = f"FD {dependency} fires (premise shared)"
                self._record("EQ", target, reason)
                changed = True
        return changed

    def _case_split(self, eq: set[Path], nn: set[Path],
                    depth: int) -> bool:
        for witness in self._split_candidates(eq, nn):
            null_region = self._null_region(witness)
            self._in_branch += 1
            try:
                branch_nonnull, _ = self.solve(
                    frozenset(nn) | {witness}, frozenset(eq), depth - 1)
                branch_null, _ = self.solve(
                    frozenset(nn), frozenset(eq) | null_region,
                    depth - 1)
            finally:
                self._in_branch -= 1
            common = (branch_nonnull & branch_null) - eq
            if common:
                eq.update(common)
                for fact in sorted(common, key=str):
                    self._record(
                        "EQ", fact,
                        f"case split on nullness of {witness} "
                        "(derivable in both branches)")
                return True  # re-run the cheap monotone rules first
        return False

    def _split_candidates(self, eq: set[Path],
                          nn: set[Path]) -> list[Path]:
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
        candidates: set[Path] = set()
        for dependency in self.sigma:
            if all(p in eq and p in nn for p in dependency.lhs):
                continue
            for premise in dependency.lhs:
                for prefix in premise.prefixes():
                    if prefix in nn or prefix.length == 1:
                        continue
                    correlated = prefix in eq or (
                        prefix.is_element
                        and prefix.parent in eq and prefix.parent in nn)
                    if correlated:
                        candidates.add(prefix)
        for path in eq:
            if (path.is_element and path not in nn and path.length > 1
                    and path.parent not in eq):
                candidates.add(path)
        return sorted(candidates, key=str)

    def _null_region(self, witness: Path) -> frozenset[Path]:
        """Paths null (in both tuples) whenever ``witness`` is: its own
        subtree, widened upward while the step from the parent is
        forced (a node cannot lack a required attribute, text, or
        forced child)."""
        base = witness
        while base.length > 1 and self._step_forced(base):
            base = base.parent
        return frozenset(p for p in self.universe
                         if base.is_prefix_of(p))

    def _hybrid_roots(self, premise: frozenset[Path], eq: set[Path],
                      nn: set[Path]) -> set[Path] | None:
        """The copied-subtree roots ``W`` for an FD premise, or ``None``
        if the hybrid tuple is not guaranteed to exist.

        Every premise path must be non-null; paths not provably equal
        must lie in a subtree whose root hangs off a provably shared
        node — that root is the shortest element-path prefix outside
        ``EQ ∩ NN`` (its parent is inside: the shared region is
        prefix-closed on element paths, and by construction every
        shorter prefix of the chosen root is shared).
        """
        shared_roots: set[Path] = set()
        for path in premise:
            if path not in nn:
                return None
            if path in eq and path in nn:
                continue
            root_candidate: Path | None = None
            for prefix in path.prefixes():
                if prefix.is_element and not (prefix in eq
                                              and prefix in nn):
                    root_candidate = prefix
                    break
            if root_candidate is None:
                # Every element prefix is shared: the path itself is an
                # attribute/text of a shared node and the downward rules
                # will catch up — treat as not yet derivable.
                return None
            shared_roots.add(root_candidate)
        return shared_roots

    # -- DTD step classification ---------------------------------------------

    def _step_forced(self, path: Path) -> bool:
        """A non-null parent forces this step non-null: attributes
        (total by Definition 3), text under ``P = S``, and children
        with multiplicity ``1``/``+`` (tuple maximality)."""
        parent_type = path.parent.last
        step = path.last
        if step.startswith("@"):
            return step in self.dtd.attrs(parent_type)
        if step == TEXT_STEP:
            return isinstance(self.dtd.content(parent_type), PCData)
        return self.dtd.child_multiplicity(parent_type, step).forced

    def _step_determined(self, path: Path) -> bool:
        """Equal (possibly null) parents force this step equal:
        attributes, text, and children with multiplicity ``1``/``?``
        (at most one occurrence, so the maximal tuples pick the same
        child or none)."""
        parent_type = path.parent.last
        step = path.last
        if step.startswith("@"):
            return step in self.dtd.attrs(parent_type)
        if step == TEXT_STEP:
            return isinstance(self.dtd.content(parent_type), PCData)
        return self.dtd.child_multiplicity(
            parent_type, step).at_most_one
