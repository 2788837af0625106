"""The two schema transformations of Section 6, with instance migration.

Both transformations return a :class:`TransformStep` bundling the new
DTD, the transformed FD set, and a ``migrate`` function carrying any
conforming document across the schema change — the ingredient that
makes the losslessness of the decomposition (Proposition 8) checkable
on data.

The paper works with attribute paths after noting that a text path
``p.S`` can always be coded as an attribute.  We instead support text
values natively: when the moved value is ``p.S`` (the text of an
element whose content is ``#PCDATA``), "removing the attribute"
becomes removing that element from its parent's production, and
"attaching the value to tau" becomes making the element a child of
``tau`` — which is exactly how Example 1.1(b) is written in the paper
(``info (number*, name)`` with ``name`` a text element).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import (
    ConformanceError,
    InvalidFDError,
    NormalizationError,
    UnsupportedFeatureError,
)
from repro.dtd.model import DTD
from repro.dtd.paths import TEXT_STEP, Path
from repro.fd.closure import pair_closure
from repro.fd.implication import ImplicationEngine
from repro.fd.model import FD
from repro.regex.ast import (
    Concat,
    EPSILON,
    Epsilon,
    Optional as RegexOptional,
    PCData,
    Plus,
    Regex,
    Star,
    Sym,
    Union,
    concat,
    optional,
    star,
    sym,
    union,
)
from repro.tuples.extract import tuples_of
from repro.xmltree.model import XMLTree


@dataclass
class TransformStep:
    """One application of a Section 6 transformation."""

    kind: str                       # "move" or "create"
    fd: FD                          # the anomalous FD being eliminated
    dtd: DTD                        # the resulting DTD
    sigma: list[FD]                 # the resulting FD set
    description: str
    renaming: dict[Path, Path]      # old path -> new path (moved values)
    _migrator: Callable[[XMLTree], XMLTree] = field(repr=False, default=None)
    #: The Σ=∅ engine on ``dtd`` that filtered ``sigma``; the
    #: normalizer hands it to the next round's engine, then drops it.
    trivial: ImplicationEngine | None = field(
        repr=False, compare=False, default=None)

    def migrate(self, tree: XMLTree) -> XMLTree:
        """Carry a document conforming to the old DTD across the step."""
        return self._migrator(tree)


@dataclass
class NewElementNames:
    """Naming choices for *creating element types*.

    ``tau`` names the new grouping element, ``taus[i]`` the per-LHS-key
    child elements, and ``tau_prime`` the optional value wrapper used
    when the moved value can be null (the footnote variant).  Unset
    names are derived automatically (``info``, attribute stems).
    """

    tau: str | None = None
    taus: Sequence[str] | None = None
    tau_prime: str | None = None


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _remove_symbol(regex: Regex, name: str) -> Regex:
    """The production with every occurrence of ``name`` erased."""
    if isinstance(regex, Sym):
        return EPSILON if regex.name == name else regex
    if isinstance(regex, (Epsilon, PCData)):
        return regex
    if isinstance(regex, Union):
        return union(_remove_symbol(p, name) for p in regex.parts)
    if isinstance(regex, Concat):
        return concat(_remove_symbol(p, name) for p in regex.parts)
    if isinstance(regex, Star):
        return star(_remove_symbol(regex.inner, name))
    if isinstance(regex, Plus):
        return plus_or_eps(_remove_symbol(regex.inner, name))
    if isinstance(regex, RegexOptional):
        return optional(_remove_symbol(regex.inner, name))
    raise TypeError(f"unknown regex node: {regex!r}")


def plus_or_eps(inner: Regex) -> Regex:
    from repro.regex.ast import plus
    return plus(inner)


def _single_occurrence_guard(dtd: DTD, element: str, *,
                             context: str) -> Path:
    """The unique DTD path ending at ``element``; transformations edit
    DTDs at the element-type level, so a type reachable along several
    paths cannot be transformed unambiguously."""
    hits = [p for p in dtd.paths if p.is_element and p.last == element]
    if len(hits) != 1:
        raise UnsupportedFeatureError(
            f"{context}: element type {element!r} occurs at "
            f"{len(hits)} paths; the Section 6 transformations require "
            "a unique occurrence")
    return hits[0]


def _drop_dead_and_trivial(dtd: DTD, fds: Iterable[FD],
                           ) -> tuple[list[FD], ImplicationEngine]:
    """Keep FDs whose paths exist in ``dtd``, dropping trivial ones;
    also returns the Σ=∅ engine that decided triviality."""
    survivors: list[FD] = []
    oracle = ImplicationEngine(dtd, [])
    seen: set[FD] = set()
    for fd in fds:
        if fd in seen:
            continue
        seen.add(fd)
        if not all(dtd.is_path(path) for path in fd.paths):
            continue
        if oracle.implies(fd):
            continue  # trivial in the new DTD
        survivors.append(fd)
    return survivors, oracle


def _node_paths(tree: XMLTree) -> dict[str, Path]:
    """Map each node id to its label path."""
    assert tree.root is not None
    mapping: dict[str, Path] = {}

    def visit(node: str, path: Path) -> None:
        mapping[node] = path
        for child in tree.children(node):
            visit(child, path.child(tree.label(child)))

    visit(tree.root, Path.root(tree.label(tree.root)))
    return mapping


def _value_is_forced(dtd: DTD, lhs: frozenset[Path], value: Path) -> bool:
    """Whether the moved value is non-null whenever the LHS is — decides
    between the main construction and the footnote (nullable) variant."""
    _eq, nn = pair_closure(dtd, [], lhs, extra={value})
    return value in nn


# ---------------------------------------------------------------------------
# Moving attributes:  D[p.@l := q.@m]
# ---------------------------------------------------------------------------

def move_attribute(dtd: DTD, sigma: Iterable[FD], value_path: Path,
                   q: Path, *, new_attr: str | None = None) -> TransformStep:
    """``D[p.@l := q.@m]``: move the value at ``value_path`` (an
    attribute path ``p.@l`` or a text path ``p.S``) to a fresh attribute
    of ``last(q)``.

    This is the DBLP fix of Example 1.2: ``year`` moves from
    ``inproceedings`` to ``issue``.
    """
    sigma = list(sigma)
    dtd.check_path(value_path)
    dtd.check_path(q)
    if value_path.is_element:
        raise InvalidFDError(
            f"moved value {value_path} must be an attribute or text path")
    if not q.is_element:
        raise InvalidFDError(f"target {q} must be an element path")

    owner = value_path.parent          # p
    owner_type = owner.last
    target_type = q.last
    _single_occurrence_guard(dtd, owner_type, context="move_attribute")
    _single_occurrence_guard(dtd, target_type, context="move_attribute")

    if value_path.is_attribute:
        stem = value_path.last[1:]
    else:
        stem = owner_type
    attr_name = new_attr if new_attr is not None else (
        dtd.fresh_attribute_name(target_type, stem))
    if not attr_name.startswith("@"):
        attr_name = "@" + attr_name
    new_value_path = q.child(attr_name)

    productions = dict(dtd.productions)
    attributes = {element: set(attrs)
                  for element, attrs in dtd.attributes.items()}
    attributes.setdefault(target_type, set()).add(attr_name)

    removed_type: str | None = None
    if value_path.is_attribute:
        attributes.setdefault(owner_type, set()).discard(value_path.last)
    else:
        # Text value: the whole (#PCDATA-only) element moves away.
        if dtd.attrs(owner_type):
            raise UnsupportedFeatureError(
                f"text element {owner_type!r} carries attributes; "
                "cannot fold it into a single attribute")
        parent_type = owner.parent.last
        productions[parent_type] = _remove_symbol(
            productions[parent_type], owner_type)
        removed_type = owner_type
        del productions[owner_type]
        attributes.pop(owner_type, None)

    new_dtd = DTD(root=dtd.root, productions=productions,
                  attributes={e: frozenset(a)
                              for e, a in attributes.items() if a})

    renaming = {value_path: new_value_path}
    # The paper's Σ[p.@l := q.@m] keeps the implied FDs over the paths
    # both DTDs share: FDs mentioning the moved value are *dropped*,
    # not rewritten — its determination by q is trivial in the new DTD
    # (q -> q.@m), and carrying other FDs over to @m could re-create an
    # anomaly at the new location, breaking Proposition 6.  (Example
    # 5.2 makes the same point: FD5 is not replaced by
    # issue -> issue.@year.)
    new_sigma, trivial = _drop_dead_and_trivial(
        new_dtd, (fd for fd in sigma if value_path not in fd.paths))

    def migrate(tree: XMLTree) -> XMLTree:
        paths_of = _node_paths(tree)
        values: dict[str, str] = {}
        for tuple_ in tuples_of(tree, dtd):
            q_node = tuple_.get(q)
            value = tuple_.get(value_path)
            if value is not None and q_node is None:
                raise ConformanceError(
                    f"document carries a {value_path} value with no {q} "
                    "node to receive it; migration would lose it "
                    "(the paper's lossless witness invents carrier "
                    "nodes here — see EXPERIMENTS.md)")
            if q_node is None or value is None:
                continue
            existing = values.get(q_node)
            if existing is not None and existing != value:
                raise ConformanceError(
                    f"document violates {q} -> {value_path}: node "
                    f"{q_node!r} sees values {existing!r} and {value!r}")
            values[q_node] = value
        result = tree.copy()
        for node, path in paths_of.items():
            if path == q:
                value = values.get(node)
                if value is None:
                    raise ConformanceError(
                        f"node {node!r} at {q} has no {value_path} value; "
                        "the migrated document would miss a required "
                        "attribute")
                result.attributes[(node, attr_name)] = value
        if value_path.is_attribute:
            for node, path in paths_of.items():
                if path == owner:
                    result.attributes.pop((node, value_path.last), None)
        else:
            for node, path in paths_of.items():
                if path == owner:
                    parent = result.parent(node)
                    assert parent is not None
                    siblings = result.content[parent]
                    assert isinstance(siblings, list)
                    result.content[parent] = [
                        c for c in siblings if c != node]
                    _delete_subtree(result, node)
        return result.freeze()

    description = (
        f"move {value_path} to {new_value_path}"
        + (f" (dropping element type {removed_type!r})"
           if removed_type else ""))
    return TransformStep(kind="move", fd=FD(frozenset({q}),
                                            frozenset({value_path})),
                         dtd=new_dtd, sigma=new_sigma,
                         description=description, renaming=renaming,
                         _migrator=migrate, trivial=trivial)


def _delete_subtree(tree: XMLTree, node: str) -> None:
    for child in tree.children(node):
        _delete_subtree(tree, child)
    body = tree.content.pop(node, [])
    del tree.labels[node]
    for key in [k for k in tree.attributes if k[0] == node]:
        del tree.attributes[key]
    del body


# ---------------------------------------------------------------------------
# Creating element types:  D[p.@l := q.tau[tau1.@l1, ..., taun.@ln, @l]]
# ---------------------------------------------------------------------------

def create_element_type(dtd: DTD, sigma: Iterable[FD], fd: FD, *,
                        names: NewElementNames | None = None,
                        engine: ImplicationEngine | None = None,
                        ) -> TransformStep:
    """Apply *creating element types* to the anomalous FD
    ``{q, p1.@l1, ..., pn.@ln} -> value`` (``value`` is ``p0.@l0`` or
    ``p0.S``).

    This is the university fix of Example 1.1: a new ``tau`` child of
    ``last(q)`` stores each value once, with ``taui`` children holding
    the key attributes.
    """
    sigma = list(sigma)
    oracle = engine if engine is not None else ImplicationEngine(dtd, sigma)
    names = names or NewElementNames()

    value = fd.single_rhs
    if value.is_element:
        raise InvalidFDError(
            f"anomalous FD must target an attribute or text path, "
            f"got {value}")
    element_lhs = fd.lhs_element_paths()
    if len(element_lhs) != 1:
        raise UnsupportedFeatureError(
            "creating element types needs exactly one element path on "
            f"the LHS (got {len(element_lhs)}); add the root path or "
            "split the FD as described in Section 6")
    q = element_lhs[0]
    # The paper states the construction for n >= 1 key attributes; the
    # degenerate n = 0 case (a lone element path determines the value)
    # also works — tau then has no key children and the transferred FD
    # ``q -> q.tau`` makes it unique per q — and is what the
    # implication-free variant (Proposition 7) uses where the main
    # algorithm would move an attribute instead.
    # Section 6 assumes attribute keys after coding ``p.S`` as ``p.@l``;
    # we perform that coding on the fly: a text key contributes an
    # attribute named after its #PCDATA element to the new taui child.
    keys = sorted((p for p in fd.lhs if not p.is_element), key=str)

    def key_attr(key: Path) -> str:
        """The attribute carrying this key on its taui child: the key's
        own name for attribute keys, '@<element>' for text keys."""
        return key.last if key.is_attribute else "@" + key.parent.last

    q_type = q.last
    value_owner = value.parent          # p0
    owner_type = value_owner.last
    _single_occurrence_guard(dtd, q_type, context="create_element_type")
    _single_occurrence_guard(dtd, owner_type, context="create_element_type")

    forced = _value_is_forced(dtd, fd.lhs, value)

    productions = dict(dtd.productions)
    attributes = {element: set(attrs)
                  for element, attrs in dtd.attributes.items()}

    tau = dtd.fresh_element_name(names.tau or "info")
    tau_children: list[str] = []
    used = set(productions) | {tau}
    for index, key in enumerate(keys):
        if names.taus is not None and index < len(names.taus):
            base = names.taus[index]
        else:
            base = key_attr(key)[1:]
        candidate = base
        counter = 1
        while candidate in used:
            candidate = f"{base}{counter}"
            counter += 1
        used.add(candidate)
        tau_children.append(candidate)

    renaming: dict[Path, Path] = {}
    tau_path = q.child(tau)
    for key, child_name in zip(keys, tau_children):
        renaming[key.parent] = tau_path.child(child_name)
        renaming[key] = tau_path.child(child_name).child(key_attr(key))

    # --- value placement -------------------------------------------------
    if value.is_attribute:
        value_attr = value.last
        attributes.setdefault(owner_type, set()).discard(value_attr)
        if forced:
            value_parts: list[Regex] = []
            tau_attrs = {value_attr}
            new_value_path = tau_path.child(value_attr)
        else:
            tau_prime = names.tau_prime or f"{tau}_value"
            tau_prime = _fresh_in(used, tau_prime)
            used.add(tau_prime)
            productions[tau_prime] = EPSILON
            attributes[tau_prime] = {value_attr}
            value_parts = [optional(sym(tau_prime))]
            tau_attrs = set()
            new_value_path = tau_path.child(tau_prime).child(value_attr)
        removed_value_type = None
    else:
        # Text value: the #PCDATA element itself moves under tau.
        if dtd.attrs(owner_type):
            raise UnsupportedFeatureError(
                f"text element {owner_type!r} carries attributes; cannot "
                "move it under the new element type")
        parent_type = value_owner.parent.last
        productions[parent_type] = _remove_symbol(
            productions[parent_type], owner_type)
        part = sym(owner_type) if forced else optional(sym(owner_type))
        value_parts = [part]
        tau_attrs = set()
        new_value_path = tau_path.child(owner_type).child(TEXT_STEP)
        renaming[value_owner] = tau_path.child(owner_type)
        removed_value_type = owner_type
    renaming[value] = new_value_path

    q_production = productions[q_type]
    if isinstance(q_production, PCData):
        raise UnsupportedFeatureError(
            f"cannot add the new element type under {q_type!r}, whose "
            "content is #PCDATA")
    productions[q_type] = concat([q_production, star(sym(tau))])
    productions[tau] = concat(
        [star(sym(child)) for child in tau_children] + value_parts)
    if tau_attrs:
        attributes[tau] = tau_attrs
    for child_name, key in zip(tau_children, keys):
        productions[child_name] = EPSILON
        attributes[child_name] = {key_attr(key)}

    new_dtd = DTD(root=dtd.root, productions=productions,
                  attributes={e: frozenset(a)
                              for e, a in attributes.items() if a})

    # --- transformed FD set ----------------------------------------------
    new_sigma: list[FD] = []
    for original in sigma:
        new_sigma.append(original)  # dead/trivial ones filtered below
    new_sigma.extend(
        _transferred_fds(oracle, q, keys, value, renaming))
    # Rule 3: the new structural keys.
    key_paths = [renaming[key] for key in keys]
    new_sigma.append(FD(frozenset({q, *key_paths}), frozenset({tau_path})))
    for key_path in key_paths:
        new_sigma.append(
            FD(frozenset({tau_path, key_path}),
               frozenset({key_path.parent})))
    new_sigma, trivial = _drop_dead_and_trivial(new_dtd, new_sigma)

    # --- instance migration -----------------------------------------------
    def migrate(tree: XMLTree) -> XMLTree:
        paths_of = _node_paths(tree)
        groups: dict[str, dict[str, list[set[str]]]] = {}
        for tuple_ in tuples_of(tree, dtd):
            q_node = tuple_.get(q)
            group_value = tuple_.get(value)
            if group_value is not None and q_node is None:
                raise ConformanceError(
                    f"document carries a {value} value with no {q} node "
                    "to group it under; migration would lose it "
                    "(the paper's lossless witness invents carrier "
                    "nodes here — see EXPERIMENTS.md)")
            if q_node is None or group_value is None:
                continue
            per_value = groups.setdefault(q_node, {})
            key_sets = per_value.setdefault(
                group_value, [set() for _ in keys])
            for index, key in enumerate(keys):
                key_value = tuple_.get(key)
                if key_value is None:
                    raise ConformanceError(
                        f"document carries a {value} value whose key "
                        f"{key} is null; the {tau!r} group storing it "
                        "would be keyless and the value unrecoverable "
                        "(the paper's lossless witness invents carrier "
                        "nodes here — see EXPERIMENTS.md)")
                key_sets[index].add(key_value)
        result = tree.copy()
        # Remove the old copies of the value.
        if value.is_attribute:
            for node, path in paths_of.items():
                if path == value_owner:
                    result.attributes.pop((node, value.last), None)
        else:
            for node, path in paths_of.items():
                if path == value_owner:
                    parent = result.parent(node)
                    assert parent is not None
                    siblings = result.content[parent]
                    assert isinstance(siblings, list)
                    result.content[parent] = [
                        c for c in siblings if c != node]
                    _delete_subtree(result, node)
        # Attach the tau groups.
        for node, path in paths_of.items():
            if path != q:
                continue
            for group_value in sorted(groups.get(node, {})):
                key_sets = groups[node][group_value]
                tau_node = result.add_node(tau, parent=node)
                # Key children first: P(tau) = tau1*, ..., taun*, value.
                for index, key in enumerate(keys):
                    for key_value in sorted(key_sets[index]):
                        child = result.add_node(
                            tau_children[index], parent=tau_node)
                        result.attributes[(child, key_attr(key))] = \
                            key_value
                if value.is_attribute:
                    if forced:
                        result.attributes[(tau_node, value.last)] = \
                            group_value
                    else:
                        holder = result.add_node(tau_prime, parent=tau_node)
                        result.attributes[(holder, value.last)] = group_value
                else:
                    result.add_node(owner_type, parent=tau_node,
                                    text=group_value)
        return result.freeze()

    description = (
        f"create element type {tau!r} under {q} keyed by "
        f"{', '.join(str(k) for k in keys)} storing {value}")
    return TransformStep(kind="create", fd=fd, dtd=new_dtd,
                         sigma=new_sigma, description=description,
                         renaming=renaming, _migrator=migrate,
                         trivial=trivial)


def _fresh_in(used: set[str], base: str) -> str:
    if base not in used:
        return base
    counter = 1
    while f"{base}{counter}" in used:
        counter += 1
    return f"{base}{counter}"


def _transferred_fds(oracle: ImplicationEngine, q: Path,
                     keys: list[Path], value: Path,
                     renaming: dict[Path, Path]) -> list[FD]:
    """Rule 2 of the construction: every implied FD over
    ``{q, p1, ..., pn, p1.@l1, ..., pn.@ln, value}`` is transferred to
    the new element type through ``renaming``."""
    import itertools

    pool: list[Path] = [q]
    pool.extend(key.parent for key in keys)
    pool.extend(keys)
    pool.append(value)
    pool = sorted(set(pool), key=str)
    transferred: list[FD] = []
    for rhs in pool:
        others = [p for p in pool if p != rhs]
        for size in range(1, len(others) + 1):
            for subset in itertools.combinations(others, size):
                candidate = FD(frozenset(subset), frozenset({rhs}))
                if oracle.is_trivial(candidate):
                    continue
                if oracle.implies(candidate):
                    transferred.append(candidate.rename(renaming))
    return transferred
