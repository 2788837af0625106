"""The DTD model ``D = (E, A, P, R, r)`` — Definition 1.

* ``E`` — element types (here: every key of ``productions``),
* ``A`` — attribute names (derived: the union of ``attributes`` values),
* ``P`` — productions: element type -> content model (a
  :class:`~repro.regex.ast.Regex`; ``EPSILON`` encodes ``EMPTY`` and
  ``PCDATA`` encodes ``#PCDATA``),
* ``R`` — attribute sets: element type -> frozenset of ``@``-names,
* ``r`` — the root element type, which (wlog, as in the paper) must not
  occur in any production.

Instances are immutable; the transformation methods used by the
normalization algorithm return new DTDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from repro.errors import InvalidDTDError, RecursionLimitError
from repro.regex.analysis import Multiplicity
from repro.regex.ast import EPSILON, PCData, Regex
from repro.regex.classify import is_simple
from repro.regex.parser import parse_content_model
from repro.dtd.paths import TEXT_STEP, Path
from repro.dtd.table import PathTable

#: Default bound for path enumeration over recursive DTDs.
DEFAULT_DEPTH_LIMIT = 12


@dataclass(frozen=True, eq=False)
class DTD:
    """An immutable DTD per Definition 1 of the paper.

    Equality is structural on ``(r, P, R)`` (``E`` and ``A`` are derived
    and element types without declared attributes compare equal to ones
    with an empty attribute set).
    """

    root: str
    productions: Mapping[str, Regex]
    attributes: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def _key(self) -> tuple:
        attributes = tuple(sorted(
            (element, tuple(sorted(attrs)))
            for element, attrs in self.attributes.items() if attrs))
        productions = tuple(sorted(self.productions.items(),
                                   key=lambda item: item[0]))
        return (self.root, productions, attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DTD):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __post_init__(self) -> None:
        productions = dict(self.productions)
        attributes = {
            element: frozenset(attrs)
            for element, attrs in self.attributes.items()
        }
        object.__setattr__(self, "productions", productions)
        object.__setattr__(self, "attributes", attributes)
        self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, root: str, elements: Mapping[str, str | Regex],
              attlists: Mapping[str, Iterable[str]] | None = None) -> "DTD":
        """Convenience constructor from textual content models.

        >>> DTD.build("db", {"db": "(G*)", "G": "EMPTY"},
        ...           {"G": ["A", "B"]})  # doctest: +ELLIPSIS
        DTD(root='db', ...)
        """
        productions = {
            name: (parse_content_model(model)
                   if isinstance(model, str) else model)
            for name, model in elements.items()
        }
        attributes = {
            name: frozenset(
                attr if attr.startswith("@") else "@" + attr
                for attr in attrs)
            for name, attrs in (attlists or {}).items()
        }
        return cls(root=root, productions=productions, attributes=attributes)

    def _validate(self) -> None:
        if self.root not in self.productions:
            raise InvalidDTDError(
                f"root element type {self.root!r} has no production")
        for element, production in self.productions.items():
            if element == TEXT_STEP:
                raise InvalidDTDError(
                    f"element type name {TEXT_STEP!r} is reserved")
            if element.startswith("@"):
                raise InvalidDTDError(
                    f"element type name {element!r} may not start with '@'")
            alphabet = production.alphabet()
            if isinstance(production, PCData):
                alphabet = frozenset()
            elif TEXT_STEP in alphabet:
                raise InvalidDTDError(
                    f"mixed content in {element!r}: #PCDATA may only be "
                    "the entire content model (Definition 1)")
            for symbol in alphabet:
                if symbol not in self.productions:
                    raise InvalidDTDError(
                        f"production of {element!r} mentions undeclared "
                        f"element type {symbol!r}")
            if self.root in alphabet:
                raise InvalidDTDError(
                    f"root element type {self.root!r} occurs in the "
                    f"production of {element!r} (Definition 1 forbids this)")
        for element, attrs in self.attributes.items():
            if element not in self.productions:
                raise InvalidDTDError(
                    f"ATTLIST for undeclared element type {element!r}")
            for attr in attrs:
                if not attr.startswith("@"):
                    raise InvalidDTDError(
                        f"attribute name {attr!r} must start with '@'")

    # -- basic accessors ---------------------------------------------------

    @property
    def element_types(self) -> frozenset[str]:
        """``E``: the declared element types."""
        return frozenset(self.productions)

    @property
    def attribute_names(self) -> frozenset[str]:
        """``A``: all attribute names used anywhere."""
        return frozenset().union(
            *self.attributes.values()) if self.attributes else frozenset()

    def content(self, element: str) -> Regex:
        """``P(element)``."""
        try:
            return self.productions[element]
        except KeyError:
            raise InvalidDTDError(
                f"unknown element type {element!r}") from None

    def attrs(self, element: str) -> frozenset[str]:
        """``R(element)`` (empty if none declared)."""
        if element not in self.productions:
            raise InvalidDTDError(f"unknown element type {element!r}")
        return self.attributes.get(element, frozenset())

    def has_text(self, element: str) -> bool:
        """Whether ``P(element) = S`` (#PCDATA)."""
        return isinstance(self.content(element), PCData)

    def child_element_types(self, element: str) -> frozenset[str]:
        """Element types that may occur as children of ``element``."""
        production = self.content(element)
        if isinstance(production, PCData):
            return frozenset()
        return production.alphabet()

    # -- recursion & reachability -------------------------------------------

    @cached_property
    def reachable_types(self) -> frozenset[str]:
        """Element types reachable from the root."""
        seen = {self.root}
        frontier = [self.root]
        while frontier:
            element = frontier.pop()
            for child in self.child_element_types(element):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return frozenset(seen)

    @cached_property
    def is_recursive(self) -> bool:
        """Whether ``paths(D)`` is infinite (a reachable cycle exists)."""
        colors: dict[str, int] = {}

        def visit(element: str) -> bool:
            colors[element] = 1
            for child in self.child_element_types(element):
                state = colors.get(child, 0)
                if state == 1:
                    return True
                if state == 0 and visit(child):
                    return True
            colors[element] = 2
            return False

        return visit(self.root)

    @cached_property
    def is_simple(self) -> bool:
        """Whether every reachable production is a simple regex (§7)."""
        return all(is_simple(self.content(element))
                   for element in self.reachable_types)

    # -- paths ---------------------------------------------------------------

    def iter_paths(self, max_depth: int | None = None) -> Iterator[Path]:
        """Enumerate ``paths(D)`` in breadth-first order.

        For recursive DTDs a ``max_depth`` (number of steps) bound is
        required; without one enumeration would not terminate.
        """
        if max_depth is None and self.is_recursive:
            raise RecursionLimitError(
                "paths(D) is infinite for a recursive DTD; "
                "pass max_depth to bound the enumeration")
        frontier: list[Path] = [Path.root(self.root)]
        while frontier:
            next_frontier: list[Path] = []
            for path in frontier:
                yield path
                element = path.last
                for attr in sorted(self.attrs(element)):
                    yield path.child(attr)
                if self.has_text(element):
                    yield path.child(TEXT_STEP)
                if max_depth is not None and path.length >= max_depth:
                    continue
                for child in sorted(self.child_element_types(element)):
                    next_frontier.append(path.child(child))
            frontier = next_frontier

    @cached_property
    def paths(self) -> frozenset[Path]:
        """``paths(D)`` for a non-recursive DTD (cached)."""
        return frozenset(self.iter_paths())

    @cached_property
    def path_table(self) -> PathTable:
        """The interned-path table the FD engines run on (cached)."""
        # setdefault, not a plain return: from Python 3.12 on
        # cached_property no longer locks, and two racing threads must
        # still end up sharing one table.
        return self.__dict__.setdefault(
            "path_table", PathTable(self.productions, self.attributes))

    @cached_property
    def epaths(self) -> frozenset[Path]:
        """``EPaths(D)``: paths ending in an element type."""
        return frozenset(p for p in self.paths if p.is_element)

    def is_path(self, path: Path) -> bool:
        """Whether ``path`` is in ``paths(D)`` (works for recursive DTDs
        without enumerating)."""
        if path.steps[0] != self.root:
            return False
        for index in range(1, len(path.steps)):
            parent = path.steps[index - 1]
            step = path.steps[index]
            if parent not in self.productions:
                return False
            if step.startswith("@"):
                return (index == len(path.steps) - 1
                        and step in self.attrs(parent))
            if step == TEXT_STEP:
                return (index == len(path.steps) - 1
                        and self.has_text(parent))
            if step not in self.path_table.child_classes(parent):
                return False  # not in the production's alphabet
        return True

    def check_path(self, path: Path) -> Path:
        """Validate membership in ``paths(D)``, returning the path."""
        if not self.is_path(path):
            from repro.errors import InvalidPathError
            raise InvalidPathError(f"{path} is not a path of this DTD")
        return path

    # -- multiplicities -------------------------------------------------------

    def child_multiplicity(self, element: str, child: str) -> Multiplicity:
        """Occurrence class of ``child`` in ``P(element)``.

        For non-simple productions the exact class may not exist; we
        then return the sound coarsening by exact occurrence bounds
        (``PLUS`` if forced, else ``STAR``), which is all the FD engines
        rely on (forcedness and at-most-one-ness).  Read from the path
        table's per-production maps.
        """
        return self.path_table.child_multiplicity(element, child)

    def path_multiplicity(self, path: Path) -> Multiplicity:
        """Occurrence class of the final step of an element path below
        its parent; the root has multiplicity ``ONE``."""
        if path.length == 1:
            return Multiplicity.ONE
        return self.child_multiplicity(path.parent.last, path.last)

    # -- misc -----------------------------------------------------------------

    def fresh_element_name(self, base: str) -> str:
        """An element-type name not in ``E``, derived from ``base``."""
        if base not in self.productions:
            return base
        index = 1
        while f"{base}{index}" in self.productions:
            index += 1
        return f"{base}{index}"

    def fresh_attribute_name(self, element: str, base: str) -> str:
        """An attribute name not in ``R(element)``, derived from ``base``."""
        if not base.startswith("@"):
            base = "@" + base
        if base not in self.attrs(element):
            return base
        index = 1
        while f"{base}{index}" in self.attrs(element):
            index += 1
        return f"{base}{index}"

    def __str__(self) -> str:
        from repro.dtd.serializer import serialize_dtd
        return serialize_dtd(self)
