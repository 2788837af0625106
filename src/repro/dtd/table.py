"""Interned paths: one small integer per path of a DTD.

The implication engines ask the same few questions — parent, prefixes,
is it an element path, is the step from the parent forced / at most
once — about the same few hundred paths over and over.  A
:class:`PathTable` answers them by array lookup: each :class:`Path` is
interned to an id the first time an engine meets it, and the facts
about it are computed once, stored in parallel lists indexed by that
id, and shared by every later query against the same DTD.

Interning is lazy because ``paths(D)`` is infinite for a recursive DTD.
It is also atomic: ``xnf serve`` threads share cached specs, and two
threads interning the same new path must get the same id.  Ids are
assigned in interning order, which depends on the queries asked, so
nothing may iterate in id order; engines that need a fixed order sort
by :attr:`Path.steps` (path-step order: a prefix sorts before its
extensions).

The table also owns the per-production multiplicity maps behind
:meth:`DTD.child_multiplicity`, computed once per element type.
"""

from __future__ import annotations

import threading
from typing import Iterable, Mapping

from repro.errors import InvalidDTDError
from repro.dtd.paths import TEXT_STEP, Path
from repro.regex.analysis import (
    Multiplicity,
    occurrence_bounds,
    symbol_multiplicities,
)
from repro.regex.ast import PCData, Regex


class PathTable:
    """The interned paths of one DTD (see module docs).

    Per id ``i``: ``steps[i]`` is the path's step tuple (also its
    lookup key), ``parent[i]`` the parent's id (``-1`` for a length-one
    path), ``prefixes[i]`` the ids of all prefixes shortest first (``i``
    last), ``prefix_mask[i]`` their bitmask, ``is_element[i]`` whether
    it is an element path, and ``forced[i]`` / ``determined[i]`` its
    step class: a non-null parent forces the step non-null (attributes,
    text, multiplicity ``1``/``+``) and equal parents make it equal
    (attributes, text, multiplicity ``1``/``?``).  Both are ``False``
    for length-one paths.  :class:`Path` objects are built only on the
    way out (:meth:`path`, :meth:`paths_of`).
    """

    def __init__(self, productions: Mapping[str, Regex],
                 attributes: Mapping[str, frozenset[str]]) -> None:
        # The DTD's mappings, not the DTD itself: the DTD holds its
        # table, and a cycle would leave every DTD to the cyclic
        # garbage collector.
        self._productions = productions
        self._attributes = attributes
        self._lock = threading.Lock()
        self._ids: dict[tuple[str, ...], int] = {}
        self._classes: dict[str, dict[str, Multiplicity]] = {}
        self.steps: list[tuple[str, ...]] = []
        self.parent: list[int] = []
        self.prefixes: list[tuple[int, ...]] = []
        self.prefix_mask: list[int] = []
        self.is_element: list[bool] = []
        self.forced: list[bool] = []
        self.determined: list[bool] = []

    def __reduce__(self):
        # The lock cannot be pickled; a pickled DTD gets a fresh table.
        return (PathTable, (self._productions, self._attributes))

    def __len__(self) -> int:
        return len(self.steps)

    def intern(self, path: Path) -> int:
        """The id of ``path``, assigning one (and ids for its prefixes)
        on first sight.  Raises :class:`~repro.errors.InvalidDTDError`
        if a non-final step is not an element type of the DTD."""
        found = self._ids.get(path.steps)
        if found is not None:
            return found
        with self._lock:
            found = self._ids.get(path.steps)
            if found is None:
                found = self._add(path.steps)
            return found

    def path(self, pid: int) -> Path:
        """The path with id ``pid``."""
        return Path._prefix_of_valid(self.steps[pid])

    def paths_of(self, mask: int) -> frozenset[Path]:
        """The paths whose ids are set in the bitmask ``mask``."""
        return frozenset(map(self.path, ids_of(mask)))

    def in_step_order(self, ids: Iterable[int]) -> tuple[int, ...]:
        """``ids`` sorted in path-step order (a prefix before its
        extensions)."""
        return tuple(sorted(ids, key=self.steps.__getitem__))

    def _add(self, steps: tuple[str, ...]) -> int:
        """Intern ``steps`` and its missing prefixes; lock held."""
        pid = -1
        for length in range(1, len(steps) + 1):
            prefix = steps if length == len(steps) else steps[:length]
            known = self._ids.get(prefix)
            if known is not None:
                pid = known
                continue
            parent = pid
            pid = len(self.steps)
            if parent < 0:
                forced = determined = False
                chain, mask = (pid,), 1 << pid
            else:
                forced, determined = self._step_class(prefix)
                chain = self.prefixes[parent] + (pid,)
                mask = self.prefix_mask[parent] | 1 << pid
            # Fill every array before publishing the id: readers look
            # ids up without the lock.
            self.steps.append(prefix)
            self.parent.append(parent)
            self.prefixes.append(chain)
            self.prefix_mask.append(mask)
            self.is_element.append(
                not (prefix[-1].startswith("@") or prefix[-1] == TEXT_STEP))
            self.forced.append(forced)
            self.determined.append(determined)
            self._ids[prefix] = pid
        return pid

    def _step_class(self, steps: tuple[str, ...]) -> tuple[bool, bool]:
        """(forced, determined) for the last step of a path."""
        parent_type = steps[-2]
        step = steps[-1]
        production = self._content(parent_type)
        if step.startswith("@"):
            present = step in self._attributes.get(parent_type, ())
            return present, present
        if step == TEXT_STEP:
            text = isinstance(production, PCData)
            return text, text
        multiplicity = self.child_multiplicity(parent_type, step)
        return multiplicity.forced, multiplicity.at_most_one

    def child_classes(self, element: str) -> dict[str, Multiplicity]:
        """The occurrence class of every symbol of ``P(element)``
        (computed on first use)."""
        classes = self._classes.get(element)
        if classes is None:
            classes = self._classes.setdefault(
                element, _production_classes(self._content(element)))
        return classes

    def child_multiplicity(self, element: str,
                           child: str) -> Multiplicity:
        """Occurrence class of ``child`` in ``P(element)``."""
        return self.child_classes(element).get(child, Multiplicity.ZERO)

    def _content(self, element: str) -> Regex:
        try:
            return self._productions[element]
        except KeyError:
            raise InvalidDTDError(
                f"unknown element type {element!r}") from None


def ids_of(mask: int) -> list[int]:
    """The ids whose bits are set in ``mask``, lowest first."""
    ids = []
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return ids


def _production_classes(production: Regex) -> dict[str, Multiplicity]:
    """Per-symbol occurrence classes of one content model.

    For non-simple productions the exact class may not exist; such a
    symbol gets the sound coarsening by exact occurrence bounds (``PLUS``
    if forced, else ``STAR``), which is all the FD engines rely on
    (forcedness and at-most-one-ness).  Symbols outside the alphabet
    are ``ZERO``.
    """
    classes: dict[str, Multiplicity] = {}
    for symbol, cls in symbol_multiplicities(production).items():
        if cls is None:
            low, high = occurrence_bounds(production, symbol)
            if high == 0:
                cls = Multiplicity.ZERO
            elif low >= 1:
                cls = Multiplicity.PLUS if high > 1 else Multiplicity.ONE
            else:
                cls = Multiplicity.STAR if high > 1 else Multiplicity.OPT
        classes[symbol] = cls
    return classes
