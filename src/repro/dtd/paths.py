"""Paths in DTDs and XML trees.

A path ``w1.w2. ... .wn`` starts at the root element type; every step
but the last is an element name, and the last step is an element name,
an attribute name (``@l``), or the reserved text symbol ``S``
(#PCDATA).  The textual syntax is dot-separated, exactly as in the
paper (``courses.course.@cno``).

:class:`Path` is immutable and hashable, so paths can be set members
and dict keys throughout the FD machinery.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterator

from repro.errors import InvalidPathError

#: Reserved step denoting #PCDATA content.
TEXT_STEP = "S"


@total_ordering
class Path:
    """An immutable path: a non-empty sequence of steps."""

    __slots__ = ("_steps", "_hash")

    def __init__(self, steps: tuple[str, ...] | list[str]) -> None:
        steps = tuple(steps)
        if not steps:
            raise InvalidPathError("a path must have at least one step")
        for index, step in enumerate(steps):
            if not step:
                raise InvalidPathError("path steps must be non-empty")
            if index < len(steps) - 1 and (step.startswith("@")
                                           or step == TEXT_STEP):
                raise InvalidPathError(
                    f"non-final step {step!r} must be an element name "
                    f"in path {'.'.join(steps)!r}")
        object.__setattr__(self, "_steps", steps)
        object.__setattr__(self, "_hash", hash(steps))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Path is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Path":
        """Parse dot-separated syntax, e.g. ``courses.course.@cno``."""
        text = text.strip()
        if not text:
            raise InvalidPathError("empty path")
        return cls(tuple(part.strip() for part in text.split(".")))

    @classmethod
    def root(cls, element: str) -> "Path":
        """The length-one path consisting of the root element type."""
        return cls((element,))

    @classmethod
    def _prefix_of_valid(cls, steps: tuple[str, ...]) -> "Path":
        """A prefix of an already-validated path, built without
        re-validating its steps (every prefix of a path is a path)."""
        path = object.__new__(cls)
        object.__setattr__(path, "_steps", steps)
        object.__setattr__(path, "_hash", hash(steps))
        return path

    # -- accessors ---------------------------------------------------------

    @property
    def steps(self) -> tuple[str, ...]:
        return self._steps

    @property
    def last(self) -> str:
        """``last(p)``: the final step."""
        return self._steps[-1]

    @property
    def length(self) -> int:
        """``length(p)``: the number of steps."""
        return len(self._steps)

    @property
    def is_attribute(self) -> bool:
        """Whether the path ends in an attribute (``@l``)."""
        return self.last.startswith("@")

    @property
    def is_text(self) -> bool:
        """Whether the path ends in the text symbol ``S``."""
        return self.last == TEXT_STEP

    @property
    def is_element(self) -> bool:
        """Whether the path ends in an element type (an *EPath*)."""
        return not (self.is_attribute or self.is_text)

    @property
    def parent(self) -> "Path":
        """The path with the final step removed."""
        if len(self._steps) == 1:
            raise InvalidPathError(f"path {self} has no parent")
        return Path._prefix_of_valid(self._steps[:-1])

    @property
    def element_prefix(self) -> "Path":
        """The longest element-path prefix: the path itself if it is an
        element path, otherwise its parent."""
        return self if self.is_element else self.parent

    def child(self, step: str) -> "Path":
        """Extend the path by one step."""
        if not self.is_element:
            raise InvalidPathError(
                f"cannot extend non-element path {self} with {step!r}")
        return Path(self._steps + (step,))

    def attribute(self, name: str) -> "Path":
        """Extend with an attribute step; ``name`` may omit the ``@``."""
        if not name.startswith("@"):
            name = "@" + name
        return self.child(name)

    @property
    def text(self) -> "Path":
        """Extend with the text step ``S``."""
        return self.child(TEXT_STEP)

    def prefixes(self, *, proper: bool = False) -> Iterator["Path"]:
        """All prefixes, shortest first; ``proper`` excludes the path
        itself."""
        for length in range(1, len(self._steps)):
            yield Path._prefix_of_valid(self._steps[:length])
        if not proper:
            yield self

    def is_prefix_of(self, other: "Path", *, proper: bool = False) -> bool:
        """Whether this path is a prefix of ``other``."""
        if len(self._steps) > len(other._steps):
            return False
        if proper and len(self._steps) == len(other._steps):
            return False
        return other._steps[:len(self._steps)] == self._steps

    def replace_prefix(self, old: "Path", new: "Path") -> "Path":
        """Rewrite a leading occurrence of ``old`` to ``new``."""
        if not old.is_prefix_of(self):
            raise InvalidPathError(f"{old} is not a prefix of {self}")
        return Path(new._steps + self._steps[len(old._steps):])

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._steps == other._steps

    def __lt__(self, other: "Path") -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return self._steps < other._steps

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._steps)

    def __iter__(self) -> Iterator[str]:
        return iter(self._steps)

    def __str__(self) -> str:
        return ".".join(self._steps)

    def __repr__(self) -> str:
        return f"Path({str(self)!r})"


def parse_paths(text: str) -> list[Path]:
    """Parse a comma-separated list of paths."""
    return [Path.parse(part) for part in text.split(",") if part.strip()]
