"""Batch manifests: many ``(D, Σ)`` tasks in one declarative file.

A manifest is a JSON document naming the tasks of one batch run::

    {
      "schema": "repro.runtime.manifest",
      "version": 1,
      "defaults": {"engine": "auto", "max_steps": 200000, "seed": 0},
      "tasks": [
        {"id": "u-implies", "op": "implies",
         "dtd": "specs/university.dtd", "fds": "specs/university.fds",
         "fd": "courses.course.@cno -> courses.course"},
        {"id": "u-check", "op": "check",
         "dtd_text": "<!ELEMENT db (a*)> ...", "fds_text": "db.a.@x -> db.a"}
      ]
    }

Each task runs one of the paper's three central decision procedures:

* ``"implies"`` — the FD implication query ``(D, Σ) |- fd`` (Section 7);
* ``"check"``   — the XNF test (Definition 8 / Proposition 10);
* ``"normalize"`` — the Figure 4 decomposition algorithm.

DTD and FD inputs come either inline (``dtd_text`` / ``fds_text``) or
from files (``dtd`` / ``fds``, resolved relative to the manifest's own
directory so a manifest travels with its spec corpus).  ``defaults``
supplies per-task fallbacks: the implication ``engine``, the
:mod:`repro.guard` budget limits (``timeout`` / ``max_steps`` /
``max_branches`` / ``max_nodes``), and the batch ``seed`` feeding the
retry policy's deterministic backoff jitter.

Validation is strict and fails whole-manifest (a typo'd operation in
task 37 should stop the batch before task 1 runs): every problem
raises :class:`~repro.errors.ManifestError`, which the CLI maps to
exit code 2 — the manifest, not the specs it names, is what cannot be
used.  Reading a *named spec file* lazily at execution time, by
contrast, is a per-task failure handled by the batch runner.

**Streaming manifests** (``*.jsonl``): a 100k-task corpus manifest
does not fit comfortably in memory as one JSON array, so ``.jsonl``
files hold one header object on the first line — the usual ``schema``
/ ``version`` / ``defaults`` envelope plus a mandatory ``count`` —
followed by one task object per line::

    {"schema": "repro.runtime.manifest", "version": 1,
     "defaults": {"seed": 7}, "count": 100000}
    {"id": "corpus-000000", "op": "check", "dtd_text": "...", ...}
    ...

:func:`load` returns a :class:`StreamingManifest` for them: tasks are
validated and yielded one at a time on every :meth:`~Manifest.iter_tasks`
pass, never materialized as a list.  The strict-validation contract is
necessarily weaker here — a bad task line is only discovered when the
iterator reaches it (still a :class:`~repro.errors.ManifestError`,
still exit code 2; the header and ``count`` are checked eagerly).
Consumers that can stream should prefer :meth:`~Manifest.iter_tasks`
and :attr:`~Manifest.task_count` over the ``tasks`` list — the batch
runner and the pool backend do.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path as FilePath
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import ManifestError

#: Bump on any incompatible change to the JSON layout.
MANIFEST_VERSION = 1

#: The ``schema`` discriminator expected in every manifest file.
MANIFEST_SCHEMA = "repro.runtime.manifest"

#: The operations a task may request.
OPERATIONS = ("implies", "check", "normalize")

#: Per-task guard-budget knobs accepted in ``defaults`` and per task.
_BUDGET_KEYS = ("timeout", "max_steps", "max_branches", "max_nodes")

_ENGINES = ("auto", "closure", "chase", "brute", "ensemble")


@dataclass(frozen=True)
class Task:
    """One unit of batch work, fully resolved against the defaults."""

    id: str
    op: str
    dtd_text: str | None = None
    dtd_path: str | None = None
    fds_text: str | None = None
    fds_path: str | None = None
    fd: str | None = None
    root: str | None = None
    engine: str = "auto"
    timeout: float | None = None
    max_steps: int | None = None
    max_branches: int | None = None
    max_nodes: int | None = None

    @property
    def budgeted(self) -> bool:
        """Whether any :func:`repro.guard.limits` limit is set."""
        return (self.timeout is not None or self.max_steps is not None
                or self.max_branches is not None
                or self.max_nodes is not None)

    def budget_kwargs(self) -> dict:
        """The :func:`repro.guard.limits` kwargs for this task."""
        return {"deadline": self.timeout, "max_steps": self.max_steps,
                "max_branches": self.max_branches,
                "max_nodes": self.max_nodes}

    def load_dtd_text(self) -> str:
        """The DTD source (inline, or read from the named file)."""
        if self.dtd_text is not None:
            return self.dtd_text
        assert self.dtd_path is not None
        return FilePath(self.dtd_path).read_text()

    def load_fds_text(self) -> str:
        """The FD lines (inline, from the named file, or empty)."""
        if self.fds_text is not None:
            return self.fds_text
        if self.fds_path is not None:
            return FilePath(self.fds_path).read_text()
        return ""


@dataclass
class Manifest:
    """A validated batch manifest.

    Consumers that can stream should use :meth:`iter_tasks` and
    :attr:`task_count` instead of the ``tasks`` list: the eager
    manifest satisfies both trivially, and :class:`StreamingManifest`
    satisfies them without ever materializing the task list.
    """

    tasks: list[Task]
    seed: int = 0
    source: str = "<inline>"
    defaults: dict = field(default_factory=dict)

    @property
    def task_count(self) -> int:
        """How many tasks one :meth:`iter_tasks` pass will yield."""
        return len(self.tasks)

    def iter_tasks(self) -> Iterator[Task]:
        """Yield every task in manifest order (re-iterable)."""
        return iter(self.tasks)

    def iter_indexed(self, skip: frozenset[int] = frozenset(),
                     ) -> Iterator[tuple[int, Task]]:
        """Yield ``(index, task)`` pairs, omitting indices in ``skip``.

        The index is the task's stable position in manifest order —
        the identity the batch journal keys intent/result records on,
        so a ``--resume`` can skip completed work without trusting
        anything but the manifest's ordering.
        """
        for index, task in enumerate(self.tasks):
            if index in skip:
                continue
            yield index, task


class StreamingManifest(Manifest):
    """A manifest whose tasks are validated and yielded lazily.

    Built from a factory returning a fresh raw-task-dict iterator per
    pass, so the manifest is re-iterable (the serial backend walks it
    once; a serial-vs-parallel comparison walks it twice).  Task
    validation happens *during* iteration: an invalid task raises
    :class:`~repro.errors.ManifestError` at the point it is reached,
    and an iteration that ends with a different number of tasks than
    the declared ``count`` raises as well — the zero-task-loss
    accounting downstream depends on the total being honest.

    Accessing ``.tasks`` materializes the whole list (supported for
    small manifests and tests; the 100k-task path never touches it).
    """

    def __init__(self, raw_factory: Callable[[], Iterator[object]],
                 count: int, *, seed: int = 0, source: str = "<inline>",
                 defaults: Mapping | None = None,
                 base_dir: str | FilePath = ".") -> None:
        defaults = dict(defaults or {})
        super().__init__(tasks=[], seed=seed, source=source,
                         defaults=defaults)
        _require(isinstance(count, int) and not isinstance(count, bool)
                 and count >= 0,
                 f"{source}: count must be a non-negative integer, "
                 f"got {count!r}")
        self._raw_factory = raw_factory
        self._count = count
        self._base_dir = FilePath(base_dir)

    @property
    def task_count(self) -> int:
        return self._count

    def iter_tasks(self) -> Iterator[Task]:
        for _index, task in self.iter_indexed():
            yield task

    def iter_indexed(self, skip: frozenset[int] = frozenset(),
                     ) -> Iterator[tuple[int, Task]]:
        """Yield ``(index, task)``, never building skipped tasks.

        A journal resume over a 100k-task stream must not pay
        validation and :class:`Task` construction for work that is
        already done: a skipped index's raw line is scanned (the
        declared-count contract stays honest) but neither validated
        nor materialized.  The duplicate-id check therefore only spans
        the tasks actually yielded — the skipped prefix was validated
        by the run that journaled it.
        """
        seen: set[str] = set()
        yielded = 0
        for index, raw in enumerate(self._raw_factory()):
            yielded += 1
            _require(yielded <= self._count,
                     f"{self.source}: stream yielded more than the "
                     f"declared count of {self._count} tasks")
            if index in skip:
                continue
            task = _build_task(raw, index, self.defaults,
                               self._base_dir)
            _require(task.id not in seen,
                     f"duplicate task id {task.id!r}")
            seen.add(task.id)
            yield index, task
        _require(yielded == self._count,
                 f"{self.source}: stream yielded {yielded} task(s), "
                 f"header declared count={self._count}")

    @property
    def tasks(self) -> list[Task]:  # type: ignore[override]
        return list(self.iter_tasks())

    @tasks.setter
    def tasks(self, value: list[Task]) -> None:
        # The dataclass __init__ of the base assigns tasks=[]; a
        # streaming manifest ignores it (tasks are derived).
        pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _check_budget(raw: Mapping, where: str) -> dict:
    """Extract and type-check the budget knobs of one mapping."""
    budget: dict = {}
    for key in _BUDGET_KEYS:
        value = raw.get(key)
        if value is None:
            continue
        _require(isinstance(value, (int, float))
                 and not isinstance(value, bool) and value > 0,
                 f"{where}: {key} must be a positive number, "
                 f"got {value!r}")
        budget[key] = float(value) if key == "timeout" else int(value)
    return budget


def _build_task(raw: object, index: int, defaults: Mapping,
                base_dir: FilePath) -> Task:
    where = f"task #{index}"
    _require(isinstance(raw, dict), f"{where}: must be an object")
    assert isinstance(raw, dict)
    task_id = raw.get("id", f"task-{index:04d}")
    _require(isinstance(task_id, str) and task_id.strip() != "",
             f"{where}: id must be a non-empty string")
    where = f"task {task_id!r}"
    op = raw.get("op")
    _require(op in OPERATIONS,
             f"{where}: op must be one of {list(OPERATIONS)}, "
             f"got {op!r}")

    dtd_text = raw.get("dtd_text")
    dtd_file = raw.get("dtd")
    _require((dtd_text is None) != (dtd_file is None),
             f"{where}: exactly one of dtd / dtd_text is required")
    if dtd_text is not None:
        _require(isinstance(dtd_text, str),
                 f"{where}: dtd_text must be a string")
    dtd_path = None
    if dtd_file is not None:
        _require(isinstance(dtd_file, str),
                 f"{where}: dtd must be a path string")
        dtd_path = str(base_dir / dtd_file)

    fds_text = raw.get("fds_text")
    fds_file = raw.get("fds")
    _require(fds_text is None or fds_file is None,
             f"{where}: at most one of fds / fds_text is allowed")
    if fds_text is not None:
        _require(isinstance(fds_text, str),
                 f"{where}: fds_text must be a string")
    fds_path = None
    if fds_file is not None:
        _require(isinstance(fds_file, str),
                 f"{where}: fds must be a path string")
        fds_path = str(base_dir / fds_file)

    fd = raw.get("fd")
    if op == "implies":
        _require(isinstance(fd, str) and fd.strip() != "",
                 f"{where}: op \"implies\" requires a non-empty fd "
                 "query string")
    else:
        _require(fd is None,
                 f"{where}: fd is only meaningful for op \"implies\"")

    root = raw.get("root", defaults.get("root"))
    _require(root is None or isinstance(root, str),
             f"{where}: root must be a string")
    engine = raw.get("engine", defaults.get("engine", "auto"))
    _require(engine in _ENGINES,
             f"{where}: engine must be one of {list(_ENGINES)}, "
             f"got {engine!r}")

    budget = dict(_check_budget(defaults, "defaults"))
    budget.update(_check_budget(raw, where))
    return Task(id=task_id, op=op, dtd_text=dtd_text, dtd_path=dtd_path,
                fds_text=fds_text, fds_path=fds_path, fd=fd, root=root,
                engine=engine, timeout=budget.get("timeout"),
                max_steps=budget.get("max_steps"),
                max_branches=budget.get("max_branches"),
                max_nodes=budget.get("max_nodes"))


def from_payload(payload: object, *, source: str = "<inline>",
                 base_dir: str | FilePath = ".") -> Manifest:
    """Validate a decoded manifest object into a :class:`Manifest`."""
    _require(isinstance(payload, dict),
             f"{source}: manifest must be a JSON object")
    assert isinstance(payload, dict)
    _require(payload.get("schema") == MANIFEST_SCHEMA,
             f"{source}: not a batch manifest (missing "
             f"schema={MANIFEST_SCHEMA!r} discriminator)")
    version = payload.get("version")
    _require(version == MANIFEST_VERSION,
             f"{source}: manifest schema version {version!r} is not "
             f"supported (expected {MANIFEST_VERSION})")
    defaults = payload.get("defaults", {})
    _require(isinstance(defaults, dict),
             f"{source}: defaults must be an object")
    seed = defaults.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             f"{source}: defaults.seed must be an integer")
    raw_tasks = payload.get("tasks")
    _require(isinstance(raw_tasks, list),
             f"{source}: tasks must be an array")
    assert isinstance(raw_tasks, list)
    base = FilePath(base_dir)
    tasks = [_build_task(raw, index, defaults, base)
             for index, raw in enumerate(raw_tasks)]
    seen: set[str] = set()
    for task in tasks:
        _require(task.id not in seen, f"duplicate task id {task.id!r}")
        seen.add(task.id)
    return Manifest(tasks=tasks, seed=seed, source=source,
                    defaults=dict(defaults))


def _check_header(payload: object, source: str) -> tuple[dict, int]:
    """Validate a ``.jsonl`` header line; returns (defaults, count)."""
    _require(isinstance(payload, dict),
             f"{source}: header must be a JSON object")
    assert isinstance(payload, dict)
    _require(payload.get("schema") == MANIFEST_SCHEMA,
             f"{source}: not a batch manifest (missing "
             f"schema={MANIFEST_SCHEMA!r} discriminator)")
    version = payload.get("version")
    _require(version == MANIFEST_VERSION,
             f"{source}: manifest schema version {version!r} is not "
             f"supported (expected {MANIFEST_VERSION})")
    defaults = payload.get("defaults", {})
    _require(isinstance(defaults, dict),
             f"{source}: defaults must be an object")
    seed = defaults.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             f"{source}: defaults.seed must be an integer")
    count = payload.get("count")
    _require(isinstance(count, int) and not isinstance(count, bool)
             and count >= 0,
             f"{source}: streaming manifests must declare a "
             f"non-negative integer task count in the header, "
             f"got {count!r}")
    return dict(defaults), count


def _load_jsonl(path: FilePath) -> StreamingManifest:
    """A lazy manifest over a ``.jsonl`` file (header validated now,
    tasks validated as they stream)."""
    source = str(path)
    try:
        with open(path) as handle:
            header_line = handle.readline()
    except OSError as error:
        raise ManifestError(
            f"cannot read manifest {path}: {error}") from error
    _require(header_line.strip() != "",
             f"{source}: empty manifest (expected a header line)")
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as error:
        raise ManifestError(f"{source}: header line is not valid "
                            f"JSON: {error}") from error
    defaults, count = _check_header(header, source)

    def raw_tasks() -> "Iterator[object]":
        with open(path) as handle:
            handle.readline()                     # skip the header
            for lineno, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    yield json.loads(line)
                except json.JSONDecodeError as error:
                    raise ManifestError(
                        f"{source}: line {lineno} is not valid JSON: "
                        f"{error}") from error

    return StreamingManifest(raw_tasks, count,
                             seed=defaults.get("seed", 0),
                             source=source, defaults=defaults,
                             base_dir=path.parent)


def load(path: str | FilePath) -> Manifest:
    """Read and validate a manifest file.

    Relative ``dtd`` / ``fds`` paths inside the manifest resolve
    against the manifest's own directory.  A ``.jsonl`` suffix selects
    the streaming loader (see the module docstring); everything else
    is read as one strictly validated JSON document.
    """
    path = FilePath(path)
    if path.suffix == ".jsonl":
        return _load_jsonl(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise ManifestError(
            f"cannot read manifest {path}: {error}") from error
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ManifestError(
            f"manifest {path} is not valid JSON: {error}") from error
    return from_payload(payload, source=str(path), base_dir=path.parent)


def stream(raw_tasks: Callable[[], Iterator[Mapping]], count: int, *,
           defaults: Mapping | None = None,
           base_dir: str | FilePath = ".",
           source: str = "<stream>") -> StreamingManifest:
    """An in-memory streaming manifest from a raw-task-dict factory.

    ``raw_tasks`` must return a *fresh* iterator per call (the
    manifest is re-iterable); ``count`` is the number of tasks every
    pass must yield.
    """
    defaults = dict(defaults or {})
    seed = defaults.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             f"{source}: defaults.seed must be an integer")
    return StreamingManifest(raw_tasks, count, seed=seed, source=source,
                             defaults=defaults, base_dir=base_dir)


def build(tasks: Iterable[Mapping], *, defaults: Mapping | None = None,
          base_dir: str | FilePath = ".") -> Manifest:
    """An in-memory manifest from plain dicts (tests, corpus tools)."""
    payload = {"schema": MANIFEST_SCHEMA, "version": MANIFEST_VERSION,
               "defaults": dict(defaults or {}), "tasks": list(tasks)}
    return from_payload(payload, base_dir=base_dir)
