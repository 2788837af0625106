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
supplies per-task fallbacks: the implication ``engine``, the limits
(``timeout`` / ``max_steps`` / ``max_branches`` / ``max_nodes``, under
the one rule of :class:`repro.guard.Limits`, parsed once per
manifest), and the batch ``seed`` feeding the retry policy's
deterministic backoff jitter.  A task's limits are its own, each unset
one filled from ``defaults``; ``xnf batch``'s budget flags cap them.

Validation is strict and fails whole-manifest (a typo'd operation in
task 37 should stop the batch before task 1 runs): every problem
raises :class:`~repro.errors.ManifestError`, which the CLI maps to
exit code 2 — the manifest, not the specs it names, is what cannot be
used.  Reading a *named spec file* lazily at execution time, by
contrast, is a per-task failure handled by the batch runner.

**Two layouts, one** :class:`Manifest`.  A 100k-task corpus manifest
does not fit comfortably in memory as one JSON array, so ``.jsonl``
files hold the same ``schema`` / ``version`` / ``defaults`` header on
the first line, plus a mandatory ``count``, followed by one task
object per line::

    {"schema": "repro.runtime.manifest", "version": 1,
     "defaults": {"seed": 7}, "count": 100000}
    {"id": "corpus-000000", "op": "check", "dtd_text": "...", ...}
    ...

Both layouts pass one header check.  A JSON manifest then validates
every task and id before the first task runs and keeps the tasks it
built.  A ``.jsonl`` file (and :func:`stream`) is lazy: each pass of
:meth:`~Manifest.iter_indexed` validates and builds a task only when it
reaches it, so a bad task line is only discovered there (still a
:class:`~repro.errors.ManifestError`, still exit code 2), and a task
the pass skips is scanned but never built.  Consumers use
:meth:`~Manifest.iter_indexed` and :attr:`~Manifest.task_count`, which
serve both layouts; only a JSON manifest holds a ``tasks`` list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path as FilePath
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import ManifestError, ReproError
from repro.fd.implication import ENGINES
from repro.guard import Limits
from repro.records import fingerprint

#: Bump on any incompatible change to the JSON layout.
MANIFEST_VERSION = 1

#: The ``schema`` discriminator expected in every manifest file.
MANIFEST_SCHEMA = "repro.runtime.manifest"

#: The operations a task may request.
OPERATIONS = ("implies", "check", "normalize")


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
    #: The task's limits filled from the defaults; ``None`` when
    #: neither sets one, so an unlimited attempt tests only that.
    limits: Limits | None = None

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

    @cached_property
    def spec_fingerprints(self) -> tuple[str | None, str | None]:
        """``(dtd_sha, fds_sha)``, each ``None`` when its file cannot be
        read (the task dead-letters on that); hashed once per task for
        the journal and the ledger."""
        shas = []
        for load in (self.load_dtd_text, self.load_fds_text):
            try:
                shas.append(fingerprint(load()))
            except (ReproError, OSError):
                shas.append(None)
        return shas[0], shas[1]


@dataclass
class Manifest:
    """A validated batch manifest: its header and its tasks.

    ``tasks`` holds a JSON manifest's tasks, every one validated when
    it loaded.  A stream leaves it ``None``: ``raw_tasks`` returns a
    fresh iterator of raw task objects per pass (the manifest is
    re-iterable), resolved against ``base_dir`` as a pass reaches
    them.  :meth:`iter_indexed` and :attr:`task_count` serve both.
    """

    tasks: list[Task] | None = None
    seed: int = 0
    source: str = "<inline>"
    defaults: dict = field(default_factory=dict)
    #: The limits of ``defaults``, which every task's limits fill from.
    limits: Limits = Limits()
    task_count: int = 0
    raw_tasks: Callable[[], Iterable[object]] | None = None
    base_dir: FilePath = FilePath(".")

    def __post_init__(self) -> None:
        if self.tasks is not None:
            self.task_count = len(self.tasks)

    @cached_property
    def sha(self) -> str:
        """The run identity the journal and the ledger stamp as
        ``manifest_sha``."""
        return fingerprint(f"{self.source}:{self.seed}:{self.task_count}")

    def iter_tasks(self) -> Iterator[Task]:
        """Yield every task in manifest order (re-iterable)."""
        for _index, task in self.iter_indexed():
            yield task

    def iter_indexed(self, skip: frozenset[int] = frozenset(),
                     ) -> Iterator[tuple[int, Task]]:
        """Yield ``(index, task)`` pairs, omitting indices in ``skip``.

        The index is the task's stable position in manifest order —
        the identity the batch journal keys result records on,
        so a ``--resume`` can skip completed work without trusting
        anything but the manifest's ordering.  A JSON manifest yields
        the tasks it validated at load; a stream builds them now.
        """
        if self.tasks is None:
            assert self.raw_tasks is not None
            yield from self._build(self.raw_tasks(), skip)
            return
        for index, task in enumerate(self.tasks):
            if index not in skip:
                yield index, task

    def _build(self, raws: Iterable[object],
               skip: frozenset[int] = frozenset(),
               ) -> Iterator[tuple[int, Task]]:
        """Validate ``raws`` against this header as they are reached.

        A skipped index is scanned (the declared count stays honest)
        but neither validated nor built: a journal resume over a
        100k-task stream does not pay for work that is already done.
        The duplicate-id check therefore spans the tasks built — the
        skipped prefix was validated by the run that journaled it.  An
        invalid task raises :class:`~repro.errors.ManifestError` where
        it is reached, and so does a pass that ends with a different
        number of tasks than ``task_count``: the zero-task-loss
        accounting downstream depends on the total being honest.
        """
        seen: set[str] = set()
        scanned = 0
        for index, raw in enumerate(raws):
            scanned += 1
            _require(scanned <= self.task_count,
                     f"{self.source}: stream yielded more than the "
                     f"declared count of {self.task_count} tasks")
            if index in skip:
                continue
            task = _build_task(raw, index, self)
            _require(task.id not in seen,
                     f"duplicate task id {task.id!r}")
            seen.add(task.id)
            yield index, task
        _require(scanned == self.task_count,
                 f"{self.source}: stream yielded {scanned} task(s), "
                 f"header declared count={self.task_count}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _build_task(raw: object, index: int, manifest: Manifest) -> Task:
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
        dtd_path = str(manifest.base_dir / dtd_file)

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
        fds_path = str(manifest.base_dir / fds_file)

    fd = raw.get("fd")
    if op == "implies":
        _require(isinstance(fd, str) and fd.strip() != "",
                 f"{where}: op \"implies\" requires a non-empty fd "
                 "query string")
    else:
        _require(fd is None,
                 f"{where}: fd is only meaningful for op \"implies\"")

    defaults = manifest.defaults
    root = raw.get("root", defaults.get("root"))
    _require(root is None or isinstance(root, str),
             f"{where}: root must be a string")
    engine = raw.get("engine", defaults.get("engine", "auto"))
    _require(engine in ENGINES,
             f"{where}: engine must be one of {list(ENGINES)}, "
             f"got {engine!r}")
    limits = manifest.limits
    if not raw.keys().isdisjoint(Limits.KEYS):    # the task sets its own
        limits = Limits.parse(raw, where=f"{where}: ",
                              error=ManifestError).fill(limits)
    return Task(id=task_id, op=op, dtd_text=dtd_text, dtd_path=dtd_path,
                fds_text=fds_text, fds_path=fds_path, fd=fd, root=root,
                engine=engine, limits=limits or None)


def _check_header(payload: object, source: str) -> dict:
    """The header check both layouts share: ``schema``, ``version``,
    ``defaults``, ``defaults.seed`` and the defaults' limits.  Returns
    the :class:`Manifest` fields it read."""
    _require(isinstance(payload, dict),
             f"{source}: manifest header must be a JSON object")
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
    limits = Limits.parse(defaults, where=f"{source}: defaults: ",
                          error=ManifestError)
    return {"seed": seed, "source": source, "defaults": dict(defaults),
            "limits": limits}


def from_payload(payload: object, *, source: str = "<inline>",
                 base_dir: str | FilePath = ".") -> Manifest:
    """Validate a decoded JSON manifest, every task and every id, into
    a :class:`Manifest` that keeps its tasks."""
    header = _check_header(payload, source)
    assert isinstance(payload, dict)
    raw_tasks = payload.get("tasks")
    _require(isinstance(raw_tasks, list),
             f"{source}: tasks must be an array")
    assert isinstance(raw_tasks, list)
    manifest = Manifest(**header, task_count=len(raw_tasks),
                        base_dir=FilePath(base_dir))
    manifest.tasks = [task for _index, task in manifest._build(raw_tasks)]
    return manifest


def _streamed(header: object, raw_tasks: Callable[[], Iterable[object]],
              source: str, base_dir: str | FilePath) -> Manifest:
    """A lazy manifest: the shared header check plus the ``count``
    every pass of ``raw_tasks`` must yield."""
    fields = _check_header(header, source)
    assert isinstance(header, dict)
    count = header.get("count")
    _require(isinstance(count, int) and not isinstance(count, bool)
             and count >= 0,
             f"{source}: streaming manifests must declare a "
             f"non-negative integer task count in the header, "
             f"got {count!r}")
    return Manifest(**fields, task_count=count, raw_tasks=raw_tasks,
                    base_dir=FilePath(base_dir))


def _load_jsonl(path: FilePath) -> Manifest:
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

    def raw_tasks() -> Iterator[object]:
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

    return _streamed(header, raw_tasks, source, path.parent)


def load(path: str | FilePath) -> Manifest:
    """Read and validate a manifest file.

    Relative ``dtd`` / ``fds`` paths inside the manifest resolve
    against the manifest's own directory.  A ``.jsonl`` suffix selects
    the streaming layout (see the module docstring); everything else
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
           source: str = "<stream>") -> Manifest:
    """An in-memory lazy manifest from a raw-task-dict factory.

    ``raw_tasks`` must return a *fresh* iterator per call (the
    manifest is re-iterable); ``count`` is the number of tasks every
    pass must yield.
    """
    header = {"schema": MANIFEST_SCHEMA, "version": MANIFEST_VERSION,
              "defaults": dict(defaults or {}), "count": count}
    return _streamed(header, raw_tasks, source, base_dir)


def build(tasks: Iterable[Mapping], *, defaults: Mapping | None = None,
          base_dir: str | FilePath = ".") -> Manifest:
    """An in-memory manifest from plain dicts (tests, corpus tools)."""
    payload = {"schema": MANIFEST_SCHEMA, "version": MANIFEST_VERSION,
               "defaults": dict(defaults or {}), "tasks": list(tasks)}
    return from_payload(payload, base_dir=base_dir)
