"""Nestable tracing spans with pluggable sinks.

A *span* measures one named region of work::

    with span("normalize.round", rule="move") as sp:
        ...
        sp.set("anomalous_after", 2)

Spans nest via a thread-local stack, so each span's parent and depth
mirror the call structure without any plumbing.  A span is a flat
record: nothing links a parent to its children, only the open-span
stack holds a span, and when it finishes it is emitted to every
registered sink and dropped — a finished span stays in memory only
while a sink keeps it.  Tools that want the tree (``xnf obs
report/flame/diff``, :mod:`repro.obs.profile`) rebuild it from the
records' ``parent`` ids.

Sinks:

* :class:`JsonLinesSink` — one JSON object per finished span (schema
  below), suitable for ``xnf --trace FILE``;
* :class:`InMemorySink` — collects finished spans for tests and
  in-process inspection.

JSON-lines schema **v2** (one line per span, children precede parents
because they finish first)::

    {"id": 3, "parent": 1, "depth": 1, "name": "chase.branch",
     "start": 0.123, "duration_ms": 4.56, "attrs": {"steps": 7},
     "counters": {"chase.steps": 12},
     "trace_id": "9f1c2d3e4a5b6c7d", "task": "corpus-0001", "worker": 2}

``start`` is seconds since the process clock origin
(``time.perf_counter``), useful for ordering, not wall-clock time.
Root spans (``parent: null``) additionally carry ``"v": 2`` and an
``"epoch"`` wall-clock anchor (``time.time()`` at span entry), so a
trace correlates with heartbeat timestamps and Prometheus scrapes.
``counters`` (added for the profiling observatory, absent when empty)
holds the **counter deltas** observed between span entry and exit —
boundary snapshots of :func:`repro.obs.metrics.counters_snapshot` —
cumulative over the span's children; :mod:`repro.obs.profile`
subtracts child deltas to attribute *self* counter work per span.

``trace_id`` / ``task`` / ``worker`` (schema v2, absent when unset)
come from the ambient :class:`SpanContext`: the CLI installs one
``trace_id`` per traced invocation, the batch runner scopes ``task``
around each attempt (:func:`task_scope`), and each forked pool worker
stamps its ``worker`` id into the context the fork copied from the
parent.  Workers buffer finished span records and ship them back with
each result, and the parent stitches them into its own trace via
:func:`ingest_records` — remapping ids, rebasing the clock origin by
the handshake-measured offset, and reparenting the shipped spans
under the currently open span.  A parallel ``--trace`` file therefore
feeds ``xnf obs report/flame/diff`` identically to a serial run's.

Everything is a no-op while :mod:`repro.obs.metrics` is disabled:
:func:`span` then returns a shared null context manager and allocates
nothing.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, IO

from repro.obs import metrics as _metrics

import time

#: Trace record schema version, stamped as ``"v"`` on root spans.
#: v2 adds the ``epoch`` root anchor and the ``trace_id`` / ``task`` /
#: ``worker`` context fields; v1 records (no marker) still load.
TRACE_VERSION = 2


@dataclass(frozen=True)
class SpanContext:
    """The ambient identity stamped on every span (schema v2).

    A frozen value: a forked pool worker keeps the copy the fork gave
    it and stamps its own ``worker`` id with :func:`dataclasses.replace`.
    """

    trace_id: str | None = None
    task: str | None = None
    worker: int | None = None


#: The ambient context new spans are stamped with (one per process;
#: workers install their own copy after the fork).
_context: SpanContext | None = None


def set_context(context: SpanContext | None) -> None:
    """Install the ambient span context (``None`` clears it)."""
    global _context
    _context = context


def get_context() -> SpanContext | None:
    """The ambient span context, if one is installed."""
    return _context


def clear_context() -> None:
    set_context(None)


class _NullScope:
    """Shared do-nothing scope returned while tracing is off — the
    disabled path allocates nothing (mirrors ``_NullSpan``)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SCOPE = _NullScope()


class _TaskScope:
    """Context manager that stamps ``task`` onto the ambient context
    for the duration of the ``with`` body, restoring on exit."""

    __slots__ = ("task_id", "previous")

    def __init__(self, task_id: str) -> None:
        self.task_id = task_id

    def __enter__(self) -> None:
        self.previous = _context
        set_context(SpanContext(task=self.task_id)
                    if self.previous is None
                    else replace(self.previous, task=self.task_id))

    def __exit__(self, *exc_info) -> None:
        set_context(self.previous)


def task_scope(task_id: str) -> _TaskScope | _NullScope:
    """Stamp ``task`` onto every span opened inside the ``with`` body.

    Used by the batch runner around each task attempt, so both the
    serial and the pool path produce per-task attributable traces
    (``xnf obs report --by-task``).  Free while observability is off.
    """
    if not _metrics.enabled:
        return _NULL_SCOPE
    return _TaskScope(task_id)


class Span:
    """One timed, attributed region: a flat record whose parent is
    named by ``parent_id`` alone."""

    __slots__ = ("name", "attrs", "start", "end",
                 "span_id", "parent_id", "depth",
                 "counters_start", "counter_deltas",
                 "trace_id", "task", "worker", "epoch")

    def __init__(self, name: str, attrs: dict[str, Any],
                 span_id: int, parent_id: int | None,
                 depth: int) -> None:
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.start = 0.0
        self.end = 0.0
        self.counters_start: dict[str, int] = {}
        self.counter_deltas: dict[str, int] = {}
        # Schema-v2 context fields, stamped from the ambient
        # SpanContext at creation (None values are omitted from the
        # record); ``epoch`` is the wall-clock anchor of root spans.
        self.trace_id: str | None = None
        self.task: str | None = None
        self.worker: int | None = None
        self.epoch: float | None = None

    def set(self, key: str, value: Any) -> None:
        """Attach (or update) an attribute mid-span."""
        self.attrs[key] = value

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    def as_record(self) -> dict[str, Any]:
        """The JSON-lines record for this span."""
        record = {
            "id": self.span_id,
            "parent": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "start": round(self.start, 6),
            "duration_ms": round(self.duration * 1e3, 4),
            "attrs": self.attrs,
        }
        if self.counter_deltas:
            record["counters"] = dict(self.counter_deltas)
        if self.trace_id is not None:
            record["trace_id"] = self.trace_id
        if self.task is not None:
            record["task"] = self.task
        if self.worker is not None:
            record["worker"] = self.worker
        if self.parent_id is None:
            record["v"] = TRACE_VERSION
            record["epoch"] = round(self.epoch, 6) \
                if self.epoch is not None else None
        return record


class _NullSpan:
    """Shared do-nothing stand-in returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()
_ids = itertools.count(1)
_stack = threading.local()

#: Sinks: called with every finished Span.
_sinks: list[Callable[[Span], None]] = []


class _SpanContext:
    __slots__ = ("span",)

    def __init__(self, span_: Span) -> None:
        self.span = span_

    def __enter__(self) -> Span:
        self.span.counters_start = _metrics.counters_snapshot()
        if self.span.parent_id is None:
            # Root spans get the schema-v2 wall-clock anchor, so the
            # trace correlates with heartbeats and exporter scrapes.
            self.span.epoch = time.time()
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc_info: object) -> None:
        self.span.end = time.perf_counter()
        before = self.span.counters_start
        self.span.counter_deltas = {
            name: value - before.get(name, 0)
            for name, value in _metrics.counters_snapshot().items()
            if value != before.get(name, 0)}
        _stack.spans.pop()
        for sink in _sinks:
            sink(self.span)


def span(name: str, **attrs: Any) -> "_SpanContext | _NullSpan":
    """Open a nested span (``with span(...) as sp:``).

    Returns the shared null span while observability is disabled, so
    the call costs one flag check and no allocation.
    """
    if not _metrics.enabled:
        return _NULL_SPAN
    stack = getattr(_stack, "spans", None)
    if stack is None:
        stack = _stack.spans = []
    new = Span(name, attrs, next(_ids),
               stack[-1].span_id if stack else None, len(stack))
    context = _context
    if context is not None:
        new.trace_id = context.trace_id
        new.task = context.task
        new.worker = context.worker
    stack.append(new)
    return _SpanContext(new)


def current_span() -> Span | None:
    """The innermost open span on this thread, if any."""
    stack = getattr(_stack, "spans", None)
    return stack[-1] if stack else None


def add_sink(sink: Callable[[Span], None]) -> None:
    """Register a sink for finished spans."""
    _sinks.append(sink)


def remove_sink(sink: Callable[[Span], None]) -> None:
    while sink in _sinks:
        _sinks.remove(sink)


def clear_sinks() -> None:
    _sinks.clear()


def has_sinks() -> bool:
    """Whether any sink is registered — a forked pool worker's cue
    that its spans are worth shipping back."""
    return bool(_sinks)


def reinit_after_fork() -> None:
    """Fork hygiene for the tracing module (the tracing counterpart of
    :func:`repro.obs.metrics.reinit_after_fork`).

    A forked worker inherits the parent's open span stack (the batch
    supervisor forks from inside its root CLI span), its sinks (which
    wrap the parent's file descriptors), and its ambient context.  All
    three are wrong in the child: the stack is replaced, the sinks are
    dropped, and the context is cleared.  A worker that wants the
    parent's context (and to know whether the parent had sinks) reads
    them *before* calling this, then installs its own.
    """
    global _stack
    _stack = threading.local()
    clear_sinks()
    clear_context()


def ingest_records(records: list[dict[str, Any]], *,
                   offset: float = 0.0,
                   worker: int | None = None) -> int:
    """Stitch span records shipped from another process into this one.

    ``records`` is a list of :meth:`Span.as_record` dicts in
    finish order (children before parents) as a worker's buffering
    sink collected them.  Each record is rebuilt as a :class:`Span`
    with a fresh id from this process's counter (so ids never collide
    across workers), its ``start`` rebased by ``offset`` — the
    handshake-measured difference between this process's and the
    sender's ``perf_counter`` origins — and its ``worker`` field
    defaulted to ``worker`` when the sender did not stamp one.

    Shipment tops (records whose parent is not part of the shipment)
    are reparented under the currently open span, and every rebuilt
    span sits one level below its rebuilt parent (or that anchor), so
    a stitched batch trace is one coherent forest: every worker's
    ``runtime.task`` spans hang off the supervisor's root CLI span
    with consistent depths and monotone parent/child timings.  The
    rebuilt spans are emitted to the sinks in shipment order.

    Returns the number of spans ingested.  No-op while disabled.
    """
    if not records or not _metrics.enabled:
        return 0
    # The handshake offset overestimates by the hello's in-pipe
    # latency, which can push a shipment past spans that close later
    # here (e.g. the batch root).  Every shipped span provably
    # finished before its shipment arrived, so pull the whole
    # shipment back just enough that nothing ends in our future —
    # one uniform shift, intra-shipment relations untouched.
    max_end = max(float(record.get("start", 0.0))
                  + float(record.get("duration_ms", 0.0)) / 1e3
                  for record in records) + offset
    offset += min(0.0, time.perf_counter() - max_end)
    anchor = current_span()
    spans: dict[int, Span] = {}
    for record in records:
        rebuilt = Span(record["name"], dict(record.get("attrs") or {}),
                       next(_ids), None, 0)
        rebuilt.start = float(record.get("start", 0.0)) + offset
        rebuilt.end = rebuilt.start \
            + float(record.get("duration_ms", 0.0)) / 1e3
        rebuilt.counter_deltas = dict(record.get("counters") or {})
        rebuilt.trace_id = record.get("trace_id")
        rebuilt.task = record.get("task")
        rebuilt.worker = record.get("worker", worker)
        rebuilt.epoch = record.get("epoch")
        spans[record["id"]] = rebuilt
    # Backwards through finish order, every parent is placed before
    # its children, so each child reads its parent's final depth.
    for record in reversed(records):
        rebuilt = spans[record["id"]]
        parent = spans.get(record.get("parent"))
        if parent is None or parent is rebuilt:
            parent = anchor
        if parent is not None:
            rebuilt.parent_id = parent.span_id
            rebuilt.depth = parent.depth + 1
    for record in records:
        for sink in _sinks:
            sink(spans[record["id"]])
    return len(records)


class JsonLinesSink:
    """Writes one JSON object per finished span to a file object."""

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream

    def __call__(self, span_: Span) -> None:
        self.stream.write(json.dumps(span_.as_record(),
                                     sort_keys=True, default=str))
        self.stream.write("\n")


class InMemorySink:
    """Collects finished spans, in finish order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def __call__(self, span_: Span) -> None:
        self.spans.append(span_)
