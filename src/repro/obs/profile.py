"""Folding JSON-lines span traces into deterministic profiles.

The input is a ``--trace FILE`` record file (:mod:`repro.records`): one
:class:`repro.obs.trace.JsonLinesSink` object per finished span.  This
module rebuilds the span forest and folds it three ways:

* **by span name** — call counts, total and *self* wall time (total
  minus the time covered by child spans), and self-attributed counter
  deltas (the span's boundary-snapshot delta minus its children's);
* **by stack** — ``root;child;leaf`` frames with self time, the
  folded-stacks format flamegraph tools consume (``xnf obs flame``);
* **critical path** — the heaviest root-to-leaf chain, each hop with
  its share of the root's wall time.

Everything downstream of the trace file is **deterministic**: node
ordering comes from recorded start offsets and span ids, aggregation
rows are key-sorted, and no wall clock is consulted — the same trace
bytes always produce the same report bytes, independent of
``PYTHONHASHSEED``.  (Two *runs* of a workload of course produce
different timings; determinism here means the profiler adds no noise
of its own, so profiles are diffable artifacts.)

:func:`diff` compares two traces' profiles under the benchmark
comparator's conventions
(:mod:`repro.bench.compare`): counter movement beyond the tolerance is
a gating *regression*, wall-time movement is *advisory*, and the exit
code contract is 0 pass / 1 regression / 2 unreadable input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

from repro import records
from repro.bench.compare import Finding, gate, render_findings
from repro.errors import UsageError


class TraceError(UsageError):
    """A trace file is unreadable or malformed (exit code 2)."""


# -- loading -----------------------------------------------------------


def load_trace(path: str | Path) -> list[dict]:
    """Parse a JSON-lines span trace; raises :class:`TraceError`."""
    return _parse_trace(*records.read_text(path, error=TraceError))


#: The span fields the profile computes with, as
#: :func:`repro.records.check` reads them: ``(key, types, required)``.
_SPAN_FIELDS = (("id", int, True), ("name", str, True),
                ("duration_ms", records.NUMBER, True),
                ("start", records.NUMBER, False),
                ("parent", (int, type(None)), False),
                ("counters", (dict, type(None)), False),
                ("attrs", dict, False),
                ("worker", (int, type(None)), False),
                ("epoch", (*records.NUMBER, type(None)), False))


def _check_counters(counters: dict, where: str) -> dict:
    """``counters``, once every value is an integer."""
    return records.check(counters, [(name, int, True) for name in counters],
                         where=f"{where}: counters", error=TraceError)


def _parse_trace(source: str, text: str) -> list[dict]:
    """The span records of a trace; a torn last record (a run killed
    mid-write) is skipped with a warning (:func:`repro.records.read`)."""
    found = records.read(source, error=TraceError, text=text)
    if found.torn:
        records.warn_torn(found.source, "obs.trace.torn")
    spans: list[dict] = []
    for lineno, record in found.lines:
        where = f"{source}:{lineno}"
        records.check(record, _SPAN_FIELDS, where=where, error=TraceError)
        records.check_time(record, "epoch", where=where, error=TraceError)
        _check_counters(record.get("counters") or {}, where)
        spans.append(record)
    if not spans:
        raise TraceError(f"{source}: no span records "
                         f"(was the run traced with --trace?)")
    _check_acyclic(source, found.lines)
    return spans


def _check_acyclic(source: str, lines: list[tuple[int, dict]]) -> None:
    """Raise :class:`TraceError` at the first span whose ``parent``
    chain loops (a span that is its own parent is a root, as in
    :func:`build_forest`); a loop of any length has no root to fold
    from."""
    parents = {record["id"]: record.get("parent") for _, record in lines}
    rooted: set[int] = set()
    for lineno, record in lines:
        chain: dict[int, None] = {}     # insertion-ordered
        span = record["id"]
        while span in parents and span not in rooted:
            if span in chain:
                loop = list(chain)
                loop = loop[loop.index(span):] + [span]
                raise TraceError(
                    f"{source}:{lineno}: span {record['id']}: 'parent' "
                    f"links form a cycle ({' -> '.join(map(str, loop))})")
            chain[span] = None
            if parents[span] == span:
                break
            span = parents[span]
        rooted.update(chain)


# -- the span forest ---------------------------------------------------


@dataclass
class SpanNode:
    """One span rebuilt from its trace record, with tree links."""

    record: dict
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def span_id(self) -> int:
        return self.record["id"]

    @property
    def name(self) -> str:
        return str(self.record["name"])

    @property
    def duration_ms(self) -> float:
        return float(self.record["duration_ms"])

    @property
    def start(self) -> float:
        return float(self.record.get("start", 0.0))

    @property
    def counters(self) -> dict[str, int]:
        """Cumulative counter deltas over this span (children included)."""
        return self.record.get("counters", {}) or {}

    @property
    def child_ms(self) -> float:
        return sum(child.duration_ms for child in self.children)

    @property
    def self_ms(self) -> float:
        return max(0.0, self.duration_ms - self.child_ms)

    def self_counters(self) -> dict[str, int]:
        """Counter deltas minus the children's share, non-zero only."""
        remaining = dict(self.counters)
        for child in self.children:
            for name, value in child.counters.items():
                remaining[name] = remaining.get(name, 0) - value
        return {name: value
                for name, value in remaining.items() if value != 0}


def build_forest(records: list[dict]) -> list[SpanNode]:
    """Rebuild the span forest; orphans (truncated traces) become
    roots.  Children are ordered by recorded start offset, then id —
    never by file or dict order."""
    nodes = {record["id"]: SpanNode(record) for record in records}
    roots: list[SpanNode] = []
    for record in records:
        node = nodes[record["id"]]
        parent = nodes.get(record.get("parent"))
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start, n.span_id))
    roots.sort(key=lambda n: (n.start, n.span_id))
    return roots


def _walk(node: SpanNode, stack: tuple[str, ...],
          ) -> Iterator[tuple[SpanNode, tuple[str, ...]]]:
    frame = stack + (node.name,)
    yield node, frame
    for child in node.children:
        yield from _walk(child, frame)


# -- aggregation -------------------------------------------------------


@dataclass
class NameStat:
    """Aggregate of every span sharing one name."""

    name: str
    calls: int = 0
    total_ms: float = 0.0
    self_ms: float = 0.0
    min_ms: float = float("inf")
    max_ms: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    def add(self, node: SpanNode) -> None:
        self.calls += 1
        self.total_ms += node.duration_ms
        self.self_ms += node.self_ms
        self.min_ms = min(self.min_ms, node.duration_ms)
        self.max_ms = max(self.max_ms, node.duration_ms)
        for counter, value in node.self_counters().items():
            self.counters[counter] = self.counters.get(counter, 0) + value


@dataclass
class Profile:
    """A fully folded trace: forest + per-name and per-stack rollups."""

    roots: list[SpanNode]
    spans: int
    by_name: dict[str, NameStat]
    by_stack: dict[tuple[str, ...], float]

    @property
    def total_ms(self) -> float:
        """Wall time of the root spans (the trace's outermost work)."""
        return sum(root.duration_ms for root in self.roots)

    @property
    def attributed_ms(self) -> float:
        """Root wall time covered by named child spans."""
        return sum(root.child_ms for root in self.roots)

    @property
    def coverage(self) -> float:
        """Fraction of root wall time attributed to child spans —
        the acceptance metric for span instrumentation density."""
        total = self.total_ms
        return self.attributed_ms / total if total > 0 else 1.0

    def total_counters(self) -> dict[str, int]:
        """Counter deltas across the whole trace (sum of self deltas)."""
        totals: dict[str, int] = {}
        for stat in self.by_name.values():
            for counter, value in stat.counters.items():
                totals[counter] = totals.get(counter, 0) + value
        return totals


def build_profile(records: list[dict]) -> Profile:
    roots = build_forest(records)
    by_name: dict[str, NameStat] = {}
    by_stack: dict[tuple[str, ...], float] = {}
    spans = 0
    for root in roots:
        for node, stack in _walk(root, ()):
            spans += 1
            stat = by_name.get(node.name)
            if stat is None:
                stat = by_name[node.name] = NameStat(node.name)
            stat.add(node)
            by_stack[stack] = by_stack.get(stack, 0.0) + node.self_ms
    return Profile(roots=roots, spans=spans, by_name=by_name,
                   by_stack=by_stack)


def load_profile(path: str | Path) -> Profile:
    return build_profile(load_trace(path))


# -- per-task rollup (stitched batch traces) ---------------------------


TASK_SPAN = "runtime.task"


@dataclass
class TaskStat:
    """Aggregate of every task span attributed to one manifest task."""

    task: str
    runs: int = 0
    total_ms: float = 0.0
    workers: set = field(default_factory=set)


def fold_by_task(profile: Profile) -> list[TaskStat]:
    """Group ``runtime.task`` spans by their manifest task id, the
    span's ``task`` attribute.  Ordered by total wall time (desc), then
    task id — deterministic per trace.
    """
    stats: dict[str, TaskStat] = {}
    for root in profile.roots:
        for node, _stack in _walk(root, ()):
            if node.name != TASK_SPAN:
                continue
            task = str(node.record.get("attrs", {}).get("task")
                       or "<unattributed>")
            stat = stats.setdefault(task, TaskStat(task))
            stat.runs += 1
            stat.total_ms += node.duration_ms
            worker = node.record.get("worker")
            if worker is not None:
                stat.workers.add(worker)
    return sorted(stats.values(), key=lambda s: (-s.total_ms, s.task))


def task_attribution(profile: Profile) -> float:
    """Fraction of root wall time covered by task spans — the
    acceptance metric for stitched batch traces."""
    total = profile.total_ms
    if total <= 0:
        return 1.0
    return sum(stat.total_ms for stat in fold_by_task(profile)) / total


def render_by_task(profile: Profile) -> str:
    """The ``xnf obs report --by-task`` section: per-task wall time,
    attempt counts, and the workers each task ran on."""
    stats = fold_by_task(profile)
    total = profile.total_ms
    attributed = sum(stat.total_ms for stat in stats)
    lines = [f"-- by task: {len(stats)} task(s), "
             f"{attributed:.2f} ms attributed "
             f"({_pct(attributed, total).strip()} of root wall time) --"]
    if not stats:
        lines.append(f"  no {TASK_SPAN!r} spans in this trace "
                     f"(was it a batch run?)")
        return "\n".join(lines) + "\n"
    width = max(len(stat.task) for stat in stats)
    lines.append(f"  {'task'.ljust(width)}  {'runs':>5}  "
                 f"{'total ms':>10}  {'%total':>6}  workers")
    for stat in stats:
        workers = ",".join(str(worker)
                           for worker in sorted(stat.workers)) or "-"
        lines.append(f"  {stat.task.ljust(width)}  {stat.runs:>5}  "
                     f"{stat.total_ms:>10.2f}  "
                     f"{_pct(stat.total_ms, total)}  {workers}")
    return "\n".join(lines) + "\n"


# -- critical path -----------------------------------------------------


def critical_path(profile: Profile) -> list[SpanNode]:
    """The heaviest root-to-leaf chain (ties broken by start, id)."""
    if not profile.roots:
        return []
    heaviest = max(profile.roots,
                   key=lambda n: (n.duration_ms, -n.start, -n.span_id))
    path = [heaviest]
    while path[-1].children:
        path.append(max(path[-1].children,
                        key=lambda n: (n.duration_ms, -n.start,
                                       -n.span_id)))
    return path


# -- rendering ---------------------------------------------------------


def _pct(part: float, whole: float) -> str:
    return f"{part / whole:6.1%}" if whole > 0 else "   n/a"


def render_report(profile: Profile, *, counters: bool = True,
                  by_task: bool = False) -> str:
    """The ``xnf obs report`` text: totals, per-name table, critical
    path, self-attributed counter deltas.  Deterministic per trace."""
    total = profile.total_ms
    lines = [f"== trace profile: {profile.spans} span(s), "
             f"{len(profile.roots)} root(s), total {total:.2f} ms, "
             f"child coverage {profile.coverage:.1%} =="]
    epoch = next((root.record.get("epoch") for root in profile.roots
                  if root.record.get("epoch") is not None), None)
    if epoch is not None:
        stamp = datetime.fromtimestamp(float(epoch), tz=timezone.utc)
        lines.append(f"   anchored {stamp.isoformat()} "
                     f"(epoch {float(epoch):.6f})")

    if by_task:
        lines.append(render_by_task(profile).rstrip("\n"))

    lines.append("-- by span name --")
    width = max(len(name) for name in profile.by_name)
    header = (f"  {'span'.ljust(width)}  {'calls':>6}  "
              f"{'total ms':>10}  {'self ms':>10}  {'%total':>6}")
    lines.append(header)
    ordered = sorted(profile.by_name.values(),
                     key=lambda s: (-s.total_ms, s.name))
    for stat in ordered:
        lines.append(f"  {stat.name.ljust(width)}  {stat.calls:>6}  "
                     f"{stat.total_ms:>10.2f}  {stat.self_ms:>10.2f}  "
                     f"{_pct(stat.total_ms, total)}")

    path = critical_path(profile)
    if path:
        lines.append("-- critical path --")
        root_ms = path[0].duration_ms
        for depth, node in enumerate(path):
            lines.append(f"  {'  ' * depth}{node.name}  "
                         f"{node.duration_ms:.2f} ms  "
                         f"{_pct(node.duration_ms, root_ms).strip()}")

    if counters:
        rows = [(stat.name, counter, value)
                for stat in sorted(profile.by_name.values(),
                                   key=lambda s: s.name)
                for counter, value in sorted(stat.counters.items())]
        if rows:
            lines.append("-- counter deltas (self-attributed) --")
            for span_name, counter, value in rows:
                lines.append(f"  {span_name.ljust(width)}  "
                             f"{counter} {value:+d}")
    return "\n".join(lines) + "\n"


def folded_stacks(profile: Profile) -> str:
    """Folded-stacks output (``frame;frame;frame value``) for
    flamegraph tools; the value is self time in integer microseconds.
    Lines are lexicographically sorted — byte-identical per trace."""
    lines = []
    for stack, self_ms in profile.by_stack.items():
        value = round(self_ms * 1000.0)
        lines.append(f"{';'.join(stack)} {value}")
    return "\n".join(sorted(lines)) + "\n" if lines else ""


# -- diffing (bench-comparator conventions) ----------------------------


def load_comparable(path: str | Path) -> dict:
    """A trace's ``{"counters": ..., "times_ms": ...}`` for diffing:
    counters gate, times are advisory — the same split the benchmark
    comparator uses."""
    profile = load_profile(path)
    return {"counters": profile.total_counters(),
            "times_ms": {name: stat.total_ms
                         for name, stat in profile.by_name.items()}}


def diff_comparables(base: dict, curr: dict, *,
                     tolerance: float = 0.05) -> list[Finding]:
    """Counter-gated findings between two comparables (see module doc)."""
    findings: list[Finding] = []
    base_counters, curr_counters = base["counters"], curr["counters"]
    for counter in sorted(set(base_counters) | set(curr_counters)):
        before = base_counters.get(counter, 0)
        after = curr_counters.get(counter, 0)
        if after > before and after - before > before * tolerance:
            grown = (f"{(after - before) / before:.1%}"
                     if before else "new")
            findings.append(Finding(
                "regression", counter,
                f"counter grew {before} -> {after} (+{grown}, "
                f"tolerance {tolerance:.0%})"))
        elif before > after and before - after > after * tolerance:
            findings.append(Finding(
                "note", counter,
                f"counter improved {before} -> {after}"))
    base_times, curr_times = base["times_ms"], curr["times_ms"]
    for name in sorted(set(base_times) & set(curr_times)):
        before, after = base_times[name], curr_times[name]
        if before > 0 and after > before * (1 + tolerance):
            findings.append(Finding(
                "advisory", name,
                f"wall time {before:.2f} -> {after:.2f} ms "
                f"(+{(after - before) / before:.1%}; advisory only, "
                f"never gated)"))
    return findings


def diff(base_path: str | Path, curr_path: str | Path, *,
         tolerance: float = 0.05) -> tuple[str, int]:
    """Compare two trace files; returns (report text, exit code) under
    the bench comparator's 0-pass / 1-regression contract.  Unreadable
    or malformed input raises :class:`TraceError` (exit code 2)."""
    findings = diff_comparables(load_comparable(base_path),
                                load_comparable(curr_path),
                                tolerance=tolerance)
    return render_findings(findings, tolerance=tolerance), gate(findings)
