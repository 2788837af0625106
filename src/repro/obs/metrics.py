"""Thread-safe counters, gauges, and histogram timers.

A process-wide registry of named metrics, off by default.  The design
goal is *zero cost when disabled*: every recording function first reads
the module-level :data:`enabled` flag and returns immediately when it
is ``False``, and the instrumentation sites in the pipeline guard even
that call behind ``if _obs.enabled:`` — a single module-attribute load
— so the hot paths allocate nothing (no closures, no context managers)
while observability is off.

Metric kinds:

* **counter** — a monotonically increasing integer
  (:func:`inc`), e.g. ``implication.cache.hit``;
* **gauge** — a point-in-time value (:func:`set_gauge`), e.g. the
  current chase frontier size;
* **histogram** — a stream of plain-value observations summarized as
  count/total/min/max/mean plus p50/p95/p99 percentiles
  (:func:`observe`), e.g. tableau sizes;
* **timer** — a histogram of wall-clock durations in seconds, fed by
  the :func:`timer` context manager and kept in its own snapshot
  section so renderers can scale to milliseconds.

:func:`snapshot` returns a plain-``dict`` copy (safe to mutate, JSON
serializable); :func:`reset` clears every metric but keeps the enabled
state.  The snapshot is schema-versioned (``schema`` /
``schema_version`` envelope keys) and every histogram/timer summary
carries an explicit ``unit`` field (``"seconds"`` for timers, ``"1"``
— dimensionless — for plain histograms), so downstream consumers
(:mod:`repro.obs.render`, :mod:`repro.obs.export`) never have to guess
seconds-vs-milliseconds.  The metric name vocabulary is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import math
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Iterator

#: The process-wide on/off switch.  Read directly (``metrics.enabled``)
#: by instrumentation sites; flip only via :func:`enable` /
#: :func:`disable` so the toggle stays in one place.
enabled: bool = False

#: The ``schema`` discriminator stamped on every snapshot.
SNAPSHOT_SCHEMA = "repro.obs.snapshot"

#: Bumped with PR 6 (v2 adds the envelope itself and the per-summary
#: ``unit`` field).  Consumers treat a missing envelope as v1.
SNAPSHOT_VERSION = 2

#: The ``unit`` stamped on timer summaries (wall-clock seconds).
UNIT_SECONDS = "seconds"

#: The ``unit`` stamped on plain-value histogram summaries
#: (dimensionless, OpenMetrics-style "1").
UNIT_NONE = "1"

_lock = threading.Lock()
_counters: dict[str, int] = {}
_gauges: dict[str, float] = {}
_histograms: dict[str, "_Histogram"] = {}
_timers: dict[str, "_Histogram"] = {}


#: Per-histogram sample retention cap.  When a histogram exceeds it,
#: the sample is decimated (every second value kept) and the keep
#: stride doubles — deterministic, bounded, and still uniform over the
#: observation sequence, unlike a random reservoir.
_SAMPLE_CAP = 8192


def _percentile(ordered: list[float], quantile: float) -> float:
    """Nearest-rank percentile of an already-sorted, non-empty list."""
    rank = max(0, min(len(ordered) - 1,
                      int(math.ceil(quantile * len(ordered))) - 1))
    return ordered[rank]


class _Histogram:
    """Streaming summary of a series of observations.

    Exact ``count``/``total``/``min``/``max``/``mean``; the
    ``p50``/``p95``/``p99`` percentiles are computed from a retained
    sample that is exact up to :data:`_SAMPLE_CAP` observations and a
    deterministic every-``stride``-th subsample beyond it.  The sample
    is packed C doubles, 8 bytes each instead of a float object plus
    its list slot (~32), since a busy server fills every histogram to
    the cap; integer observations so report float percentiles.
    """

    __slots__ = ("count", "total", "min", "max", "samples", "stride")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.samples = array("d")
        self.stride = 1

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if (self.count - 1) % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) > _SAMPLE_CAP:
                del self.samples[1::2]
                self.stride *= 2

    def as_dict(self, unit: str = UNIT_NONE) -> dict[str, float | str]:
        mean = self.total / self.count if self.count else 0.0
        ordered = sorted(self.samples)
        return {"count": self.count, "total": self.total,
                "min": self.min if self.count else 0.0,
                "max": self.max if self.count else 0.0,
                "mean": mean,
                "p50": _percentile(ordered, 0.50) if ordered else 0.0,
                "p95": _percentile(ordered, 0.95) if ordered else 0.0,
                "p99": _percentile(ordered, 0.99) if ordered else 0.0,
                "unit": unit}


def enable() -> None:
    """Turn metric recording (and span tracing) on, process-wide."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn metric recording off.  Recorded values are kept until
    :func:`reset`."""
    global enabled
    enabled = False


def is_enabled() -> bool:
    return enabled


def inc(name: str, value: int = 1) -> None:
    """Add ``value`` to the counter ``name`` (no-op while disabled)."""
    if not enabled:
        return
    with _lock:
        _counters[name] = _counters.get(name, 0) + value


def set_gauge(name: str, value: float) -> None:
    """Set the gauge ``name`` (no-op while disabled)."""
    if not enabled:
        return
    with _lock:
        _gauges[name] = value


def observe(name: str, value: float) -> None:
    """Record one observation into the histogram ``name`` (no-op while
    disabled).  Histograms hold plain values (path counts, tableau
    sizes, ...); wall-clock durations go through :func:`timer`."""
    if not enabled:
        return
    with _lock:
        histogram = _histograms.get(name)
        if histogram is None:
            histogram = _histograms[name] = _Histogram()
        histogram.observe(value)


@contextmanager
def timer(name: str) -> Iterator[None]:
    """Time the ``with`` body into the timer histogram ``name``
    (seconds).

    Cheap when disabled (one flag check, no clock read), but hot loops
    should still guard the call site with ``if metrics.enabled:``.
    """
    if not enabled:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        if enabled:
            with _lock:
                histogram = _timers.get(name)
                if histogram is None:
                    histogram = _timers[name] = _Histogram()
                histogram.observe(elapsed)


def observe_seconds(name: str, seconds: float) -> None:
    """Record a pre-measured duration into the timer histogram ``name``.

    For callers that already hold both clock endpoints — e.g. the
    ``xnf serve`` request-accounting seam, which times a request across
    admission and handling and records once — where a :func:`timer`
    context does not fit.  No-op while disabled."""
    if not enabled:
        return
    with _lock:
        histogram = _timers.get(name)
        if histogram is None:
            histogram = _timers[name] = _Histogram()
        histogram.observe(seconds)


def counter_value(name: str) -> int:
    """The current value of a counter (0 if never incremented)."""
    with _lock:
        return _counters.get(name, 0)


def counters_snapshot() -> dict[str, int]:
    """A copy of the counters section only — cheap enough for span
    boundary snapshots (:mod:`repro.obs.trace`)."""
    with _lock:
        return dict(_counters)


def snapshot() -> dict[str, dict]:
    """A JSON-serializable copy of every recorded metric.

    Schema v2: the envelope names itself (``schema`` /
    ``schema_version``) and every histogram/timer summary carries a
    ``unit`` field (timers: ``"seconds"``; histograms: ``"1"``).
    """
    with _lock:
        return {
            "schema": SNAPSHOT_SCHEMA,
            "schema_version": SNAPSHOT_VERSION,
            "counters": dict(_counters),
            "gauges": dict(_gauges),
            "histograms": {name: h.as_dict(UNIT_NONE)
                           for name, h in _histograms.items()},
            "timers": {name: h.as_dict(UNIT_SECONDS)
                       for name, h in _timers.items()},
        }


def reset() -> None:
    """Clear all metrics (the enabled flag is left as-is)."""
    with _lock:
        _counters.clear()
        _gauges.clear()
        _histograms.clear()
        _timers.clear()


# -- process-pool support (repro.runtime.pool) -------------------------
#
# A forked batch worker inherits this module's state wholesale: the
# registry dicts, the enabled flag, and — dangerously — the lock, which
# may have been *held* by another parent thread (the metrics exporter
# renders a snapshot under it) at the instant of the fork, leaving the
# child's copy locked forever.  Workers therefore call
# :func:`reinit_after_fork` first thing, then record into their own
# registry; the parent folds the results back with :func:`merge_raw`.

def reinit_after_fork() -> None:
    """Make this module safe to use in a freshly forked child.

    Replaces the (possibly stuck) lock and clears the inherited
    registry so the child's metrics count only its own work.  The
    enabled flag is inherited unchanged — if the parent was recording,
    the child records too.
    """
    global _lock
    _lock = threading.Lock()
    reset()


def dump_raw() -> dict:
    """The full recording state in mergeable (not summarized) form.

    Unlike :func:`snapshot`, histograms and timers are dumped with
    their retained samples and stride, so another process can merge
    them with :func:`merge_raw` and still compute percentiles over the
    union.  Plain data only — safe to pickle across a process
    boundary.
    """
    def hist_state(histogram: _Histogram) -> dict:
        return {"count": histogram.count, "total": histogram.total,
                "min": histogram.min, "max": histogram.max,
                "samples": list(histogram.samples),
                "stride": histogram.stride}

    with _lock:
        return {"counters": dict(_counters), "gauges": dict(_gauges),
                "histograms": {name: hist_state(h)
                               for name, h in _histograms.items()},
                "timers": {name: hist_state(h)
                           for name, h in _timers.items()}}


def _merge_histogram(histogram: _Histogram, state: dict) -> None:
    histogram.count += state["count"]
    histogram.total += state["total"]
    histogram.min = min(histogram.min, state["min"])
    histogram.max = max(histogram.max, state["max"])
    histogram.samples.extend(state["samples"])
    histogram.stride = max(histogram.stride, state["stride"])
    while len(histogram.samples) > _SAMPLE_CAP:
        del histogram.samples[1::2]
        histogram.stride *= 2


def merge_raw(state: dict) -> None:
    """Fold a :func:`dump_raw` dump from another process into this
    one's registry.

    Counters and histogram counts/totals add exactly; percentiles are
    computed over the concatenated retained samples (an approximation
    with the same guarantees as the per-process decimation); gauges
    take the incoming value (point-in-time semantics — last write
    wins).  No-op while disabled.
    """
    if not enabled:
        return
    with _lock:
        for name, value in state.get("counters", {}).items():
            _counters[name] = _counters.get(name, 0) + value
        for name, value in state.get("gauges", {}).items():
            _gauges[name] = value
        for registry, incoming in (
                (_histograms, state.get("histograms", {})),
                (_timers, state.get("timers", {}))):
            for name, hist_state in incoming.items():
                histogram = registry.get(name)
                if histogram is None:
                    histogram = registry[name] = _Histogram()
                _merge_histogram(histogram, hist_state)
