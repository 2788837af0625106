"""Observability for the implication/XNF/normalization pipeline.

A lightweight, zero-dependency, **off-by-default** instrumentation
layer.  :mod:`repro.obs.metrics` holds process-wide counters, gauges,
and histogram timers; :mod:`repro.obs.trace` provides nestable spans,
flat records handed to JSON-lines or in-memory sinks;
:mod:`repro.obs.render` formats metric snapshots as tables (the CLI's
``--stats`` output).

Enable via :func:`enable`, the CLI's ``--stats`` / ``--trace`` flags,
or the ``REPRO_OBS=1`` environment variable (honoured at import time,
so benchmarks and one-off scripts pick it up without code changes).

The full metric and span vocabulary is documented in
``docs/OBSERVABILITY.md``.

Usage::

    from repro import obs

    obs.enable()
    spec.normalize()
    print(obs.render.metrics_table(obs.snapshot()))
    obs.reset()

Hot-path contract: while disabled, instrumented code performs at most
one module-attribute read (``metrics.enabled``) per potential event —
no closures, no allocations, no clock reads.
"""

from __future__ import annotations

import os

from repro.obs import export, metrics, render, trace
from repro.obs.export import MetricsExporter, prometheus_text, start_exporter
from repro.obs.metrics import (
    counter_value,
    disable,
    enable,
    inc,
    is_enabled,
    observe,
    reset,
    set_gauge,
    snapshot,
    timer,
)
from repro.obs.trace import (
    InMemorySink,
    JsonLinesSink,
    Span,
    SpanContext,
    add_sink,
    clear_context,
    clear_sinks,
    current_span,
    get_context,
    remove_sink,
    set_context,
    span,
    task_scope,
)

__all__ = [
    "metrics", "trace", "render", "export", "profile", "ledger",
    "enable", "disable", "is_enabled", "reset",
    "inc", "set_gauge", "observe", "timer", "counter_value",
    "snapshot",
    "span", "current_span", "add_sink", "remove_sink", "clear_sinks",
    "Span", "JsonLinesSink", "InMemorySink",
    "SpanContext", "set_context", "get_context", "clear_context",
    "task_scope",
    "MetricsExporter", "prometheus_text", "start_exporter",
]


def __getattr__(name: str):
    # ``obs.profile`` (and its CLI) import the benchmark comparator,
    # which itself imports ``repro.obs`` — loading them lazily keeps
    # the package import acyclic for every consumer that only wants
    # metrics/spans.
    if name in ("profile", "cli", "ledger"):
        import importlib
        return importlib.import_module(f"repro.obs.{name}")
    raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")

if os.environ.get("REPRO_OBS", "") not in ("", "0"):  # pragma: no cover
    enable()
