"""The versioned on-disk format of benchmark reports.

``BENCH_core.json`` (and every file the comparator accepts) is a
single JSON object::

    {
      "schema": "repro.bench",
      "schema_version": 1,
      "suite": "quick" | "full",
      "repeat": 3,
      "benchmarks": {
        "<name>": {
          "group": "tuples",
          "param": "courses",
          "points": [
            {"value": 5,
             "time_s": 0.0042,          # best-of-<repeat>, advisory
             "mem_peak_kb": 312.5,      # tracemalloc peak, advisory
             "counters": {"closure.iterations": 118, ...}},  # gating
            ...
          ],
          "claim": null | {
            "statement": "Theorem 3", "bound": "...",
            "counter": "closure.iterations",
            "kind": "polynomial" | "exponential",
            "slope"/"base": 1.42, "time_slope"/"time_base": 1.38,
            "max_slope"/"min_base": 3.0, "passed": true
          }
        }
      }
    }

Only ``counters`` (and claim verdicts) gate comparisons — they are
deterministic operation counts, reproducible across machines.  Wall
time and peak memory are recorded for trend reading but never fail a
gate (``docs/BENCHMARKS.md`` has the rationale).

The version number covers the whole shape: any structural change bumps
:data:`SCHEMA_VERSION`, and the comparator refuses files whose version
it does not know rather than guessing.  Versions listed in
:data:`COMPAT_VERSIONS` are read-compatible: v2 (the PR-6 obs-snapshot
vintage — per-summary ``unit`` fields upstream of the point counters)
changed nothing in the report shape itself, so v1 baselines still
validate and gate against v2 reports.  :func:`validate` checks every
field the comparator and ``report`` compute with through
:func:`repro.records.check`, so a mistyped report is a
:class:`BenchReportError` (exit 2) naming the benchmark, the point and
the field, never a traceback.
"""

from __future__ import annotations

from typing import Any

from repro.errors import UsageError
from repro.records import NUMBER, check

SCHEMA_NAME = "repro.bench"
SCHEMA_VERSION = 2

#: Versions :func:`validate` accepts.  Reports are only ever *written*
#: at :data:`SCHEMA_VERSION`; older listed versions remain readable so
#: committed baselines survive compatible bumps.
COMPAT_VERSIONS = frozenset({1, 2})


#: The fields the comparator and ``report`` read, as
#: :func:`repro.records.check` reads them: ``(key, types, required)``.
_REPORT_FIELDS = (("suite", str, True), ("repeat", int, True),
                  ("benchmarks", dict, True))
_BENCHMARK_FIELDS = (("points", list, True),
                     ("claim", (dict, type(None)), False))
_POINT_FIELDS = (("counters", dict, True),
                 ("time_s", (*NUMBER, type(None)), False),
                 ("mem_peak_kb", (*NUMBER, type(None)), False))
_CLAIM_FIELDS = (("statement", str, True), ("bound", str, True),
                 ("passed", bool, True), ("counter", str, True),
                 ("kind", str, True))
#: A claim's fit by its ``kind``: the fitted exponent, the exponent
#: fitted to wall time, and the bound the first is held to.
_FIT_FIELDS = {"polynomial": ("slope", "time_slope", "max_slope"),
               "exponential": ("base", "time_base", "min_base")}


class BenchReportError(UsageError):
    """A benchmark report file is malformed, unreadable, or from an
    incompatible schema version (exit code 2)."""


def envelope(*, suite: str, repeat: int) -> dict[str, Any]:
    """A fresh, empty report payload."""
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "repeat": repeat,
        "benchmarks": {},
    }


def validate(payload: Any, *, source: str = "report") -> dict[str, Any]:
    """Check ``payload`` against the current schema; returns it.

    Raises :class:`BenchReportError` with an actionable message on any
    mismatch — exit code 2, never a traceback.
    """
    check(payload, (), where=source, error=BenchReportError)
    if payload.get("schema") != SCHEMA_NAME:
        raise BenchReportError(
            f"{source}: not a {SCHEMA_NAME} report "
            f"(schema={payload.get('schema')!r})")
    version = payload.get("schema_version")
    if version not in COMPAT_VERSIONS:
        raise BenchReportError(
            f"{source}: schema version {version!r} is not one this "
            f"tool reads ({sorted(COMPAT_VERSIONS)}); regenerate the "
            f"file with `python -m repro.bench run` from the same "
            f"checkout")
    check(payload, _REPORT_FIELDS, where=source, error=BenchReportError)
    for name, entry in payload["benchmarks"].items():
        where = f"{source}: benchmark {name!r}"
        check(entry, _BENCHMARK_FIELDS, where=where, error=BenchReportError)
        claim = entry.get("claim")
        if claim is not None:
            at = f"{where} claim"
            check(claim, _CLAIM_FIELDS, where=at, error=BenchReportError)
            fit = _FIT_FIELDS.get(claim["kind"])
            if fit is None:
                raise BenchReportError(
                    f"{at}: 'kind' must be one of {sorted(_FIT_FIELDS)}, "
                    f"got {claim['kind']!r}")
            check(claim, [(key, NUMBER, True) for key in fit], where=at,
                  error=BenchReportError)
        for number, point in enumerate(entry["points"]):
            at = f"{where} point {number}"
            check(point, _POINT_FIELDS, where=at, error=BenchReportError)
            check(point["counters"], [(counter, NUMBER, True)
                                      for counter in point["counters"]],
                  where=f"{at} counters", error=BenchReportError)
    return payload
