"""The bodies of ``xnf bench {run,compare,report}`` and their renderers.

:mod:`repro.cli` declares their command line and imports this module
only when a ``bench`` command runs; ``python -m repro.bench ARGS`` is
an alias of ``xnf bench ARGS``.  ``run`` reads the global budget flags
as limits on each measured run.

Exit codes follow the repository-wide contract: 0 success (claims
consistent / no regression), 1 negative answer (a claim failed or a
counter regressed beyond tolerance), 2 usage or report-file error
(bad flags, unreadable file, schema-version mismatch: a
:class:`~repro.bench.schema.BenchReportError`, a message, not a
traceback), 4 resource limit reached (a budget flag tripped inside a
measured run).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench import compare as _compare
from repro.bench import runner as _runner
from repro.cli import _write


def cmd_run(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED", "random") == "random":
        print("note: PYTHONHASHSEED is not pinned — operation "
              "counters that depend on set iteration order will vary "
              "between processes; baselines are recorded with "
              "PYTHONHASHSEED=0 (see docs/BENCHMARKS.md)",
              file=sys.stderr)
    # Opened before the suite runs, so a report path that cannot be
    # written exits 2 at once; appending, so a run that fails leaves an
    # earlier report whole, and removed again if the run created it.
    fresh = not os.path.exists(args.out)
    with _write(args.out, "a") as stream:
        try:
            payload = _runner.run_suite(
                quick=args.quick, only=args.only or None,
                repeat=args.repeat, memory=not args.no_memory,
                progress=None if args.quiet else
                lambda line: print(line, file=sys.stderr),
                limits=args.limits)
        except BaseException:
            if fresh:
                os.remove(args.out)
            raise
        stream.truncate(0)
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")
    claims = _runner.claims_summary(payload)
    for name, claim in claims:
        print(_render_claim(name, claim))
    consistent = _runner.all_claims_pass(payload)
    suffix = ""
    if claims:
        suffix = ("; complexity claims "
                  + ("CONSISTENT" if consistent else "INCONSISTENT")
                  + " with the paper's bounds")
    print(f"wrote {args.out} "
          f"({len(payload['benchmarks'])} benchmark(s), "
          f"{payload['suite']} suite){suffix}")
    return 0 if consistent else 1


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = _compare.load_report(args.baseline)
    current = _compare.load_report(args.current)
    findings = _compare.compare_payloads(
        baseline, current, tolerance=args.tolerance / 100.0)
    print(_compare.render_findings(findings,
                                   tolerance=args.tolerance / 100.0),
          end="")
    return _compare.gate(findings)


def cmd_report(args: argparse.Namespace) -> int:
    print(render_report(_compare.load_report(args.file)), end="")
    return 0


def _render_claim(name: str, claim: dict) -> str:
    verdict = "PASS" if claim["passed"] else "FAIL"
    if claim["kind"] == "polynomial":
        fit = (f"fitted degree {claim['slope']:.2f} "
               f"(time {claim['time_slope']:.2f}) "
               f"<= {claim['max_slope']:g}")
    else:
        fit = (f"fitted base {claim['base']:.2f} "
               f"(time {claim['time_base']:.2f}) "
               f">= {claim['min_base']:g}")
    return (f"{verdict}  {claim['statement']:<12} {claim['bound']}: "
            f"{fit}  [{claim['counter']} of {name}]")


def render_report(payload: dict) -> str:
    """A human-readable rendering of a report file."""
    lines = [f"== repro.bench report "
             f"(schema v{payload['schema_version']}, "
             f"{payload['suite']} suite, "
             f"best of {payload['repeat']}) =="]
    groups: dict[str, list[tuple[str, dict]]] = {}
    for name, entry in sorted(payload["benchmarks"].items()):
        groups.setdefault(entry.get("group", ""), []).append(
            (name, entry))
    for group in sorted(groups):
        lines.append(f"-- {group} --")
        for name, entry in groups[group]:
            for point in entry["points"]:
                label = ("" if point.get("value") is None
                         else f"  {entry.get('param', 'n')}="
                              f"{point['value']}")
                time_s = point.get("time_s")
                time_text = (f"{time_s * 1e3:9.2f} ms"
                             if time_s is not None else "-")
                mem = point.get("mem_peak_kb")
                mem_text = (f"  peak={mem:8.1f} KiB"
                            if mem is not None else "")
                key_ops = sum(point["counters"].values())
                lines.append(
                    f"  {name:<34}{label:<14} time={time_text}"
                    f"{mem_text}  ops={key_ops}")
    claims = [(name, entry["claim"])
              for name, entry in sorted(payload["benchmarks"].items())
              if entry.get("claim")]
    if claims:
        lines.append("-- complexity claims --")
        for name, claim in claims:
            lines.append("  " + _render_claim(name, claim))
    return "\n".join(lines) + "\n"
