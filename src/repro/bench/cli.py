"""The benchmark-observatory command line.

Reachable two ways (identical behaviour)::

    python -m repro.bench  run      [--quick] [--out FILE] [--only P]...
    python -m repro.bench  compare  BASELINE CURRENT [--tolerance PCT]
    python -m repro.bench  report   [FILE]

    xnf bench run / compare / report ...        # the main CLI

Exit codes follow the repository-wide contract: 0 success (claims
consistent / no regression), 1 negative answer (a claim failed or a
counter regressed beyond tolerance), 2 usage or report-file error
(bad flags, unreadable file, schema-version mismatch — a message, not
a traceback), 4 resource limit reached (a ``run`` limit such as
``--timeout`` or ``--max-steps`` tripped inside a measured workload).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench import compare as _compare
from repro.bench import runner as _runner
from repro.bench.schema import BenchReportError
from repro.errors import ResourceExhausted

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 4

#: The default report path at the repo root: the persistent bench
#: trajectory (committed baselines live under ``benchmarks/baselines``).
DEFAULT_OUT = "BENCH_core.json"


def cmd_run(args: argparse.Namespace) -> int:
    if os.environ.get("PYTHONHASHSEED", "random") == "random":
        print("note: PYTHONHASHSEED is not pinned — operation "
              "counters that depend on set iteration order will vary "
              "between processes; baselines are recorded with "
              "PYTHONHASHSEED=0 (see docs/BENCHMARKS.md)",
              file=sys.stderr)
    limits = {"deadline": getattr(args, "timeout", None),
              "max_steps": getattr(args, "max_steps", None),
              "max_branches": getattr(args, "max_branches", None),
              "max_nodes": getattr(args, "max_nodes", None)}
    try:
        payload = _runner.run_suite(
            quick=args.quick, only=args.only or None, repeat=args.repeat,
            memory=not args.no_memory,
            progress=None if args.quiet else
            lambda line: print(line, file=sys.stderr),
            limits=limits)
    except ResourceExhausted as error:
        print(f"error: resource limit reached: {error}", file=sys.stderr)
        return EXIT_RESOURCE
    with open(args.out, "w") as stream:
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
    return EXIT_OK if consistent else EXIT_NEGATIVE


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        baseline = _compare.load_report(args.baseline)
        current = _compare.load_report(args.current)
        findings = _compare.compare_payloads(
            baseline, current, tolerance=args.tolerance / 100.0)
    except BenchReportError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(_compare.render_findings(findings,
                                   tolerance=args.tolerance / 100.0),
          end="")
    return _compare.gate(findings)


def cmd_report(args: argparse.Namespace) -> int:
    try:
        payload = _compare.load_report(args.file)
    except BenchReportError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    print(render_report(payload), end="")
    return EXIT_OK


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


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the run/compare/report subcommands to ``parser`` (used
    both by ``python -m repro.bench`` and by the main CLI's ``bench``
    subcommand)."""
    sub = parser.add_subparsers(dest="bench_command", required=True)

    run = sub.add_parser(
        "run", help="run benchmarks and write the JSON report")
    run.add_argument("--quick", action="store_true",
                     help="the reduced CI series (same benchmarks, "
                     "fewer points)")
    run.add_argument("--out", metavar="FILE", default=DEFAULT_OUT,
                     help="report path (default: %(default)s)")
    run.add_argument("--only", metavar="PATTERN", action="append",
                     help="run only benchmarks whose name contains "
                     "PATTERN (repeatable)")
    run.add_argument("--repeat", type=int, metavar="N", default=None,
                     help="override per-benchmark repeat counts")
    run.add_argument("--no-memory", action="store_true",
                     help="skip the tracemalloc pass")
    run.add_argument("--quiet", action="store_true",
                     help="no per-benchmark progress on stderr")
    run.add_argument("--timeout", type=float, metavar="SECONDS",
                     help="wall-clock deadline per measured run; "
                     "exit 4 when reached")
    run.add_argument("--max-steps", type=int, metavar="N",
                     help="engine work-unit budget per measured run; "
                     "exit 4 when exhausted")
    run.add_argument("--max-branches", type=int, metavar="N",
                     help="branch budget per measured run; exit 4 "
                     "when exhausted")
    run.add_argument("--max-nodes", type=int, metavar="N",
                     help="node budget per measured run; exit 4 "
                     "when exhausted")
    run.set_defaults(bench_func=cmd_run)

    comp = sub.add_parser(
        "compare",
        help="gate CURRENT against BASELINE on operation counters")
    comp.add_argument("baseline", help="baseline report (e.g. "
                      "benchmarks/baselines/quick.json)")
    comp.add_argument("current", help="freshly generated report")
    comp.add_argument("--tolerance", type=float, metavar="PCT",
                      default=5.0,
                      help="allowed counter growth in percent "
                      "(default: %(default)s)")
    comp.set_defaults(bench_func=cmd_compare)

    rep = sub.add_parser("report",
                         help="pretty-print a report file")
    rep.add_argument("file", nargs="?", default=DEFAULT_OUT,
                     help="report path (default: %(default)s)")
    rep.set_defaults(bench_func=cmd_report)


def dispatch(args: argparse.Namespace) -> int:
    """Run the selected bench subcommand (shared with the main CLI)."""
    return args.bench_func(args)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="benchmark observatory: run, gate, and report")
    configure_parser(parser)
    args = parser.parse_args(argv)
    return dispatch(args)
