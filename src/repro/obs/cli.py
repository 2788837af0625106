"""The bodies of ``xnf obs {report,flame,diff,history,regress}``.

:mod:`repro.cli` declares their command line and imports this module
only when an ``obs`` command runs; ``python -m repro.obs ARGS`` is an
alias of ``xnf obs ARGS``.

``report`` folds a ``--trace FILE`` JSON-lines log into the
deterministic profile of :mod:`repro.obs.profile` (``--by-task`` adds
the per-manifest-task rollup for stitched batch traces); ``flame``
emits folded stacks for flamegraph tools; ``diff`` compares two traces
under the benchmark comparator's conventions.  ``history`` and ``regress`` read the
``--ledger FILE`` batch run ledger (:mod:`repro.obs.ledger`): history
summarises past runs, regress gates the latest run against baselines.

Every positional file argument accepts ``-`` for standard input, so
traces and ledgers pipe straight through (``gzip -dc run.jsonl.gz |
xnf obs report -``).

Exit codes follow the repository-wide contract: 0 success / no
regression, 1 regression beyond tolerance (``diff`` / ``regress``), 2
unreadable or malformed input (a :class:`~repro.obs.profile.TraceError`
or :class:`~repro.obs.ledger.LedgerError`, both usage errors — a
message, never a traceback).
"""

from __future__ import annotations

import argparse
import sys

from repro.obs import ledger as _ledger
from repro.obs import profile as _profile
from repro.bench.compare import gate, render_findings
from repro.cli import _write


def cmd_report(args: argparse.Namespace) -> int:
    profile = _profile.load_profile(args.trace_path)
    print(_profile.render_report(
        profile, counters=not args.no_counters,
        by_task=args.by_task), end="")
    return 0


def cmd_flame(args: argparse.Namespace) -> int:
    profile = _profile.load_profile(args.trace_path)
    folded = _profile.folded_stacks(profile)
    if args.out and args.out != "-":
        with _write(args.out) as stream:
            stream.write(folded)
        print(f"wrote {args.out} ({len(profile.by_stack)} stack(s))",
              file=sys.stderr)
    else:
        print(folded, end="")
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    report, code = _profile.diff(args.baseline, args.current,
                                 tolerance=args.tolerance / 100.0)
    print(report, end="")
    return code


def cmd_history(args: argparse.Namespace) -> int:
    records = _ledger.read_ledger(args.ledger_path)
    print(_ledger.render_history(records, task=args.task,
                                 limit=args.limit), end="")
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    records = _ledger.read_ledger(args.ledger_path)
    baseline = (_ledger.read_ledger(args.baseline)
                if args.baseline else None)
    tolerance = args.tolerance / 100.0
    findings = _ledger.regress(
        records, baseline_records=baseline, tolerance=tolerance,
        min_wall_ms=args.min_wall_ms, absolute=args.absolute)
    print(render_findings(findings, tolerance=tolerance), end="")
    return gate(findings)
