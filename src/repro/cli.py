"""Command-line interface: ``python -m repro`` / the ``xnf`` script.

Subcommands::

    xnf check      DTD_FILE FD_FILE          # XNF test + violations
    xnf normalize  DTD_FILE FD_FILE [-o DIR] # Figure 4 algorithm
    xnf implies    DTD_FILE FD_FILE "S -> p" # implication query
    xnf tuples     DTD_FILE XML_FILE         # tuples_D(T) as a table
    xnf classify   DTD_FILE                  # simple / disjunctive / N_D
    xnf explain    DTD_FILE FD_FILE "S -> p" # derivation of an implication
    xnf analyze    DTD_FILE FD_FILE [XML...] # design + redundancy report
    xnf bench      {run,compare,report} ...  # benchmark observatory
    xnf batch      MANIFEST.json             # crash-tolerant batch runs
    xnf obs        {report,flame,diff,history,regress} ...
                                             # profiling observatory
    xnf serve      [--port N]                # long-running HTTP service

:func:`build_parser` declares every subcommand's arguments; a command's
implementation, and every engine it runs, is imported only when it
runs, so ``xnf --help`` and a usage error load no engine.  The
``python -m`` entry points of the benchmark and profiling observatories
are aliases of ``xnf bench`` and ``xnf obs``.

Observability (see ``docs/OBSERVABILITY.md``): every subcommand accepts
``--stats`` (print a metrics table — cache hit rate, chase steps,
per-phase timings — to stderr when done), ``--trace FILE`` (write a
JSON-lines span log), and ``--metrics-port N`` (serve live Prometheus
``/metrics`` + ``/healthz`` on localhost:N for the duration of the
run; 0 picks a free port, announced on stderr).  Setting
``REPRO_OBS=1`` in the environment is equivalent to ``--stats``.
``xnf obs report/flame/diff`` folds a ``--trace`` file into a
deterministic profile tree, flamegraph folded stacks, or a
counter-gated comparison of two runs.

Resource governance (see ``docs/ROBUSTNESS.md``): every subcommand
accepts ``--timeout SECONDS`` (wall-clock deadline), ``--max-steps N``,
``--max-branches N``, and ``--max-nodes N`` (:class:`repro.guard.Limits`;
a bad value exits 2), the bound of one unit of work: the command for
the one-shot commands, each task for ``batch`` (capping its manifest
limits), each request for ``serve`` (below), each measured run for
``bench run``.  When a limit trips the coNP-hard engines degrade
instead of hanging: ``implies`` prints ``unknown`` with the tripped
limit, every other subcommand aborts with a diagnostic, and the
process exits with code 4.

Fault injection (testing only): setting ``REPRO_FAULTS`` to a
``site[:kind[:after]],...`` spec (``REPRO_FAULTS_SEED`` seeds it)
installs a deterministic fault plan around the whole run — see
``repro.faults``.  Every input is checked before anything starts.

Batch execution (see ``docs/ROBUSTNESS.md``): ``xnf batch
MANIFEST.json`` runs every task of a manifest under per-task isolation
with deterministic retry/backoff (``--retries`` / ``--backoff-base``),
per-failure-signature circuit breakers (``--breaker-threshold``), and
an optional differential engine ensemble (``--ensemble
{off,check,strict}``).  The machine-readable JSON summary — including
the dead-letter report accounting for every unrecoverable task — goes
to **stdout**; human-facing progress and ``--stats`` tables go to
stderr, so ``xnf batch m.json | jq .`` always parses.  Live progress
is the ``--metrics-port`` scrape: ``runtime_tasks_total`` and its
``ok``/``deadletter`` splits rise as tasks commit, against the
``runtime_batch_tasks_total`` gauge of the manifest's size
(``docs/OBSERVABILITY.md``).  ``--workers N`` runs the tasks on a
supervised process pool whose summary is byte-identical to a serial
run's.  ``--journal FILE`` journals the run (a meta record, then one
result record per task as it commits, in index order, fsynced after
each commit serially and once per supervision pass on the pool); after
a supervisor death — SIGKILL, OOM, power loss — re-running with
``--resume`` skips the tasks that have a result, runs the rest, and
produces a summary byte-identical to an uninterrupted serial run (the
journal format and resume contract are specified in
``docs/ROBUSTNESS.md``).  A journal that cannot apply to the
invocation — another journal version, wrong manifest fingerprint,
policy, breaker knobs or budget flags, or results out of index order —
exits with code 2.

Service mode (see ``docs/SERVE.md``): ``xnf serve`` runs the pipeline
as a long-lived HTTP/JSON daemon.  The budget flags replace the
default **per-request ceilings**: every request runs under its own
limits (clients may tighten, never loosen), so one pathological DTD
degrades alone.  ``/metrics``, ``/healthz`` and ``/readyz`` are served
on the service port itself; ``--metrics-port`` is refused unless it
names the service port (no second exporter is ever spawned).
SIGTERM/SIGINT drain gracefully: readiness flips, in-flight requests
finish under ``--drain-deadline``, and a clean drain exits 0.

Exit codes (uniform across subcommands; the full table is pinned by
``tests/test_exit_codes.py``)::

    0  success / positive answer (implied, in XNF, batch all ok)
    1  negative answer (not implied, not in XNF, violations found,
       every batch task dead-lettered)
    2  usage error (bad flags or arguments: argparse, or a UsageError —
       an input file that cannot be read, an output file or ``-o``
       directory that cannot be written, an unusable batch manifest or
       journal, trace, ledger or benchmark report) — message on stderr
    3  input or pipeline error (any other ReproError: parse failure,
       invalid FD, unsupported feature, ...) — message on stderr
    4  resource limit reached (--timeout / --max-steps / ... tripped
       before the answer was decided) — message on stderr
    5  partial batch failure (some tasks succeeded, some were
       dead-lettered; details in the JSON summary on stdout)

Every ``ReproError`` carries its code as ``exit_code``
(:mod:`repro.errors`), so :func:`main` maps an error without knowing
the module that raised it.

FD files contain one FD per line (``#`` comments allowed), e.g.::

    courses.course.@cno -> courses.course
    courses.course.taken_by.student.@sno ->
        courses.course.taken_by.student.name.S
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import os
import sys
from typing import IO

from repro.errors import ReproError, ResourceExhausted, UsageError

#: Uniform exit codes (documented in the module docstring).
EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_ERROR = 3
EXIT_RESOURCE = 4
EXIT_PARTIAL = 5


def _read(path: str) -> str:
    """The text of a file argument; one that cannot be read is a usage
    error (exit 2), like a bad flag."""
    try:
        with open(path, encoding="utf-8") as stream:
            return stream.read()
    except (OSError, UnicodeDecodeError) as error:
        raise UsageError(f"cannot read {path}: {error}") from error


def _write(path: str, mode: str = "w") -> IO[str]:
    """A file argument opened for output; one that cannot be opened is
    a usage error (exit 2), the twin of :func:`_read`."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as error:
        raise UsageError(f"cannot write {path}: {error}") from error


def _load_spec(dtd_file: str, fd_file: str | None, root: str | None):
    from repro import obs
    from repro.spec import XMLSpec
    # A named child span keeps the root CLI span's wall time almost
    # fully attributed when profiled (`xnf obs report`).
    with obs.span("spec.parse", dtd=dtd_file):
        dtd_text = _read(dtd_file)
        fd_text = _read(fd_file) if fd_file else ""
        return XMLSpec.parse(dtd_text, fd_text, root=root)


def _one_unit(command):
    """Mark a one-shot command as one unit of work: it runs under the
    budget flags' limits, installed on the thread that runs it."""
    def run(args: argparse.Namespace) -> int:
        with args.limits.install():
            return command(args)
    return run


@_one_unit
def _cmd_check(args: argparse.Namespace) -> int:
    spec = _load_spec(args.dtd, args.fds, args.root)
    violations = spec.xnf_violations()
    if not violations:
        print("(D, Sigma) is in XNF")
        return EXIT_OK
    print(f"(D, Sigma) is NOT in XNF: {len(violations)} anomalous FD(s)")
    for fd in violations:
        print(f"  anomalous: {fd}")
    return EXIT_NEGATIVE


@_one_unit
def _cmd_normalize(args: argparse.Namespace) -> int:
    from repro.dtd.serializer import serialize_dtd
    spec = _load_spec(args.dtd, args.fds, args.root)
    result = spec.normalize()
    for index, step in enumerate(result.steps, start=1):
        print(f"step {index}: {step.description}", file=sys.stderr)
    print(serialize_dtd(result.dtd), end="")
    if result.sigma:
        print()
        for fd in result.sigma:
            print(f"# FD: {fd}")
    if args.output:
        from pathlib import Path
        out = Path(args.output)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / "normalized.dtd").write_text(serialize_dtd(result.dtd))
            (out / "normalized.fds").write_text(
                "".join(f"{fd}\n" for fd in result.sigma))
        except OSError as error:
            raise UsageError(f"cannot write {out}: {error}") from error
        print(f"\nwritten to {out}/", file=sys.stderr)
    return EXIT_OK


@_one_unit
def _cmd_implies(args: argparse.Namespace) -> int:
    from repro.fd.implication import UNKNOWN, YES
    from repro.fd.model import FD
    spec = _load_spec(args.dtd, args.fds, args.root)
    fd = FD.parse(args.fd)
    verdict = spec.decide(fd)
    if verdict.value == UNKNOWN:
        print(f"unknown ({verdict.reason})")
        return EXIT_RESOURCE
    answer = verdict.value == YES
    print("implied" if answer else "not implied")
    return EXIT_OK if answer else EXIT_NEGATIVE


@_one_unit
def _cmd_tuples(args: argparse.Namespace) -> int:
    from repro.dtd.parser import parse_dtd
    from repro.tuples.extract import tuples_of
    from repro.xmltree.parser import parse_xml
    dtd = parse_dtd(_read(args.dtd), root=args.root)
    tree = parse_xml(_read(args.xml))
    tuples = tuples_of(tree, dtd)
    paths = sorted({p for t in tuples for p in t.paths}, key=str)
    print("\t".join(str(p) for p in paths))
    for tuple_ in tuples:
        print("\t".join(tuple_.get(p) or "_|_" for p in paths))
    print(f"# {len(tuples)} tuple(s)", file=sys.stderr)
    return EXIT_OK


@_one_unit
def _cmd_explain(args: argparse.Namespace) -> int:
    spec = _load_spec(args.dtd, args.fds, args.root)
    from repro.fd.explain import explain_implication
    print(explain_implication(spec.dtd, spec.sigma, args.fd), end="")
    return EXIT_OK


@_one_unit
def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = _load_spec(args.dtd, args.fds, args.root)
    from repro.report import analyze
    from repro.xmltree.parser import parse_xml
    documents = [parse_xml(_read(path)) for path in args.xml]
    report = analyze(spec, documents)
    print(report.render(), end="")
    return EXIT_OK if report.in_xnf else EXIT_NEGATIVE


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import cli as bench_cli
    return getattr(bench_cli, f"cmd_{args.bench_command}")(args)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import cli as obs_cli
    return getattr(obs_cli, f"cmd_{args.obs_command}")(args)


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import batch as batch_mod
    from repro.runtime import manifest as manifest_mod
    from repro.runtime.breaker import BreakerBoard
    from repro.runtime.pool import (
        PoolBackend,
        pool_available,
        resolve_workers,
    )
    from repro.runtime.retry import RetryPolicy

    if args.resume and not args.journal:
        raise UsageError("--resume requires --journal FILE")
    manifest = manifest_mod.load(args.manifest)
    seed = args.seed if args.seed is not None else manifest.seed
    policy = RetryPolicy(retries=args.retries,
                         backoff_base_ms=args.backoff_base, seed=seed)
    board = BreakerBoard(threshold=args.breaker_threshold,
                         probe_interval=args.breaker_probe_interval)
    # The parser has checked --workers, so this cannot refuse it.
    workers = resolve_workers(args.workers, task_count=manifest.task_count)
    pool = None
    if workers > 1 and os.environ.get("REPRO_FAULTS"):
        # Fault-plan arms are process-global fire-once state; forked
        # workers would each inherit an unfired copy and the batch
        # would stop being replayable.  Degrade to serial, loudly.
        print("note: REPRO_FAULTS is active; running serially "
              "(fault plans are per-process)", file=sys.stderr)
        workers = 1
    if workers > 1 and not pool_available():
        print("note: fork start method unavailable; running serially",
              file=sys.stderr)
        workers = 1
    if workers > 1:
        pool = PoolBackend(workers, crash_retries=args.crash_retries,
                           stall_timeout=args.stall_timeout)
    journal = None
    # Everything opened below closes, last opened first, on every way
    # out.
    with contextlib.ExitStack() as closing:
        on_task_done = None
        ledger_file = getattr(args, "ledger", None)
        if ledger_file:
            from repro.obs.ledger import LedgerWriter
            # Append: the ledger is a history; each run adds records
            # under a fresh run id, and `obs regress` compares runs.
            # Readable too, so the writer can cut a torn last record.
            # Opened before the journal, which a fresh run truncates.
            ledger_stream = _write(ledger_file, "a+")
            closing.callback(ledger_stream.close)
            on_task_done = LedgerWriter(
                ledger_stream, manifest=manifest,
                fsync=args.ledger_fsync).task_done
        if args.journal:
            from repro.runtime.journal import open_journal
            # May raise JournalError (exit 2): a mismatched meta record
            # or an unopenable/edited file means the journal cannot
            # apply to this invocation.  A torn trailing record is
            # truncated with a counted warning instead.
            journal = open_journal(args.journal, manifest=manifest,
                                   policy=policy, board=board,
                                   ensemble_mode=args.ensemble,
                                   resume=args.resume, limits=args.limits)
            closing.callback(journal.close)
            if args.resume:
                print(f"journal: resuming from {args.journal}: "
                      f"{journal.skipped} task(s) already complete",
                      file=sys.stderr)
        # The flags cap each task's own limits: the unit is the task.
        summary = batch_mod.run_batch(
            manifest, policy=policy, board=board,
            ensemble_mode=args.ensemble,
            on_task_done=on_task_done,
            backend=pool, journal=journal, limits=args.limits)
    # Machine-readable summary on stdout, human account on stderr —
    # ``xnf batch m.json | jq .`` must always parse.
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    counts = summary["counts"]
    print(f"batch: {counts['ok']}/{counts['total']} ok, "
          f"{counts['failed']} dead-lettered, {counts['lost']} lost"
          + (f"; {summary['ensemble_disagreements']} ensemble "
             "disagreement(s)" if args.ensemble != "off" else ""),
          file=sys.stderr)
    if journal is not None:
        print(f"journal: {journal.appended} record(s) appended, "
              f"{journal.skipped} task(s) skipped as complete",
              file=sys.stderr)
    if pool is not None:
        stats = pool.stats
        print(f"pool: {stats.workers} worker(s), "
              f"{stats.spawned} spawned, {stats.crashed} crashed, "
              f"{stats.requeued} requeued, {stats.stolen} stolen, "
              f"{stats.dead_lettered} crash dead-letter(s)",
              file=sys.stderr)
    if counts["failed"] == 0:
        return EXIT_OK
    if counts["ok"] == 0:
        return EXIT_NEGATIVE
    return EXIT_PARTIAL


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.serve import BudgetDefaults, NormalizationServer

    # The unit is the request: the flags replace the default ceilings
    # that every request's own limits are capped by.
    server = NormalizationServer(
        args.port, args.host,
        max_inflight=args.max_inflight, max_queue=args.max_queue,
        queue_timeout_s=args.queue_timeout,
        drain_deadline_s=args.drain_deadline,
        cache_capacity=args.cache_size,
        defaults=args.limits.fill(BudgetDefaults()))
    stop = threading.Event()

    def _request_drain(signum: int, frame: object) -> None:
        # Runs for the first and any repeated SIGTERM/SIGINT; drain()
        # itself is idempotent, so a mid-drain signal is harmless.
        stop.set()

    # Handlers go in before the socket is announced: a supervisor that
    # reacts to the announce line may signal immediately, and that
    # must already mean "drain", never the default kill.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _request_drain)
        signal.signal(signal.SIGINT, _request_drain)
    try:
        server.start()
    except OSError as error:
        # An occupied port / unbindable host is structural, like a bad
        # flag: nothing ran, nothing partial exists.
        raise UsageError(
            f"cannot bind {args.host}:{args.port}: {error}") from error
    print(f"serve: listening on {server.url()} "
          "(POST /v1/implication /v1/xnf-check /v1/normalize; "
          "GET /metrics /healthz /readyz)",
          file=sys.stderr, flush=True)
    try:
        # Periodic wake-ups keep the wait signal-responsive on every
        # platform (a bare Event.wait can ride through handlers).
        while not stop.wait(0.5):
            pass
    except KeyboardInterrupt:
        pass
    print(f"serve: draining (deadline {args.drain_deadline}s)",
          file=sys.stderr, flush=True)
    if server.drain(args.drain_deadline):
        print("serve: drained cleanly", file=sys.stderr, flush=True)
        return EXIT_OK
    print("serve: drain deadline expired with requests in flight",
          file=sys.stderr, flush=True)
    return EXIT_RESOURCE


@_one_unit
def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.dtd.classify import (
        disjunction_measure, is_disjunctive_dtd, is_simple_dtd)
    from repro.dtd.parser import parse_dtd
    dtd = parse_dtd(_read(args.dtd), root=args.root)
    print(f"recursive:   {dtd.is_recursive}")
    simple = is_simple_dtd(dtd)
    print(f"simple:      {simple}")
    disjunctive = is_disjunctive_dtd(dtd)
    print(f"disjunctive: {disjunctive}")
    if disjunctive and not dtd.is_recursive:
        print(f"N_D:         {disjunction_measure(dtd)}")
    if not dtd.is_recursive:
        print(f"paths:       {len(dtd.paths)}")
    return EXIT_OK


#: Flags every command takes, before or after its name.
_GLOBAL_FLAGS = (
    ("--stats", dict(action="store_true",
                     help="print a metrics table to stderr when done")),
    ("--trace", dict(metavar="FILE",
                     help="write a JSON-lines span trace to FILE")),
    ("--metrics-port", dict(type=int, metavar="N",
                            help="serve Prometheus /metrics and /healthz "
                            "on localhost:N while the command runs "
                            "(0 picks a free port, announced on "
                            "stderr)")),
    ("--timeout", dict(type=float, metavar="SECONDS",
                       help="wall-clock deadline; exit 4 when reached")),
    ("--max-steps", dict(type=int, metavar="N",
                         help="engine work-unit budget; exit 4 when "
                         "exhausted")),
    ("--max-branches", dict(type=int, metavar="N",
                            help="disjunction/case-split branch budget; "
                            "exit 4 when exhausted")),
    ("--max-nodes", dict(type=int, metavar="N",
                         help="materialized node budget; exit 4 when "
                         "exhausted")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xnf",
        description="XML normal form toolkit (Arenas & Libkin, PODS 2002)")
    parser.add_argument("--root", help="root element type "
                        "(default: first declared)")
    # The observability and budget flags are also accepted *after* the
    # subcommand (``xnf check d.dtd d.fds --stats``), through the
    # ``common`` parent, where they are hidden.  SUPPRESS keeps a
    # subparser from overwriting a value parsed at the top level with
    # its default.
    common = argparse.ArgumentParser(add_help=False)
    for flag, spec in _GLOBAL_FLAGS:
        parser.add_argument(flag, **spec)
        common.add_argument(flag, **dict(spec, default=argparse.SUPPRESS,
                                         help=argparse.SUPPRESS))

    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", parents=[common],
                           help="test whether (D, Sigma) is in XNF")
    check.add_argument("dtd")
    check.add_argument("fds")
    check.set_defaults(func=_cmd_check)

    norm = sub.add_parser("normalize", parents=[common],
                          help="run the XNF decomposition algorithm")
    norm.add_argument("dtd")
    norm.add_argument("fds")
    norm.add_argument("-o", "--output", help="directory for the results")
    norm.set_defaults(func=_cmd_normalize)

    imp = sub.add_parser("implies", parents=[common],
                         help="decide (D, Sigma) |- FD")
    imp.add_argument("dtd")
    imp.add_argument("fds")
    imp.add_argument("fd", help='query, e.g. "db.conf.title.S -> db.conf"')
    imp.set_defaults(func=_cmd_implies)

    tup = sub.add_parser("tuples", parents=[common],
                         help="print tuples_D(T) as a table")
    tup.add_argument("dtd")
    tup.add_argument("xml")
    tup.set_defaults(func=_cmd_tuples)

    cls = sub.add_parser("classify", parents=[common],
                         help="classify a DTD (Section 7)")
    cls.add_argument("dtd")
    cls.set_defaults(func=_cmd_classify)

    exp = sub.add_parser("explain", parents=[common],
                         help="show the derivation of an implication")
    exp.add_argument("dtd")
    exp.add_argument("fds")
    exp.add_argument("fd")
    exp.set_defaults(func=_cmd_explain)

    ana = sub.add_parser("analyze", parents=[common],
                         help="design analysis + redundancy report")
    ana.add_argument("dtd")
    ana.add_argument("fds")
    ana.add_argument("xml", nargs="*", help="documents to measure")
    ana.set_defaults(func=_cmd_analyze)

    ben = sub.add_parser("bench",
                         help="benchmark observatory "
                         "(docs/BENCHMARKS.md)")
    ben.set_defaults(func=_cmd_bench)
    ben_sub = ben.add_subparsers(dest="bench_command", required=True)
    # The persistent bench trajectory at the repo root (committed
    # baselines live under ``benchmarks/baselines``).
    bench_report = "BENCH_core.json"
    # The budget flags come from ``common``: they bound each measured
    # run, not the whole suite.
    ben_run = ben_sub.add_parser(
        "run", parents=[common],
        help="run benchmarks and write the JSON report")
    ben_run.add_argument("--quick", action="store_true",
                         help="the reduced CI series (same benchmarks, "
                         "fewer points)")
    ben_run.add_argument("--out", metavar="FILE", default=bench_report,
                         help="report path (default: %(default)s)")
    ben_run.add_argument("--only", metavar="PATTERN", action="append",
                         help="run only benchmarks whose name contains "
                         "PATTERN (repeatable)")
    ben_run.add_argument("--repeat", type=int, metavar="N", default=None,
                         help="override per-benchmark repeat counts")
    ben_run.add_argument("--no-memory", action="store_true",
                         help="skip the tracemalloc pass")
    ben_run.add_argument("--quiet", action="store_true",
                         help="no per-benchmark progress on stderr")
    ben_comp = ben_sub.add_parser(
        "compare",
        help="gate CURRENT against BASELINE on operation counters")
    ben_comp.add_argument("baseline", help="baseline report (e.g. "
                          "benchmarks/baselines/quick.json)")
    ben_comp.add_argument("current", help="freshly generated report")
    ben_comp.add_argument("--tolerance", type=float, metavar="PCT",
                          default=5.0,
                          help="allowed counter growth in percent "
                          "(default: %(default)s)")
    ben_rep = ben_sub.add_parser("report",
                                 help="pretty-print a report file")
    ben_rep.add_argument("file", nargs="?", default=bench_report,
                         help="report path (default: %(default)s)")

    obs_parser = sub.add_parser("obs",
                                help="profiling observatory: fold "
                                "--trace logs into profiles "
                                "(docs/OBSERVABILITY.md)")
    obs_parser.set_defaults(func=_cmd_obs)
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    # The positional is "trace_path", not "trace": the global --trace
    # FILE owns the "trace" dest, and sharing it would make `xnf obs
    # report T` truncate T before reading it.
    obs_rep = obs_sub.add_parser(
        "report", help="fold a --trace log into a profile report")
    obs_rep.add_argument("trace_path", metavar="TRACE",
                         help="JSON-lines span trace file, or - for stdin")
    obs_rep.add_argument("--no-counters", action="store_true",
                         help="omit the self-attributed counter-delta "
                         "section")
    obs_rep.add_argument("--by-task", action="store_true",
                         help="add the per-manifest-task rollup "
                         "(stitched batch traces)")
    obs_fla = obs_sub.add_parser(
        "flame", help="emit folded stacks for flamegraph tools")
    obs_fla.add_argument("trace_path", metavar="TRACE",
                         help="JSON-lines span trace file, or - for stdin")
    obs_fla.add_argument("-o", "--out", metavar="FILE",
                         help="write to FILE instead of stdout")
    obs_dif = obs_sub.add_parser(
        "diff", help="gate two traces (or stats snapshots) on "
        "counter deltas")
    obs_dif.add_argument("baseline", help="baseline trace or snapshot "
                         "JSON, or - for stdin")
    obs_dif.add_argument("current", help="current trace or snapshot "
                         "JSON, or - for stdin")
    obs_dif.add_argument("--tolerance", type=float, metavar="PCT",
                         default=5.0,
                         help="allowed counter growth in percent "
                         "(default: %(default)s)")
    obs_his = obs_sub.add_parser(
        "history", help="summarise a --ledger run history")
    obs_his.add_argument("ledger_path", metavar="LEDGER",
                         help="JSON-lines run ledger file, or - for stdin")
    obs_his.add_argument("--task", metavar="ID",
                         help="show every run of one task instead of "
                         "the per-run summary")
    obs_his.add_argument("--limit", type=int, metavar="N",
                         help="only the most recent N runs")
    obs_reg = obs_sub.add_parser(
        "regress", help="gate the latest ledger run against "
        "baseline runs")
    obs_reg.add_argument("ledger_path", metavar="LEDGER",
                         help="JSON-lines run ledger file, or - for stdin")
    obs_reg.add_argument("--baseline", metavar="FILE",
                         help="compare against this ledger's runs "
                         "instead of earlier runs in LEDGER")
    obs_reg.add_argument("--tolerance", type=float, metavar="PCT",
                         default=5.0,
                         help="allowed per-task wall-time growth in "
                         "percent after scale normalisation "
                         "(default: %(default)s)")
    obs_reg.add_argument("--min-wall-ms", type=float, metavar="MS",
                         default=1.0,
                         help="ignore timing movement on tasks faster "
                         "than MS (default: %(default)s)")
    obs_reg.add_argument("--absolute", action="store_true",
                         help="compare raw wall times (skip the "
                         "median-ratio machine-speed normalisation)")

    def _checked(kind, ok, rule: str):
        # ``ok`` is stated positively, so NaN fails it.
        def parse(text: str):
            value = kind(text)
            if not ok(value):
                raise argparse.ArgumentTypeError(rule)
            return value
        return parse

    _nonneg_int = _checked(int, lambda value: value >= 0, "must be >= 0")
    _nonneg_float = _checked(float, lambda value: value >= 0,
                             "must be >= 0")
    _pos_int = _checked(int, lambda value: value >= 1, "must be >= 1")
    _pos_float = _checked(float, lambda value: value > 0,
                          "must be positive")

    bat = sub.add_parser("batch", parents=[common],
                         help="run a task manifest crash-tolerantly "
                         "(JSON summary on stdout)")
    bat.add_argument("manifest", help="batch manifest JSON file")
    bat.add_argument("--retries", type=_nonneg_int, default=2,
                     metavar="N",
                     help="re-attempts per task for transient failures "
                     "(default 2)")
    bat.add_argument("--backoff-base", type=_nonneg_float, default=100.0,
                     metavar="MS",
                     help="exponential-backoff base in milliseconds; "
                     "0 disables waiting (default 100)")
    bat.add_argument("--ensemble", choices=("off", "check", "strict"),
                     default="off",
                     help="differential engine ensemble: cross-check "
                     "every implication decision (check records "
                     "disagreements, strict dead-letters them)")
    bat.add_argument("--seed", type=int, default=None,
                     help="backoff-jitter seed (default: the "
                     "manifest's defaults.seed)")
    bat.add_argument("--breaker-threshold", type=_pos_int, default=5,
                     metavar="N",
                     help="consecutive same-signature failures that "
                     "open a circuit breaker (default 5)")
    bat.add_argument("--breaker-probe-interval", type=_pos_int,
                     default=8, metavar="N",
                     help="admit every N-th task as a probe while a "
                     "breaker is open (default 8)")
    def _workers_spec(text: str) -> str:
        if text != "auto":
            try:
                if int(text) < 1:
                    raise ValueError
            except ValueError:
                raise argparse.ArgumentTypeError(
                    "must be 'auto' or a positive integer") from None
        return text

    bat.add_argument("--workers", type=_workers_spec, default="auto",
                     metavar="N",
                     help="worker processes for parallel execution: "
                     "'auto' (one per CPU this process may run on, the "
                     "default) or an "
                     "explicit count; 1 runs serially.  Tasks "
                     "commit in index order, so the summary is "
                     "byte-identical to a serial run "
                     "(docs/ROBUSTNESS.md)")
    bat.add_argument("--crash-retries", type=_nonneg_int, default=3,
                     metavar="N",
                     help="worker deaths one task may survive before "
                     "it is dead-lettered with reason worker_crash "
                     "(default 3)")
    bat.add_argument("--stall-timeout", type=_nonneg_float,
                     default=0.0, metavar="SECONDS",
                     help="SIGKILL and requeue a worker silent for "
                     "this long with a task in flight; 0 disables "
                     "stall detection (default 0)")
    bat.add_argument("--ledger", metavar="FILE",
                     help="append one run-ledger record per task to "
                     "FILE (query with `xnf obs history`, gate with "
                     "`xnf obs regress`)")
    bat.add_argument("--ledger-fsync", action="store_true",
                     help="fsync the --ledger file after every record "
                     "(crash-durable history at a per-record I/O "
                     "cost; by default ledger durability is "
                     "flush-only — docs/OBSERVABILITY.md)")
    bat.add_argument("--journal", metavar="FILE",
                     help="journal the run: append a result record as "
                     "each task commits, in index order, fsynced after "
                     "each commit (once per supervision pass with "
                     "--workers), so a killed supervisor can --resume "
                     "without redoing or losing any completed task (a "
                     "power loss costs at most one pass of results)")
    bat.add_argument("--resume", action="store_true",
                     help="replay the --journal FILE: verify its meta "
                     "fingerprints (mismatch exits 2), skip the tasks "
                     "that have a result, run the rest, and emit a "
                     "summary byte-identical to an uninterrupted "
                     "serial run (docs/ROBUSTNESS.md)")
    bat.set_defaults(func=_cmd_batch)

    srv = sub.add_parser("serve", parents=[common],
                         help="run the long-lived HTTP normalization "
                         "service (docs/SERVE.md); the budget flags "
                         "set per-request ceilings")
    srv.add_argument("--port", type=int, default=8300, metavar="N",
                     help="service port; 0 picks a free one, announced "
                     "on stderr (default 8300)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--max-inflight", type=_pos_int, default=8,
                     metavar="N",
                     help="requests executing concurrently (default 8)")
    srv.add_argument("--max-queue", type=_nonneg_int, default=64,
                     metavar="N",
                     help="requests waiting for a slot before new "
                     "arrivals are shed with 429 (default 64)")
    srv.add_argument("--queue-timeout", type=_pos_float, default=5.0,
                     metavar="SECONDS",
                     help="longest a request may wait in the admission "
                     "queue before a 503 (default 5)")
    srv.add_argument("--drain-deadline", type=_pos_float, default=10.0,
                     metavar="SECONDS",
                     help="grace period for in-flight requests after "
                     "SIGTERM (default 10)")
    srv.add_argument("--cache-size", type=_pos_int, default=128,
                     metavar="N",
                     help="parsed specs kept in the fingerprint-keyed "
                     "LRU (default 128)")
    srv.set_defaults(func=_cmd_serve)
    return parser


#: The modules each command runs (``bench`` and ``obs`` import their
#: own).  :func:`main` imports them once the arguments are checked and
#: before the command's span opens, so a trace times the work, not the
#: imports.
_RUNS = {
    "check": ("repro.spec",),
    "normalize": ("repro.spec", "repro.dtd.serializer"),
    "implies": ("repro.spec",),
    "tuples": ("repro.dtd.parser", "repro.tuples.extract",
               "repro.xmltree.parser"),
    "classify": ("repro.dtd.classify", "repro.dtd.parser"),
    "explain": ("repro.spec", "repro.fd.explain"),
    "analyze": ("repro.report",),
    "batch": ("repro.runtime",),
    "serve": ("repro.serve",),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Past the parser: ``--help`` and a usage error load neither.
    from repro import guard, obs
    # Every input is checked before anything starts.
    args.limits = guard.Limits.parse(vars(args), error=parser.error)
    metrics_port = getattr(args, "metrics_port", None)
    if metrics_port is not None and not 0 <= metrics_port <= 65535:
        parser.error("--metrics-port must be between 0 and 65535")
    if args.command == "serve" and metrics_port is not None:
        # serve publishes /metrics on the service port itself; a
        # second exporter would split the scrape surface.  Refuse a
        # conflicting port, treat a matching one as an alias.
        if metrics_port != args.port:
            print("error: xnf serve publishes /metrics on the service "
                  f"port ({args.port}); --metrics-port {metrics_port} "
                  "would spawn a second exporter — drop the flag or "
                  "make it equal to --port", file=sys.stderr)
            return EXIT_USAGE
        print(f"note: --metrics-port {metrics_port} aliases the "
              "service port; /metrics is served there", file=sys.stderr)
        metrics_port = None
        args.metrics_port = None
    fault_plan = None
    fault_spec = os.environ.get("REPRO_FAULTS", "")
    if fault_spec:
        from repro import faults
        try:
            fault_plan = faults.plan_from_spec(
                fault_spec,
                seed=int(os.environ.get("REPRO_FAULTS_SEED", "0")))
        except (ReproError, ValueError) as error:
            print(f"error: bad REPRO_FAULTS spec: {error}",
                  file=sys.stderr)
            return EXIT_USAGE
    for module in _RUNS.get(args.command, ()):
        importlib.import_module(module)

    want_stats = bool(getattr(args, "stats", False)) or (
        os.environ.get("REPRO_OBS", "") not in ("", "0"))
    # Everything set up for observability is undone, last first, on
    # every way out.
    with contextlib.ExitStack() as observed:
        try:
            _observe(observed, args, metrics_port, want_stats)
            with obs.span(f"cli.{args.command}"):
                if fault_plan is not None:
                    from repro import faults
                    with faults.use(fault_plan):
                        return args.func(args)
                return args.func(args)
        except ReproError as error:
            if isinstance(error, ResourceExhausted):
                print(f"error: resource limit reached: {error}",
                      file=sys.stderr)
                if error.partial:
                    detail = ", ".join(f"{k}={v}" for k, v
                                       in sorted(error.partial.items()))
                    print(f"partial progress: {detail}", file=sys.stderr)
            else:
                print(f"error: {error}", file=sys.stderr)
            return error.exit_code


def _observe(observed: contextlib.ExitStack, args: argparse.Namespace,
             metrics_port: int | None, want_stats: bool) -> None:
    """Enable obs when ``--stats``, ``--trace``, ``--metrics-port`` or
    ``serve`` (which publishes its own ``/metrics``) needs it, with each
    undo on ``observed``; a sink that cannot start is a ReproError."""
    from repro import obs
    trace_file = getattr(args, "trace", None)
    if not (want_stats or trace_file or metrics_port is not None
            or args.command == "serve"):
        return
    if not obs.is_enabled():
        obs.enable()
        obs.reset()  # the table should cover this run only
        observed.callback(obs.disable)
    if metrics_port is not None:
        try:
            exporter = obs.start_exporter(metrics_port)
        except OSError as error:
            raise ReproError(
                f"cannot start metrics exporter: {error}") from error
        observed.callback(exporter.stop)
        print(f"metrics: serving on {exporter.url('/metrics')} "
              f"(and /healthz)", file=sys.stderr)
    if trace_file:
        try:
            trace_stream = observed.enter_context(_write(trace_file))
        except UsageError as error:
            raise UsageError(f"cannot open trace file: {error}") from error
        sink = obs.JsonLinesSink(trace_stream)
        obs.add_sink(sink)
        observed.callback(obs.remove_sink, sink)
    if want_stats:
        observed.callback(lambda: print(
            obs.render.metrics_table(obs.snapshot()), file=sys.stderr,
            end=""))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
