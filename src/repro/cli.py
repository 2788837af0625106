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
    xnf obs        {report,flame,diff} ...   # profiling observatory
    xnf serve      [--port N]                # long-running HTTP service

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
``--max-branches N``, and ``--max-nodes N``.  When a limit trips the
coNP-hard engines degrade instead of hanging: ``implies`` prints
``unknown`` with the tripped limit, every other subcommand aborts with
a diagnostic, and the process exits with code 4.

Resumability (see ``docs/ROBUSTNESS.md``): ``xnf normalize
--checkpoint FILE`` snapshots the run after every applied transform;
adding ``--resume`` restarts from the snapshot and produces output
identical to an uninterrupted run.  A checkpoint with the wrong schema
version or a different (D, Σ) fingerprint exits with code 2.

Fault injection (testing only): setting ``REPRO_FAULTS`` to a
``site[:kind[:after]],...`` spec (``REPRO_FAULTS_SEED`` seeds it)
installs a deterministic fault plan around the whole run — see
``repro.faults``.

Batch execution (see ``docs/ROBUSTNESS.md``): ``xnf batch
MANIFEST.json`` runs every task of a manifest under per-task isolation
with deterministic retry/backoff (``--retries`` / ``--backoff-base``),
per-failure-signature circuit breakers (``--breaker-threshold``), and
an optional differential engine ensemble (``--ensemble
{off,check,strict}``).  The machine-readable JSON summary — including
the dead-letter report accounting for every unrecoverable task — goes
to **stdout**; human-facing progress and ``--stats`` tables go to
stderr, so ``xnf batch m.json | jq .`` always parses.  ``--heartbeat
FILE`` appends one schema-versioned JSON-lines progress record (tasks
done/ok/dead-lettered, retries, breaker states, throughput, ETA) at
most every ``--heartbeat-interval`` seconds (``-`` writes them to
stderr, keeping stdout parseable), and publishes the same numbers as
``runtime.batch.*`` gauges for a concurrent ``--metrics-port`` scrape.
``--workers N`` runs the tasks on a supervised process pool whose
summary is byte-identical to a serial run's.  ``--journal FILE``
write-ahead-journals the run (fsync'd intent/result records, results
in index order); after a supervisor death — SIGKILL, OOM, power loss
— re-running with ``--resume`` skips completed tasks, re-dispatches
in-flight ones, and produces a summary byte-identical to an
uninterrupted serial run (the journal format and resume contract are
specified in ``docs/ROBUSTNESS.md``).  A journal that cannot apply to
the invocation — wrong manifest fingerprint, policy, or breaker knobs,
or results out of index order — exits with code 2.

Service mode (see ``docs/SERVE.md``): ``xnf serve`` runs the pipeline
as a long-lived HTTP/JSON daemon.  The budget flags change meaning
there: instead of one process-wide budget they become **per-request
ceilings** — every request runs under its own thread-scoped budget
(clients may tighten, never loosen), so one pathological DTD degrades
alone.  ``/metrics``, ``/healthz`` and ``/readyz`` are served on the
service port itself; ``--metrics-port`` is refused unless it names the
service port (no second exporter is ever spawned).  SIGTERM/SIGINT
drain gracefully: readiness flips, in-flight requests finish under
``--drain-deadline``, and a clean drain exits 0.

Exit codes (uniform across subcommands; the full table is pinned by
``tests/test_exit_codes.py``)::

    0  success / positive answer (implied, in XNF, batch all ok)
    1  negative answer (not implied, not in XNF, violations found,
       every batch task dead-lettered)
    2  usage error (bad flags or arguments; argparse, bad checkpoint,
       bad batch manifest, bad/mismatched batch journal)
    3  input or pipeline error (any ReproError: parse failure,
       invalid FD, unsupported feature, ...) — message on stderr
    4  resource limit reached (--timeout / --max-steps / ... tripped
       before the answer was decided) — message on stderr
    5  partial batch failure (some tasks succeeded, some were
       dead-lettered; details in the JSON summary on stdout)

FD files contain one FD per line (``#`` comments allowed), e.g.::

    courses.course.@cno -> courses.course
    courses.course.taken_by.student.@sno ->
        courses.course.taken_by.student.name.S
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path as FilePath

from repro import guard, obs
from repro.errors import (
    CheckpointError,
    JournalError,
    ManifestError,
    ReproError,
    ResourceExhausted,
)
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import serialize_dtd
from repro.fd.implication import UNKNOWN, YES
from repro.fd.model import FD, parse_fds
from repro.spec import XMLSpec
from repro.xmltree.parser import parse_xml

#: Uniform exit codes (documented in the module docstring).
EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_ERROR = 3
EXIT_RESOURCE = 4
EXIT_PARTIAL = 5


def _load_spec(dtd_file: str, fd_file: str | None,
               root: str | None) -> XMLSpec:
    # A named child span keeps the root CLI span's wall time almost
    # fully attributed when profiled (`xnf obs report`).
    with obs.span("spec.parse", dtd=dtd_file):
        dtd_text = FilePath(dtd_file).read_text()
        fd_text = FilePath(fd_file).read_text() if fd_file else ""
        return XMLSpec.parse(dtd_text, fd_text, root=root)


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


def _cmd_normalize(args: argparse.Namespace) -> int:
    from repro.normalize import checkpoint as ckpt
    spec = _load_spec(args.dtd, args.fds, args.root)
    checkpoint_path = getattr(args, "checkpoint", None)
    resume = None
    if getattr(args, "resume", False):
        if not checkpoint_path:
            raise CheckpointError("--resume requires --checkpoint FILE")
        resume = ckpt.load(checkpoint_path)
        print(f"resuming from {checkpoint_path} "
              f"({resume.rounds_completed} step(s) already applied)",
              file=sys.stderr)
    on_step = None
    if checkpoint_path:
        if resume is None:
            # A fresh run starts the file afresh; each save appends.
            FilePath(checkpoint_path).unlink(missing_ok=True)
        on_step = lambda cp: ckpt.save(checkpoint_path, cp)  # noqa: E731
    result = spec.normalize(resume=resume, on_step=on_step)
    if checkpoint_path:
        # The run converged; the checkpoint has served its purpose.
        FilePath(checkpoint_path).unlink(missing_ok=True)
    for index, step in enumerate(result.steps, start=1):
        print(f"step {index}: {step.description}", file=sys.stderr)
    print(serialize_dtd(result.dtd), end="")
    if result.sigma:
        print()
        for fd in result.sigma:
            print(f"# FD: {fd}")
    if args.output:
        out = FilePath(args.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / "normalized.dtd").write_text(serialize_dtd(result.dtd))
        (out / "normalized.fds").write_text(
            "".join(f"{fd}\n" for fd in result.sigma))
        print(f"\nwritten to {out}/", file=sys.stderr)
    return EXIT_OK


def _cmd_implies(args: argparse.Namespace) -> int:
    spec = _load_spec(args.dtd, args.fds, args.root)
    fd = FD.parse(args.fd)
    verdict = spec.decide(fd)
    if verdict.value == UNKNOWN:
        print(f"unknown ({verdict.reason})")
        return EXIT_RESOURCE
    answer = verdict.value == YES
    print("implied" if answer else "not implied")
    return EXIT_OK if answer else EXIT_NEGATIVE


def _cmd_tuples(args: argparse.Namespace) -> int:
    dtd = parse_dtd(FilePath(args.dtd).read_text(), root=args.root)
    tree = parse_xml(FilePath(args.xml).read_text())
    from repro.tuples.extract import tuples_of
    tuples = tuples_of(tree, dtd)
    paths = sorted({p for t in tuples for p in t.paths}, key=str)
    print("\t".join(str(p) for p in paths))
    for tuple_ in tuples:
        print("\t".join(tuple_.get(p) or "_|_" for p in paths))
    print(f"# {len(tuples)} tuple(s)", file=sys.stderr)
    return EXIT_OK


def _cmd_explain(args: argparse.Namespace) -> int:
    spec = _load_spec(args.dtd, args.fds, args.root)
    from repro.fd.explain import explain_implication
    print(explain_implication(spec.dtd, spec.sigma, args.fd), end="")
    return EXIT_OK


def _cmd_analyze(args: argparse.Namespace) -> int:
    spec = _load_spec(args.dtd, args.fds, args.root)
    from repro.report import analyze
    documents = [parse_xml(FilePath(path).read_text())
                 for path in args.xml]
    report = analyze(spec, documents)
    print(report.render(), end="")
    return EXIT_OK if report.in_xnf else EXIT_NEGATIVE


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import cli as bench_cli
    return bench_cli.dispatch(args)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import cli as obs_cli
    return obs_cli.dispatch(args)


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
        print("error: --resume requires --journal FILE",
              file=sys.stderr)
        return EXIT_USAGE
    manifest = manifest_mod.load(args.manifest)
    seed = args.seed if args.seed is not None else manifest.seed
    policy = RetryPolicy(retries=args.retries,
                         backoff_base_ms=args.backoff_base, seed=seed)
    board = BreakerBoard(threshold=args.breaker_threshold,
                         probe_interval=args.breaker_probe_interval)
    try:
        workers = resolve_workers(args.workers,
                                  task_count=manifest.task_count)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
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
    # Everything opened below closes, last opened first, on every way
    # out: the heartbeat writer emits its final record before its
    # stream closes.
    closing = contextlib.ExitStack()
    journal = None
    if args.journal:
        from repro.runtime.journal import open_journal
        # May raise JournalError (exit 2): a mismatched meta record or
        # an unopenable/edited file means the journal cannot apply to
        # this invocation.  A torn trailing record is truncated with a
        # counted warning instead.
        journal = open_journal(args.journal, manifest=manifest,
                               policy=policy, board=board,
                               ensemble_mode=args.ensemble,
                               resume=args.resume)
        closing.callback(journal.close)
        if args.resume:
            print(f"journal: resuming from {args.journal}: "
                  f"{journal.skipped} task(s) already complete, "
                  f"{journal.in_flight} in flight at interruption",
                  file=sys.stderr)
    with closing:
        consumers = []
        heartbeat_file = getattr(args, "heartbeat", None)
        if heartbeat_file:
            from repro.runtime.heartbeat import HeartbeatWriter
            # stdout is reserved for the JSON summary; "-" streams the
            # heartbeats to stderr so `xnf batch m.json | jq .` parses.
            heartbeat_stream = sys.stderr
            if heartbeat_file != "-":
                try:
                    heartbeat_stream = open(heartbeat_file, "w")
                except OSError as error:
                    print(f"error: cannot open heartbeat file: {error}",
                          file=sys.stderr)
                    return EXIT_ERROR
                closing.callback(heartbeat_stream.close)
            writer = HeartbeatWriter(
                heartbeat_stream, total=manifest.task_count, board=board,
                pool=pool, journal=journal,
                interval_s=args.heartbeat_interval)
            closing.callback(writer.close)
            consumers.append(writer.task_done)
        ledger_file = getattr(args, "ledger", None)
        if ledger_file:
            from repro.obs.ledger import LedgerWriter
            try:
                # Append: the ledger is a history; each run adds records
                # under a fresh run id, and `obs regress` compares runs.
                # Readable too, so the writer can cut a torn last record.
                ledger_stream = open(ledger_file, "a+")
            except OSError as error:
                print(f"error: cannot open ledger file: {error}",
                      file=sys.stderr)
                return EXIT_ERROR
            closing.callback(ledger_stream.close)
            consumers.append(LedgerWriter(
                ledger_stream, manifest=manifest,
                fsync=args.ledger_fsync).task_done)
        if not consumers:
            on_task_done = None
        elif len(consumers) == 1:
            on_task_done = consumers[0]
        else:
            def on_task_done(outcome):
                for consumer in consumers:
                    consumer(outcome)
        summary = batch_mod.run_batch(
            manifest, policy=policy, board=board,
            ensemble_mode=args.ensemble,
            on_task_done=on_task_done,
            backend=pool, journal=journal)
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
        jstats = journal.stats()
        print(f"journal: {jstats['appended']} record(s) appended, "
              f"{jstats['skipped']} task(s) skipped as complete, "
              f"{jstats['replayed']} re-dispatched", file=sys.stderr)
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

    # A service without metrics is blind: serve always records and
    # publishes the registry on its own /metrics.
    obs_was_enabled = obs.is_enabled()
    obs.enable()
    overrides = {
        name: value for name, value in (
            ("timeout", getattr(args, "timeout", None)),
            ("max_steps", getattr(args, "max_steps", None)),
            ("max_branches", getattr(args, "max_branches", None)),
            ("max_nodes", getattr(args, "max_nodes", None)))
        if value is not None}
    server = NormalizationServer(
        args.port, args.host,
        max_inflight=args.max_inflight, max_queue=args.max_queue,
        queue_timeout_s=args.queue_timeout,
        drain_deadline_s=args.drain_deadline,
        cache_capacity=args.cache_size,
        defaults=BudgetDefaults(**overrides))
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
        # flag: nothing ran, nothing partial exists — including the
        # obs enablement above (in-process callers keep their state).
        if not obs_was_enabled:
            obs.disable()
        print(f"error: cannot bind {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return EXIT_USAGE
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


def _cmd_classify(args: argparse.Namespace) -> int:
    from repro.dtd.classify import (
        disjunction_measure, is_disjunctive_dtd, is_simple_dtd)
    dtd = parse_dtd(FilePath(args.dtd).read_text(), root=args.root)
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
    norm.add_argument("--checkpoint", metavar="FILE",
                      help="snapshot the run to FILE after every applied "
                      "transform (deleted on success)")
    norm.add_argument("--resume", action="store_true",
                      help="restart from the checkpoint in --checkpoint "
                      "FILE instead of from scratch")
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

    from repro.bench.cli import configure_parser as _configure_bench
    ben = sub.add_parser("bench",
                         help="benchmark observatory "
                         "(docs/BENCHMARKS.md)")
    _configure_bench(ben)
    ben.set_defaults(func=_cmd_bench)

    from repro.obs.cli import configure_parser as _configure_obs
    obs_parser = sub.add_parser("obs",
                                help="profiling observatory: fold "
                                "--trace logs into profiles "
                                "(docs/OBSERVABILITY.md)")
    _configure_obs(obs_parser)
    obs_parser.set_defaults(func=_cmd_obs)

    def _nonneg_int(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def _nonneg_float(text: str) -> float:
        value = float(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    def _pos_int(text: str) -> int:
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

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
                     "'auto' (one per CPU core, the default) or an "
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
    bat.add_argument("--heartbeat", metavar="FILE",
                     help="append JSON-lines progress heartbeats to "
                     "FILE while the batch runs ('-' streams them to "
                     "stderr)")
    bat.add_argument("--heartbeat-interval", type=_nonneg_float,
                     default=1.0, metavar="SECONDS",
                     help="minimum seconds between heartbeat records; "
                     "0 emits one per completed task (default 1)")
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
                     help="write-ahead journal: append an fsync'd "
                     "intent record before each dispatch and a result "
                     "record as each task commits, in index order, so "
                     "a killed supervisor can --resume without redoing "
                     "or losing any completed task")
    bat.add_argument("--resume", action="store_true",
                     help="replay the --journal FILE: verify its meta "
                     "fingerprints (mismatch exits 2), skip completed "
                     "tasks, re-dispatch in-flight ones, and emit a "
                     "summary byte-identical to an uninterrupted "
                     "serial run (docs/ROBUSTNESS.md)")
    bat.set_defaults(func=_cmd_batch)

    def _pos_float(text: str) -> float:
        value = float(text)
        if value <= 0:
            raise argparse.ArgumentTypeError("must be positive")
        return value

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    want_stats = bool(getattr(args, "stats", False)) or (
        os.environ.get("REPRO_OBS", "") not in ("", "0"))
    trace_file = getattr(args, "trace", None)
    budget_kwargs = {
        "deadline": getattr(args, "timeout", None),
        "max_steps": getattr(args, "max_steps", None),
        "max_branches": getattr(args, "max_branches", None),
        "max_nodes": getattr(args, "max_nodes", None),
    }
    flag_names = {"deadline": "--timeout", "max_steps": "--max-steps",
                  "max_branches": "--max-branches",
                  "max_nodes": "--max-nodes"}
    for key, value in budget_kwargs.items():
        if value is not None and value <= 0:
            parser.error(f"{flag_names[key]} must be positive")

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

    was_enabled = obs.is_enabled()
    sink = None
    trace_stream = None
    exporter = None
    want_obs = want_stats or bool(trace_file) or metrics_port is not None
    if want_obs:
        obs.enable()
        if not was_enabled:
            obs.reset()  # the table should cover this run only
        if metrics_port is not None:
            try:
                exporter = obs.start_exporter(metrics_port)
            except OSError as error:
                print(f"error: cannot start metrics exporter: {error}",
                      file=sys.stderr)
                if not was_enabled:
                    obs.disable()
                return EXIT_ERROR
            print(f"metrics: serving on {exporter.url('/metrics')} "
                  f"(and /healthz)", file=sys.stderr)
        if trace_file:
            try:
                trace_stream = open(trace_file, "w")
            except OSError as error:
                print(f"error: cannot open trace file: {error}",
                      file=sys.stderr)
                if exporter is not None:
                    exporter.stop()
                if not was_enabled:
                    obs.disable()
                return EXIT_ERROR
            sink = obs.JsonLinesSink(trace_stream)
            obs.add_sink(sink)
            # One trace id per invocation: every span of this run —
            # including spans shipped back from forked pool workers —
            # carries it, so stitched records are attributable to the
            # invocation that produced them.
            import uuid
            obs.set_context(
                obs.SpanContext(trace_id=uuid.uuid4().hex[:16]))
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
    # `serve` interprets the budget flags as per-request ceilings
    # (installed thread-scoped around each request by the handlers); a
    # process-wide install here would tick across all requests and the
    # deadline would kill the daemon itself.
    process_budget = {} if args.command == "serve" else budget_kwargs
    try:
        with obs.span(f"cli.{args.command}"):
            with guard.limits(**process_budget):
                if fault_plan is not None:
                    from repro import faults
                    with faults.use(fault_plan):
                        return args.func(args)
                return args.func(args)
    except ResourceExhausted as error:
        print(f"error: resource limit reached: {error}", file=sys.stderr)
        if error.partial:
            detail = ", ".join(f"{k}={v}" for k, v
                               in sorted(error.partial.items()))
            print(f"partial progress: {detail}", file=sys.stderr)
        return EXIT_RESOURCE
    except (CheckpointError, JournalError, ManifestError) as error:
        # A bad/mismatched checkpoint or journal or an unusable batch
        # manifest is a usage problem, not a pipeline failure: the
        # flags/arguments named something that cannot apply to this
        # invocation.
        print(f"error: {error}", file=sys.stderr)
        return EXIT_USAGE
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if exporter is not None:
            exporter.stop()
        if sink is not None:
            obs.remove_sink(sink)
            obs.clear_context()
            assert trace_stream is not None
            trace_stream.close()
        if want_stats:
            print(obs.render.metrics_table(obs.snapshot()),
                  file=sys.stderr, end="")
        if not was_enabled and want_obs:
            obs.disable()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
