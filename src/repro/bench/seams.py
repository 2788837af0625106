"""Seam gates: a mechanism nobody switched on costs under 1% of the
work it wraps.

Every opt-in mechanism around the paper's engines leaves a *seam* on
the path it wraps: the few operations a run still pays while the
mechanism is off.  Timing two whole runs A/B cannot resolve 1% of a
few milliseconds on a noisy machine, so every gate uses one method:

1. time exactly the disabled seam's operations, through the real
   code, in a tight loop;
2. subtract the empty loop;
3. divide by the measured cost of one unit of the work the seam wraps.

Each repeat times the work, every seam loop and the empty loop back to
back, and each keeps its best time, so the minima that form a ratio
come from the same stretch of machine time.

The gates, each a seam per unit of work:

* ``guard`` — one ``active`` read per query and one ``is None`` test
  per tick a live budget counts, per run of the ``guard.*`` workload;
* ``runtime`` — ``BatchRunner._run_task`` around a stubbed
  ``_execute``, plus its share of ``summarize``, per corpus task's
  ``_execute`` (the ``runtime.*`` workload);
* ``obs-export`` — ``BatchRunner.commit`` with a no-op
  ``on_task_done`` hook attached, per corpus task;
* ``ledger`` — the measurement around one attempt
  (``BatchRunner._run_attempt``), per corpus task;
* ``journal`` — the skip-set test, ``commit`` and ``sync`` without a
  journal, per corpus task;
* ``serve`` — two clock reads, one admission round trip and the
  disabled ``account`` call, per warm cache-hit query on a keep-alive
  connection.

Run:  python -m repro.bench.seams   (exit 1 when any gate exceeds 1%)
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable

#: The contract every gate holds: seam / work below 1%.
BOUND = 0.01


def _empty(loops: int) -> None:
    for _ in range(loops):
        pass


def measure(work: Callable[[], object], units: int,
            seams: list[tuple[Callable[[int], object], float]],
            loops: int, repeats: int) -> tuple[float, float]:
    """``(seam_s, work_s)`` per unit of work.  ``work()`` performs
    ``units`` units; each ``(body, count)`` seam runs its operations
    ``loops`` times per ``body(loops)`` call, costs its best time less
    the empty loop's, and is paid ``count`` times per unit."""
    bodies = [work, *(lambda body=body: body(loops) for body, _ in seams),
              lambda: _empty(loops)]
    best = [float("inf")] * len(bodies)
    for round_ in range(repeats + 1):  # round 0 only warms up
        for index, body in enumerate(bodies):
            started = time.perf_counter()
            body()
            if round_:
                best[index] = min(best[index],
                                  time.perf_counter() - started)
    empty = best[-1]
    seam = sum(count * max(0.0, spent - empty) / loops
               for (_, count), spent in zip(seams, best[1:-1]))
    return seam, best[0] / units


def _corpus(tasks: int, **runner_kwargs):
    """A runner over the shared ``runtime.*`` corpus workload, its
    first task, and the direct ``_execute`` pass over every task (on a
    runner of its own, which no gate stubs)."""
    from repro.bench.suites.runtime import (
        make_direct,
        make_manifest,
        make_runner,
    )
    manifest = make_manifest(tasks)
    return (make_runner(manifest, **runner_kwargs), manifest.tasks[0],
            make_direct(manifest))


def guard_gate(loops: int, repeats: int,
               rounds: int = 25) -> tuple[float, float]:
    from repro.bench.suites.guard import QUERIES, make_workload
    from repro.guard import budget as _guard
    workload = make_workload(rounds)
    with _guard.limits(max_steps=10**9, max_branches=10**9,
                       max_nodes=10**9) as live:
        workload()
    ticks = live.steps + live.branches + live.nodes

    def entry(loops: int) -> None:
        for _ in range(loops):
            budget = _guard.current() if _guard.active else None

    def tick(loops: int) -> None:
        budget = None
        for _ in range(loops):
            if budget is not None:
                pass

    return measure(workload, 1, [(entry, rounds * len(QUERIES)),
                                 (tick, ticks)], loops, repeats)


def runtime_gate(loops: int, repeats: int,
                 tasks: int = 30) -> tuple[float, float]:
    runner, task, direct = _corpus(tasks)
    result = runner._execute(task)
    runner._execute = lambda task: result
    outcomes = [runner._run_task(task) for _ in range(tasks)]

    def run_task(loops: int) -> None:
        for _ in range(loops):
            runner._run_task(task)

    def summarize(loops: int) -> None:  # ``loops`` tasks' shares
        for _ in range(loops // tasks):
            runner.summarize(outcomes)

    return measure(direct, tasks, [(run_task, 1), (summarize, 1)],
                   loops, repeats)


def obs_export_gate(loops: int, repeats: int,
                    tasks: int = 30) -> tuple[float, float]:
    from repro.runtime.batch import TaskOutcome
    runner, task, direct = _corpus(tasks,
                                   on_task_done=lambda outcome: None)
    outcome, outcomes = TaskOutcome(task=task), {}

    def commit(loops: int) -> None:
        for _ in range(loops):
            runner.commit(0, outcome, outcomes)

    return measure(direct, tasks, [(commit, 1)], loops, repeats)


def ledger_gate(loops: int, repeats: int,
                tasks: int = 30) -> tuple[float, float]:
    from repro.runtime.batch import TaskOutcome
    runner, task, direct = _corpus(tasks)
    runner._fold_attempt = lambda outcome: None
    outcome = TaskOutcome(task=task)

    def wrapper(loops: int) -> None:
        for _ in range(loops):
            runner._run_attempt(outcome)

    return measure(direct, tasks, [(wrapper, 1)], loops, repeats)


def journal_gate(loops: int, repeats: int,
                 tasks: int = 30) -> tuple[float, float]:
    from repro.runtime.batch import TaskOutcome
    runner, task, direct = _corpus(tasks)
    assert runner.journal is None
    outcome, outcomes, skip = TaskOutcome(task=task), {}, frozenset()

    def seam(loops: int) -> None:
        for index in range(loops):
            if index in skip:
                continue
            runner.commit(0, outcome, outcomes)
            runner.sync()

    return measure(direct, tasks, [(seam, 1)], loops, repeats)


def serve_gate(loops: int, repeats: int,
               requests: int = 50) -> tuple[float, float]:
    import http.client

    from repro.serve import AdmissionGate, Decision, NormalizationServer
    from repro.serve.server import account
    gate = AdmissionGate(max_inflight=4)

    def seam(loops: int) -> None:
        for _ in range(loops):
            started = time.perf_counter()
            if gate.admit() is Decision.ADMITTED:
                gate.release()
            account("/v1/implication", 200,
                    time.perf_counter() - started)

    dtd = ("<!ELEMENT db (row*)>\n<!ELEMENT row EMPTY>\n"
           "<!ATTLIST row a CDATA #REQUIRED b CDATA #REQUIRED>")
    body = json.dumps({"dtd": dtd, "fds": "db.row.@a -> db.row.@b",
                       "fd": "db.row.@a -> db.row.@b"}).encode()
    headers = {"Content-Type": "application/json"}
    with NormalizationServer(0) as server:
        client = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)

        def burst() -> None:
            for _ in range(requests):
                client.request("POST", "/v1/implication", body, headers)
                response = client.getresponse()
                response.read()
                assert response.status == 200, response.status

        try:
            return measure(burst, requests, [(seam, 1)], loops, repeats)
        finally:
            client.close()


#: Every gate, in report order: ``gate(loops, repeats)`` returns
#: ``(seam_s, work_s)`` per unit of work.
GATES: dict[str, Callable[..., tuple[float, float]]] = {
    "guard": guard_gate,
    "runtime": runtime_gate,
    "obs-export": obs_export_gate,
    "ledger": ledger_gate,
    "journal": journal_gate,
    "serve": serve_gate,
}


def main() -> int:
    from repro import obs
    obs.disable()
    print(f"{'gate':<11} {'seam us':>9} {'work us':>10} "
          f"{'seam/work':>9}  verdict (bound {BOUND:.0%})")
    failed = 0
    for name, gate in GATES.items():
        seam, work = gate(loops=20_000, repeats=10)
        ratio = seam / work
        failed += ratio > BOUND
        print(f"{name:<11} {seam * 1e6:>9.3f} {work * 1e6:>10.1f} "
              f"{ratio:>9.2%}  {'PASS' if ratio <= BOUND else 'FAIL'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
