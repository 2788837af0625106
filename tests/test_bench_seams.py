"""The seam-gate harness (``python -m repro.bench.seams``), run once
per gate with tiny loop counts: every gate must still reach the real
code it measures, so a rename breaks this suite and not only CI."""

from __future__ import annotations

import pytest

from repro.bench import seams
from repro.runtime.batch import BatchRunner

#: Workload sizes small enough for the unit suite.
TINY = {"guard": {"rounds": 1}, "serve": {"requests": 2}}


@pytest.mark.parametrize("name", sorted(seams.GATES))
def test_gate_measures_a_seam_and_positive_work(name):
    seam, work = seams.GATES[name](loops=50, repeats=1,
                                   **TINY.get(name, {"tasks": 2}))
    assert seam >= 0.0
    assert work > 0.0


@pytest.mark.parametrize("name, methods", [
    ("journal", ("commit",)),
    ("obs-export", ("commit",)),
    ("ledger", ("_run_task",)),
    ("runtime", ("_run_task", "_attempt", "summarize")),
])
def test_gate_goes_through_the_batch_runner(monkeypatch, name, methods):
    calls = dict.fromkeys(methods, 0)
    for method in methods:
        original = getattr(BatchRunner, method)

        def spy(self, *args, _method=method, _original=original):
            calls[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(BatchRunner, method, spy)
    seams.GATES[name](loops=50, repeats=1, tasks=2)
    assert all(calls.values()), calls


def test_measure_subtracts_the_empty_loop():
    seam, work = seams.measure(lambda: None, 4, [(seams._empty, 3.0)],
                               loops=1000, repeats=3)
    assert seam < 1e-6
    assert work >= 0.0


def test_main_fails_when_one_gate_exceeds_the_bound(monkeypatch, capsys):
    readings = {name: (0.001, 1.0) for name in seams.GATES}
    readings["serve"] = (0.02, 1.0)
    monkeypatch.setattr(seams, "GATES", {
        name: lambda loops, repeats, reading=reading: reading
        for name, reading in readings.items()})
    assert seams.main() == 1
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[0] for row in rows] == list(readings)
    assert [row.split()[-1] for row in rows].count("FAIL") == 1
