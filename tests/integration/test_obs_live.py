"""Live-observability acceptance: scrape a running batch, watch its
gauges drain, and hold the profiler to its coverage bar.

Scale knob: ``REPRO_OBS_LIVE_TASKS`` sets the batch size (CI: 200;
default 40 keeps the local tier-1 run fast).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import urllib.request

import pytest

from repro import obs
from repro.cli import main
from repro.obs.export import MetricsExporter
from repro.obs.profile import load_profile
from repro.runtime import corpus
from repro.runtime import manifest as mf
from repro.runtime.batch import run_batch

LIVE_TASKS = int(os.environ.get("REPRO_OBS_LIVE_TASKS", "40"))

#: The checkout under test: subprocesses run its ``src``, not whatever
#: copy of the package the interpreter would find.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def scrape(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode("utf-8")


def series_value(body: str, family: str) -> float:
    match = re.search(rf"^{re.escape(family)} (\S+)$", body,
                      flags=re.MULTILINE)
    assert match, f"{family} not found in scrape"
    return float(match.group(1))


def live_manifest() -> mf.Manifest:
    return mf.from_payload(
        corpus.generate_manifest(LIVE_TASKS, seed=1))


class TestLiveScrape:
    def test_metrics_increase_during_batch(self):
        """/metrics answers *during* the run with valid text whose
        runtime counters are present and growing, against the run's
        size in ``runtime_batch_tasks_total``."""
        obs.enable()
        manifest = live_manifest()
        scrape_points = sorted({1, LIVE_TASKS // 2, LIVE_TASKS})
        samples: list[float] = []
        bodies: list[str] = []
        done = 0

        with MetricsExporter(port=0) as exporter:
            url = exporter.url("/metrics")

            def hook(outcome) -> None:
                nonlocal done
                done += 1
                if done in scrape_points:
                    body = scrape(url)
                    bodies.append(body)
                    samples.append(
                        series_value(body, "runtime_tasks_total"))
                    assert series_value(
                        body, "runtime_batch_tasks_total") == LIVE_TASKS

            summary = run_batch(manifest, on_task_done=hook)

        assert summary["counts"]["lost"] == 0
        assert len(samples) == len(scrape_points)
        # Present, non-zero, and strictly increasing across the run.
        assert all(value > 0 for value in samples)
        assert samples == sorted(samples)
        assert samples[0] < samples[-1]
        assert samples[-1] == LIVE_TASKS
        final = bodies[-1]
        assert series_value(final, "runtime_tasks_ok_total") > 0
        assert series_value(final, "runtime_attempts_total") \
            >= LIVE_TASKS
        # The batch drives the engines, so implication work shows up.
        assert re.search(r"^implication_\w+ [1-9]", final,
                         flags=re.MULTILINE)

class TestProfileAcceptance:
    def _scaled_files(self, tmp_path, k: int = 8):
        lines = ["<!ELEMENT uni (%s)>" % ", ".join(
            f"courses{i}" for i in range(k))]
        fd_lines: list[str] = []
        for i in range(k):
            lines.extend([
                f"<!ELEMENT courses{i} (course{i}*)>",
                f"<!ELEMENT course{i} (title{i}, taken_by{i})>",
                f"<!ATTLIST course{i} cno CDATA #REQUIRED>",
                f"<!ELEMENT title{i} (#PCDATA)>",
                f"<!ELEMENT taken_by{i} (student{i}*)>",
                f"<!ELEMENT student{i} (name{i}, grade{i})>",
                f"<!ATTLIST student{i} sno CDATA #REQUIRED>",
                f"<!ELEMENT name{i} (#PCDATA)>",
                f"<!ELEMENT grade{i} (#PCDATA)>",
            ])
            course = f"uni.courses{i}.course{i}"
            student = f"{course}.taken_by{i}.student{i}"
            fd_lines.extend([
                f"{course}.@cno -> {course}",
                f"{{{course}, {student}.@sno}} -> {student}",
                f"{student}.@sno -> {student}.name{i}.S",
            ])
        dtd = tmp_path / "scaled.dtd"
        dtd.write_text("\n".join(lines) + "\n")
        fds = tmp_path / "scaled.fds"
        fds.write_text("\n".join(fd_lines) + "\n")
        return str(dtd), str(fds)

    def test_scaled_normalize_coverage(self, tmp_path, capsys):
        """The ISSUE acceptance bar: >=95% of the root CLI span's wall
        time is attributed to named child spans."""
        dtd, fds = self._scaled_files(tmp_path)
        trace = tmp_path / "trace.jsonl"
        code = main(["--trace", str(trace), "normalize", dtd, fds])
        capsys.readouterr()  # swallow the normalized DTD
        assert code == 0
        profile = load_profile(trace)
        assert profile.roots[0].name == "cli.normalize"
        assert profile.coverage >= 0.95, \
            f"only {profile.coverage:.1%} of root wall time attributed"
        assert "spec.parse" in profile.by_name

    def test_report_bytes_independent_of_hash_seed(self, tmp_path):
        """`xnf obs report`/`flame` output is byte-identical across
        interpreter hash seeds."""
        trace = tmp_path / "trace.jsonl"
        records = [
            {"id": 1, "name": "root", "duration_ms": 10.0, "start": 0.0,
             "counters": {"b.ops": 2, "a.ops": 1, "z.ops": 9}},
            {"id": 2, "name": "child", "duration_ms": 4.0, "parent": 1,
             "start": 1.0, "counters": {"z.ops": 5, "a.ops": 1}},
        ]
        trace.write_text("".join(json.dumps(record) + "\n"
                                 for record in records))
        outputs = {}
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH="src")
            result = subprocess.run(
                [sys.executable, "-m", "repro.obs", "report",
                 str(trace)],
                capture_output=True, cwd=REPO_ROOT, env=env)
            assert result.returncode == 0, result.stderr
            flame = subprocess.run(
                [sys.executable, "-m", "repro.obs", "flame",
                 str(trace)],
                capture_output=True, cwd=REPO_ROOT, env=env)
            assert flame.returncode == 0, flame.stderr
            outputs[seed] = result.stdout + flame.stdout
        assert outputs["0"] == outputs["4242"]


class TestGaugeDrain:
    """Satellite acceptance: pool/breaker liveness gauges return to 0
    once the pool drains, observed through a real exporter scrape."""

    BAD_DTD = "<!ELEMENT broken"  # unparseable: same permanent
    # failure signature for every task that carries it.

    def _faulted_manifest(self):
        payload = corpus.generate_manifest(6, seed=2)
        tasks = [{"id": f"bad-{i:02d}", "op": "check",
                  "dtd_text": self.BAD_DTD} for i in range(4)]
        tasks.extend(payload["tasks"])
        payload["tasks"] = tasks
        payload["count"] = len(tasks)
        return mf.from_payload(payload)

    def test_gauges_return_to_zero_after_pool_drain(self):
        from repro.runtime.breaker import BreakerBoard as Board
        from repro.runtime.pool import PoolBackend, pool_available

        if not pool_available():
            pytest.skip("fork start method unavailable")

        obs.enable()
        manifest = self._faulted_manifest()
        board = Board(threshold=2)
        pool = PoolBackend(2)
        in_flight: list[str] = []

        with MetricsExporter(port=0) as exporter:
            url = exporter.url("/metrics")

            def hook(outcome) -> None:
                in_flight.append(scrape(url))

            summary = run_batch(manifest, board=board,
                                on_task_done=hook, backend=pool)
            drained = scrape(url)

        assert summary["counts"]["failed"] == 4
        assert summary["counts"]["lost"] == 0
        # Mid-run the gauges were live: workers up, and the repeated
        # failure signature opened (and kept open) a breaker.
        assert any(series_value(body, "runtime_pool_workers_alive") > 0
                   for body in in_flight)
        assert series_value(in_flight[-1], "runtime_breaker_open") >= 1
        # After the drain both liveness gauges read exactly 0 — not
        # stale, not absent.
        assert series_value(drained, "runtime_pool_workers_alive") == 0
        assert series_value(drained, "runtime_breaker_open") == 0
