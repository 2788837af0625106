"""Unit tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.datasets.dblp import DBLP_DOCUMENT, DBLP_DTD, DBLP_FDS
from repro.datasets.university import UNIVERSITY_DTD, UNIVERSITY_FDS


@pytest.fixture
def university_files(tmp_path):
    dtd = tmp_path / "university.dtd"
    dtd.write_text(UNIVERSITY_DTD)
    fds = tmp_path / "university.fds"
    fds.write_text(UNIVERSITY_FDS)
    return str(dtd), str(fds)


@pytest.fixture
def dblp_files(tmp_path):
    dtd = tmp_path / "dblp.dtd"
    dtd.write_text(DBLP_DTD)
    fds = tmp_path / "dblp.fds"
    fds.write_text(DBLP_FDS)
    xml = tmp_path / "dblp.xml"
    xml.write_text(DBLP_DOCUMENT)
    return str(dtd), str(fds), str(xml)


class TestCheck:
    def test_not_in_xnf_exit_code(self, university_files, capsys):
        code = main(["check", *university_files])
        assert code == 1
        out = capsys.readouterr().out
        assert "NOT in XNF" in out
        assert "anomalous" in out

    def test_in_xnf(self, tmp_path, capsys):
        dtd = tmp_path / "d.dtd"
        dtd.write_text("<!ELEMENT db (G*)>\n<!ELEMENT G EMPTY>\n"
                       "<!ATTLIST G A CDATA #REQUIRED>")
        fds = tmp_path / "d.fds"
        fds.write_text("db.G.@A -> db.G\n")
        assert main(["check", str(dtd), str(fds)]) == 0
        assert "is in XNF" in capsys.readouterr().out


class TestNormalize:
    def test_university(self, university_files, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code = main(["normalize", *university_files, "-o", str(out_dir)])
        assert code == 0
        captured = capsys.readouterr()
        assert "<!ELEMENT" in captured.out
        assert (out_dir / "normalized.dtd").exists()
        assert (out_dir / "normalized.fds").exists()

    def test_dblp_moves_attribute(self, dblp_files, capsys):
        dtd, fds, _xml = dblp_files
        assert main(["normalize", dtd, fds]) == 0
        captured = capsys.readouterr()
        assert "year" in captured.out


class TestImplies:
    def test_implied(self, university_files, capsys):
        code = main(["implies", *university_files,
                     "courses.course -> courses.course.title"])
        assert code == 0
        assert "implied" in capsys.readouterr().out

    def test_not_implied(self, university_files, capsys):
        code = main([
            "implies", *university_files,
            "courses.course.taken_by.student.@sno -> "
            "courses.course.taken_by.student"])
        assert code == 1
        assert "not implied" in capsys.readouterr().out


class TestTuples:
    def test_table_output(self, dblp_files, capsys):
        dtd, _fds, xml = dblp_files
        assert main(["tuples", dtd, xml]) == 0
        out = capsys.readouterr().out
        assert "db.conf.issue.inproceedings.@year" in out
        assert "2002" in out


class TestClassify:
    def test_simple_dtd(self, university_files, capsys):
        dtd, _fds = university_files
        assert main(["classify", dtd]) == 0
        out = capsys.readouterr().out
        assert "simple:      True" in out
        assert "recursive:   False" in out


class TestExplain:
    def test_explain_positive(self, university_files, capsys):
        code = main(["explain", *university_files,
                     "courses.course.@cno -> courses.course.title.S"])
        assert code == 0
        out = capsys.readouterr().out
        assert "goal reached" in out

    def test_explain_negative(self, university_files, capsys):
        code = main([
            "explain", *university_files,
            "courses.course.taken_by.student.@sno -> "
            "courses.course.taken_by.student.name"])
        assert code == 0
        assert "not implied" in capsys.readouterr().out

    @pytest.mark.parametrize("query", [
        "courses.course.@cno -> courses.course.title.S",
        "{courses.course, courses.course.taken_by.student.@sno} -> "
        "courses.course.taken_by.student.name.S",
    ])
    def test_explain_is_independent_of_the_hash_seed(
            self, university_files, query):
        """The derivation is byte-identical under two string-hash
        seeds: the closure iterates in path-step order, never in set
        order."""
        import os
        import subprocess
        import sys

        def explain(seed: str) -> bytes:
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("REPRO_FAULTS", None)
            return subprocess.run(
                [sys.executable, "-m", "repro", "explain",
                 *university_files, query],
                capture_output=True, check=True, env=env).stdout

        first = explain("0")
        assert b"goal reached" in first
        assert explain("4242") == first


class TestAnalyze:
    def test_analyze_with_document(self, university_files, tmp_path,
                                   capsys):
        from repro.datasets.university import UNIVERSITY_DOCUMENT
        xml = tmp_path / "doc.xml"
        xml.write_text(UNIVERSITY_DOCUMENT)
        code = main(["analyze", *university_files, str(xml)])
        assert code == 1  # not in XNF
        out = capsys.readouterr().out
        assert "redundant copies=1" in out
        assert "normalization plan" in out


class TestErrors:
    def test_bad_dtd_reports_error(self, tmp_path, capsys):
        dtd = tmp_path / "bad.dtd"
        dtd.write_text("<!ELEMENT broken>")
        fds = tmp_path / "bad.fds"
        fds.write_text("")
        # ReproError is the documented exit code 3 (2 is usage).
        assert main(["check", str(dtd), str(fds)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_usage_error_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["no-such-command"])
        assert excinfo.value.code == 2

    def test_bad_fd_is_exit_3(self, tmp_path, capsys):
        dtd = tmp_path / "d.dtd"
        dtd.write_text("<!ELEMENT db (G*)>\n<!ELEMENT G EMPTY>\n"
                       "<!ATTLIST G A CDATA #REQUIRED>")
        fds = tmp_path / "d.fds"
        fds.write_text("db.G.@A ->\n")
        assert main(["check", str(dtd), str(fds)]) == 3
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err


class TestMainModule:
    def test_python_dash_m_repro(self, university_files):
        import subprocess, sys
        dtd, fds = university_files
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", dtd, fds],
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "NOT in XNF" in proc.stdout


class TestColdImports:
    """Start-up pins: a CLI command loads no HTTP stack and no engine
    ensemble, a serving process neither the load generator's urllib
    nor the batch runtime, and the implication engines no batch
    runtime."""

    @pytest.mark.parametrize("module, unwanted", [
        ("repro.cli", ["http.server", "repro.fd.ensemble"]),
        ("repro.serve.server", ["urllib.request", "repro.runtime"]),
        # Record files need repro.records, not the ledger's reader and
        # the benchmark comparator behind it.
        ("repro.runtime.journal", ["repro.obs.ledger", "repro.bench"]),
        ("repro.serve.cache", ["repro.obs.ledger", "repro.bench"]),
        ("repro.fd.implication", ["repro.runtime"]),
    ])
    def test_import_leaves_out(self, module, unwanted):
        import os, subprocess, sys
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = (f"import sys, {module}\n"
                f"print([m for m in {unwanted!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_no_module_imports_tempfile(self):
        """Record files append in place (repro.records); nothing writes
        a temp file to rename over them."""
        import ast
        from pathlib import Path
        import repro
        offenders = []
        for path in Path(repro.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "tempfile" for name in names):
                    offenders.append(path.name)
        assert offenders == []


HARD_DTD = """
<!ELEMENT r ((a | b), (c | d), (e | f))>
<!ELEMENT a EMPTY> <!ELEMENT b EMPTY> <!ELEMENT c EMPTY>
<!ELEMENT d EMPTY> <!ELEMENT e EMPTY> <!ELEMENT f EMPTY>
<!ATTLIST a x CDATA #REQUIRED>
<!ATTLIST c y CDATA #REQUIRED>
"""


@pytest.fixture
def hard_files(tmp_path):
    """A disjunctive spec whose implication query trips tiny budgets."""
    dtd = tmp_path / "hard.dtd"
    dtd.write_text(HARD_DTD)
    fds = tmp_path / "hard.fds"
    fds.write_text("r.a.@x -> r.c.@y\n")
    return str(dtd), str(fds)


class TestResourceLimits:
    QUERY = "r.c.@y -> r.a.@x"

    def test_implies_unknown_is_exit_4(self, hard_files, capsys):
        code = main(["implies", "--max-steps", "5", *hard_files,
                     self.QUERY])
        assert code == 4
        out = capsys.readouterr().out
        assert "unknown" in out
        assert "steps" in out  # the tripped limit is named

    def test_flags_before_subcommand(self, hard_files, capsys):
        code = main(["--max-steps", "5", "implies", *hard_files,
                     self.QUERY])
        assert code == 4
        assert "unknown" in capsys.readouterr().out

    def test_generous_budget_decides(self, hard_files, capsys):
        code = main(["implies", "--max-steps", "100000", *hard_files,
                     self.QUERY])
        assert code == 0
        assert "implied" in capsys.readouterr().out

    def test_timeout_honored_within_factor_two(self, hard_files, capsys):
        import time
        started = time.monotonic()
        code = main(["implies", "--timeout", "0.001", *hard_files,
                     self.QUERY])
        elapsed = time.monotonic() - started
        # Either the tiny deadline tripped (exit 4) or the query won the
        # race (exit 0); it must never hang either way.
        assert code in (0, 4)
        assert elapsed < max(2 * 0.001, 1.0)

    def test_normalize_under_budget_is_exit_4(self, university_files,
                                              capsys):
        code = main(["normalize", "--max-steps", "5", *university_files])
        assert code == 4
        err = capsys.readouterr().err
        assert "resource limit reached" in err
        assert "partial progress" in err

    def test_invalid_budget_is_usage_error(self, hard_files):
        with pytest.raises(SystemExit) as excinfo:
            main(["implies", "--max-steps", "0", *hard_files, self.QUERY])
        assert excinfo.value.code == 2


class TestErrorPositions:
    """Parse errors carry source positions, rendered in CLI output."""

    def test_dtd_error_has_line_and_column(self, tmp_path, capsys):
        dtd = tmp_path / "bad.dtd"
        dtd.write_text("<!ELEMENT r (a*)>\n<!ELEMENT a (b,>\n")
        fds = tmp_path / "bad.fds"
        fds.write_text("")
        assert main(["check", str(dtd), str(fds)]) == 3
        err = capsys.readouterr().err
        assert "line 2" in err
        assert "column" in err

    def test_xml_error_has_line_and_column(self, tmp_path, capsys):
        dtd = tmp_path / "d.dtd"
        dtd.write_text("<!ELEMENT r (a*)>\n<!ELEMENT a EMPTY>\n")
        xml = tmp_path / "bad.xml"
        xml.write_text("<r>\n  <a>\n</r>\n")
        assert main(["tuples", str(dtd), str(xml)]) == 3
        err = capsys.readouterr().err
        assert "line 3" in err
        assert "column 1" in err

    def test_attlist_error_position(self, tmp_path, capsys):
        dtd = tmp_path / "d.dtd"
        dtd.write_text("<!ELEMENT r EMPTY>\n"
                       "<!ATTLIST r x CDATA #BOGUS>\n")
        fds = tmp_path / "d.fds"
        fds.write_text("")
        assert main(["check", str(dtd), str(fds)]) == 3
        err = capsys.readouterr().err
        assert "line 2" in err


class TestCheckpointCLI:
    def _spec_files(self, tmp_path, k=3):
        from repro.datasets.generators import scaled_university_spec
        from repro.dtd.serializer import serialize_dtd
        spec = scaled_university_spec(k)
        dtd = tmp_path / "u.dtd"
        dtd.write_text(serialize_dtd(spec.dtd))
        fds = tmp_path / "u.fds"
        fds.write_text("".join(f"{fd}\n" for fd in spec.sigma))
        return str(dtd), str(fds)

    def test_interrupt_and_resume_byte_identical(self, tmp_path, capsys,
                                                 monkeypatch):
        dtd, fds = self._spec_files(tmp_path)
        ckpt = str(tmp_path / "run.ckpt")
        base = main(["normalize", dtd, fds])
        assert base == 0
        expected = capsys.readouterr().out

        monkeypatch.setenv("REPRO_FAULTS",
                           "normalize.checkpoint:exception:1")
        assert main(["normalize", dtd, fds, "--checkpoint", ckpt]) == 3
        capsys.readouterr()
        monkeypatch.delenv("REPRO_FAULTS")
        import os
        assert os.path.exists(ckpt)

        assert main(["normalize", dtd, fds, "--checkpoint", ckpt,
                     "--resume"]) == 0
        captured = capsys.readouterr()
        assert captured.out == expected
        assert "resuming from" in captured.err
        # consumed on success
        assert not os.path.exists(ckpt)

    def test_version_mismatch_is_exit_2(self, tmp_path, capsys,
                                        monkeypatch):
        import json
        dtd, fds = self._spec_files(tmp_path)
        ckpt = tmp_path / "run.ckpt"
        monkeypatch.setenv("REPRO_FAULTS", "normalize.checkpoint")
        assert main(["normalize", dtd, fds,
                     "--checkpoint", str(ckpt)]) == 3
        monkeypatch.delenv("REPRO_FAULTS")
        payload = json.loads(ckpt.read_text())
        payload["version"] = 99
        ckpt.write_text(json.dumps(payload))
        assert main(["normalize", dtd, fds, "--checkpoint", str(ckpt),
                     "--resume"]) == 2
        assert "version" in capsys.readouterr().err

    def test_resume_without_checkpoint_is_exit_2(self, tmp_path,
                                                 capsys):
        dtd, fds = self._spec_files(tmp_path, k=1)
        assert main(["normalize", dtd, fds, "--resume"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_fingerprint_mismatch_is_exit_2(self, tmp_path, capsys,
                                            monkeypatch):
        dtd, fds = self._spec_files(tmp_path)
        other = tmp_path / "other"
        other.mkdir()
        other_dtd, other_fds = self._spec_files(other, k=2)
        ckpt = str(tmp_path / "run.ckpt")
        monkeypatch.setenv("REPRO_FAULTS", "normalize.checkpoint")
        assert main(["normalize", dtd, fds, "--checkpoint", ckpt]) == 3
        monkeypatch.delenv("REPRO_FAULTS")
        assert main(["normalize", other_dtd, other_fds,
                     "--checkpoint", ckpt, "--resume"]) == 2
        assert "different" in capsys.readouterr().err


class TestFaultsEnv:
    def test_repro_faults_injects(self, university_files, capsys,
                                  monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fd.closure.iteration")
        assert main(["check", *university_files]) == 3
        assert "injected" in capsys.readouterr().err

    def test_bad_spec_is_exit_2(self, university_files, capsys,
                                monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "site:bogus-kind")
        assert main(["check", *university_files]) == 2
        assert "REPRO_FAULTS" in capsys.readouterr().err

    def test_exhaustion_kind_is_exit_4(self, university_files, capsys,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS",
                           "fd.closure.iteration:exhaustion")
        assert main(["check", *university_files]) == 4
        assert "resource limit" in capsys.readouterr().err

    def test_no_plan_leaks_after_run(self, university_files,
                                     monkeypatch):
        from repro import faults
        monkeypatch.setenv("REPRO_FAULTS", "fd.closure.iteration")
        main(["check", *university_files])
        assert not faults.active


class TestBenchResourceLimits:
    def test_bench_run_budget_is_exit_4(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        code = main(["bench", "run", "--quick", "--quiet",
                     "--only", "implication", "--no-memory",
                     "--max-steps", "5", "--out", out])
        assert code == 4
        assert "resource limit reached" in capsys.readouterr().err

    def test_bench_module_matches(self, tmp_path):
        from repro.bench.cli import main as bench_main
        out = str(tmp_path / "bench.json")
        code = bench_main(["run", "--quick", "--quiet",
                           "--only", "implication", "--no-memory",
                           "--max-steps", "5", "--out", out])
        assert code == 4


class TestRobustnessCounters:
    """faults.* / checkpoint.* counters surface in --stats output."""

    def test_faults_injected_in_stats(self, university_files, capsys,
                                      monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fd.closure.iteration")
        assert main(["check", *university_files, "--stats"]) == 3
        err = capsys.readouterr().err
        assert "faults.injected" in err
        assert "faults.injected.exception" in err

    def test_checkpoint_saved_in_stats(self, tmp_path, capsys,
                                       university_files):
        ckpt = str(tmp_path / "c.ckpt")
        assert main(["normalize", *university_files,
                     "--checkpoint", ckpt, "--stats"]) == 0
        assert "checkpoint.saved" in capsys.readouterr().err

    def test_checkpoint_restored_in_stats(self, tmp_path, capsys,
                                          university_files, monkeypatch):
        ckpt = str(tmp_path / "c.ckpt")
        monkeypatch.setenv("REPRO_FAULTS", "normalize.checkpoint")
        assert main(["normalize", *university_files,
                     "--checkpoint", ckpt]) == 3
        monkeypatch.delenv("REPRO_FAULTS")
        capsys.readouterr()
        assert main(["normalize", *university_files, "--checkpoint",
                     ckpt, "--resume", "--stats"]) == 0
        assert "checkpoint.restored" in capsys.readouterr().err

    def test_bench_isolation_resets_fault_plans(self):
        from repro import faults
        from repro.bench import runner
        leaked = faults.use(
            faults.FaultPlan([faults.FaultArm(site="s")]))
        leaked.__enter__()
        assert faults.active
        runner.isolate()
        assert not faults.active


SIMPLE_BATCH_DTD = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
                    "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")


class TestBatchCLI:
    """The crash-tolerant batch runner's CLI front door."""

    @staticmethod
    def _write_manifest(tmp_path, tasks, defaults=None):
        import json
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({
            "schema": "repro.runtime.manifest", "version": 1,
            "defaults": defaults or {}, "tasks": tasks}))
        return str(path)

    @classmethod
    def _tasks(cls, count=3):
        return [{"id": f"t{i}", "op": "check",
                 "dtd_text": SIMPLE_BATCH_DTD,
                 "fds_text": "db.r.@a -> db.r.@b"}
                for i in range(count)]

    def test_summary_json_on_stdout(self, tmp_path, capsys):
        import json
        manifest = self._write_manifest(tmp_path, self._tasks())
        assert main(["batch", manifest, "--backoff-base", "0"]) == 0
        out, err = capsys.readouterr()
        summary = json.loads(out)       # stdout is pure JSON
        assert summary["schema"] == "repro.runtime.batch"
        assert summary["counts"]["ok"] == 3
        assert "batch: 3/3 ok" in err   # human account on stderr

    def test_stats_never_corrupt_the_json_stream(self, tmp_path):
        """Satellite pin: ``--stats`` (and REPRO_OBS=1) tables go to
        stderr; ``xnf batch m.json | jq .`` must always parse."""
        import json, os, subprocess, sys
        manifest = self._write_manifest(tmp_path, self._tasks())
        env = dict(os.environ, REPRO_OBS="1",
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "batch", manifest,
             "--backoff-base", "0", "--stats"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)   # would raise if corrupted
        assert summary["counts"]["lost"] == 0
        assert "runtime.tasks" in proc.stderr   # the table went here

    def test_runtime_counters_in_stats(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fd.closure.iteration")
        manifest = self._write_manifest(tmp_path, self._tasks(2))
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--stats"]) == 0
        err = capsys.readouterr().err
        assert "runtime.tasks" in err
        assert "runtime.retries" in err

    def test_ensemble_mode_reports_disagreement_count(self, tmp_path,
                                                      capsys):
        manifest = self._write_manifest(tmp_path, self._tasks(2))
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--ensemble", "check"]) == 0
        import json
        out, err = capsys.readouterr()
        summary = json.loads(out)
        assert summary["ensemble"] == "check"
        assert summary["ensemble_disagreements"] == 0
        assert "0 ensemble disagreement(s)" in err

    def test_injected_fault_is_retried_transparently(self, tmp_path,
                                                     capsys,
                                                     monkeypatch):
        import json
        monkeypatch.setenv("REPRO_FAULTS", "fd.closure.iteration")
        manifest = self._write_manifest(tmp_path, self._tasks(2))
        assert main(["batch", manifest, "--backoff-base", "0"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["counts"]["ok"] == 2
        assert any(task["retried"] for task in summary["tasks"])

    def test_seed_flag_overrides_manifest_seed(self, tmp_path, capsys,
                                               monkeypatch):
        import json
        monkeypatch.setenv("REPRO_FAULTS", "fd.closure.iteration")
        manifest = self._write_manifest(tmp_path, self._tasks(1),
                                        defaults={"seed": 1})

        def delays(extra):
            capsys.readouterr()
            assert main(["batch", manifest, *extra]) == 0
            return json.loads(
                capsys.readouterr().out)["tasks"][0]["delays_ms"]

        monkeypatch.setattr("time.sleep", lambda seconds: None)
        assert delays(["--seed", "7"]) != delays(["--seed", "8"])

    def test_workers_1_delegates_to_serial_backend(self, tmp_path,
                                                   capsys):
        """``--workers 1`` must take the serial path: no pool, no
        worker processes, no pool stats line."""
        manifest = self._write_manifest(tmp_path, self._tasks())
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--workers", "1"]) == 0
        out, err = capsys.readouterr()
        assert "pool:" not in err
        import json
        assert json.loads(out)["counts"]["ok"] == 3

    def test_parallel_summary_matches_serial_bytes(self, tmp_path,
                                                   capsys):
        manifest = self._write_manifest(tmp_path, self._tasks(6))
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--workers", "2"]) == 0
        parallel_out, err = capsys.readouterr()
        assert parallel_out == serial_out
        assert "pool: 2 worker(s)" in err

    def test_workers_auto_degrades_to_serial_under_fault_plans(
            self, tmp_path, capsys, monkeypatch):
        """Fault-plan arms are per-process fire-once state, so a
        faulted parallel run would not be replayable; the CLI must
        fall back to serial and say so."""
        monkeypatch.setenv("REPRO_FAULTS", "fd.closure.iteration")
        manifest = self._write_manifest(tmp_path, self._tasks(2))
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--workers", "4"]) == 0
        err = capsys.readouterr().err
        assert "running serially" in err
        assert "pool:" not in err

    def test_bad_workers_value_is_a_usage_error(self, tmp_path,
                                                capsys):
        manifest = self._write_manifest(tmp_path, self._tasks(1))
        with pytest.raises(SystemExit):
            main(["batch", manifest, "--workers", "lots"])

    def test_jsonl_manifest_round_trips_through_the_cli(self, tmp_path,
                                                        capsys):
        """A streaming ``.jsonl`` corpus manifest runs end to end."""
        import json
        from repro.runtime import corpus
        path = tmp_path / "batch.jsonl"
        with open(path, "w") as handle:
            corpus.write_jsonl(handle, 5, seed=3)
        assert main(["batch", str(path), "--backoff-base", "0",
                     "--workers", "2"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["counts"] == {"total": 5, "ok": 5,
                                     "failed": 0, "lost": 0}


class TestObsCLI:
    def _trace(self, tmp_path):
        import json
        trace = tmp_path / "t.jsonl"
        trace.write_text(json.dumps(
            {"id": 1, "name": "root", "duration_ms": 5.0, "start": 0.0,
             "counters": {"ops": 3}}) + "\n")
        return str(trace)

    def test_report(self, tmp_path, capsys):
        assert main(["obs", "report", self._trace(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace profile" in out
        assert "root" in out

    def test_flame_to_file(self, tmp_path, capsys):
        out_file = tmp_path / "folded.txt"
        assert main(["obs", "flame", self._trace(tmp_path),
                     "-o", str(out_file)]) == 0
        assert out_file.read_text() == "root 5000\n"

    def test_diff_self_passes(self, tmp_path, capsys):
        trace = self._trace(tmp_path)
        assert main(["obs", "diff", trace, trace]) == 0
        assert "OK: no counter regressions" in capsys.readouterr().out

    def test_missing_trace_is_usage_error(self, tmp_path, capsys):
        code = main(["obs", "report", str(tmp_path / "missing.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_metrics_port_out_of_range_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--metrics-port", "70000", "stats"])

    def test_metrics_port_zero_serves_during_command(
            self, university_files, capsys):
        code = main(["--metrics-port", "0", "check", *university_files])
        assert code == 1  # university schema is not in XNF
        err = capsys.readouterr().err
        assert "metrics: serving on http://127.0.0.1:" in err
