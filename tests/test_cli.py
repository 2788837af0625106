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
    """Start-up pins: ``xnf --help`` loads no engine, a CLI command no
    HTTP stack, engine ensemble or other command's modules, a serving
    process neither the load generator's urllib nor the batch runtime,
    and the implication engines no batch runtime."""

    @staticmethod
    def _loaded(args):
        """A cold ``python -m repro ARGS``: its result, and the modules
        it imports beyond a bare interpreter's."""
        import ast, os, subprocess, sys
        code = ("import atexit, sys\n"
                "bare = set(sys.modules)\n"
                "atexit.register(lambda: print(sorted(set(sys.modules)"
                " - bare), file=sys.stderr))\n"
                "import runpy\n"
                f"sys.argv = ['xnf', *{args!r}]\n"
                "runpy.run_module('repro', run_name='__main__', "
                "alter_sys=True)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        env.pop("REPRO_OBS", None)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        return proc, set(ast.literal_eval(proc.stderr.splitlines()[-1]))

    def test_help_loads_no_engine(self):
        proc, loaded = self._loaded(["--help"])
        assert proc.returncode == 0 and "usage: xnf" in proc.stdout
        assert "repro.cli" in loaded
        assert sorted(module for module in loaded
                      if module.split(".")[0] == "dataclasses"
                      or module.startswith(("repro.dtd", "repro.fd",
                                            "repro.spec", "repro.guard",
                                            "repro.obs"))) == []

    def test_check_loads_no_other_command(self, university_files):
        proc, loaded = self._loaded(["check", *university_files])
        assert proc.returncode == 1 and "NOT in XNF" in proc.stdout
        assert "repro.spec" in loaded
        assert sorted(module for module in loaded
                      if module.startswith((
                          "repro.runtime", "repro.serve", "repro.bench",
                          "repro.obs.cli", "repro.obs.ledger",
                          "repro.mvd", "repro.report"))) == []

    @pytest.mark.parametrize("command", [
        "check {dtd} {fds}", "normalize {dtd} {fds}",
        "implies {dtd} {fds} courses.course.@cno->courses.course",
        "tuples {dtd} {xml}", "classify {dtd}",
        "explain {dtd} {fds} courses.course.@cno->courses.course",
        "analyze {dtd} {fds} {xml}",
        "batch {manifest} --workers 1 --backoff-base 0",
    ], ids=lambda command: command.split()[0])
    def test_a_command_imports_nothing_inside_its_span(
            self, university_files, tmp_path, command):
        """A command's modules load before its ``cli.*`` span opens, so
        a trace times the work, not the imports."""
        import json, os, subprocess, sys
        from repro.datasets.university import UNIVERSITY_DOCUMENT
        xml = tmp_path / "university.xml"
        xml.write_text(UNIVERSITY_DOCUMENT)
        manifest = tmp_path / "batch.json"
        manifest.write_text(json.dumps({
            "schema": "repro.runtime.manifest", "version": 1,
            "tasks": [{"id": "t", "op": "check",
                       "dtd_text": UNIVERSITY_DTD,
                       "fds_text": UNIVERSITY_FDS}]}))
        dtd, fds = university_files
        argv = command.format(dtd=dtd, fds=fds, xml=xml,
                              manifest=manifest).split()
        code = f"""
import contextlib, sys
import repro.cli
from repro import obs
opened = []
real = obs.span

@contextlib.contextmanager
def span(name, **attrs):
    if name.startswith("cli."):
        opened.append(set(sys.modules))
    with real(name, **attrs) as current:
        yield current

obs.span = span
with contextlib.redirect_stdout(sys.stderr):
    repro.cli.main({argv!r})
print(sorted(module for module in set(sys.modules) - opened[0]
             if module.startswith("repro")))
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", proc.stdout

    def test_reexports_are_their_home_objects(self):
        """Importing ``repro.spec`` imports the ``repro.normalize``
        subpackage, which binds the name on ``repro``; the function
        ``repro.normalize`` re-exports keeps it."""
        import os, subprocess, sys
        homes = {
            "repro.dtd": "DTD Path parse_dtd serialize_dtd is_simple_dtd "
                         "is_disjunctive_dtd",
            "repro.xmltree": "XMLTree elem parse_xml serialize_xml "
                             "conforms",
            "repro.tuples": "TreeTuple tuples_of trees_of",
            "repro.fd": "FD satisfies implies is_trivial ImplicationEngine",
            "repro.xnf": "is_in_xnf xnf_violations",
            "repro.normalize": "normalize normalize_simple "
                               "NormalizationResult NewElementNames",
            "repro.spec": "XMLSpec",
            "repro.mvd": "MVD satisfies_mvd tree_induced_mvds is_in_xnf4",
            "repro.report": "DesignReport analyze redundancy_of",
            "repro.fd.explain": "explain_implication",
        }
        code = f"""
import importlib, sys, types
import repro.spec
import repro
listed = set(dir(repro))
from repro import normalize
assert isinstance(normalize, types.FunctionType), normalize
assert normalize is sys.modules["repro.normalize.algorithm"].normalize
homes = {homes!r}
names = ["__version__"]
for home, exported in homes.items():
    for name in exported.split():
        value = getattr(repro, name)
        assert value is getattr(importlib.import_module(home), name), name
        assert not isinstance(value, types.ModuleType), name
        names.append(name)
assert repro.__all__ == names, repro.__all__
assert set(names) <= listed, set(names) - listed
print("ok")
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    def test_the_modules_the_benchmark_patches_load(self):
        """``xnfbench/replay.py`` imports these seven and then reads the
        nine below from ``sys.modules``: a later lazy step must keep
        every one loaded."""
        import os, subprocess, sys
        patched = ["repro.dtd.parser", "repro.fd.model", "repro.fd.closure",
                   "repro.fd.chase", "repro.xnf.check",
                   "repro.xnf.anomalous", "repro.normalize.algorithm",
                   "repro.normalize.transforms", "repro.serve.handlers"]
        code = ("import sys\n"
                "import repro.dtd.model, repro.fd.implication, "
                "repro.fd.model, repro.obs.ledger, repro.runtime.journal, "
                "repro.serve.cache, repro.spec\n"
                f"print([m for m in {patched!r} if m not in sys.modules])")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("module, unwanted", [
        ("repro.cli", ["http.server", "repro.fd.ensemble"]),
        ("repro.serve.server", ["urllib.request", "repro.runtime"]),
        # Record files need repro.records, not the ledger's reader and
        # the benchmark comparator behind it.
        ("repro.runtime.journal", ["repro.obs.ledger", "repro.bench"]),
        ("repro.serve.cache", ["repro.obs.ledger", "repro.bench"]),
        ("repro.fd.implication", ["repro.runtime"]),
        # The parser declares every command without importing one.
        ("repro.cli; repro.cli.build_parser()",
         ["repro.bench", "repro.obs.cli", "repro.obs.profile",
          "repro.obs.ledger", "repro.records"]),
        # The ledger writer needs a run id, not the regression gate.
        ("repro.obs.ledger", ["repro.bench", "statistics", "uuid"]),
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

    def test_bad_spec_starts_nothing(self, university_files, tmp_path,
                                     capsys, monkeypatch):
        """Every input is checked before anything starts: a bad spec
        leaves obs disabled, no exporter thread and no trace sink."""
        import threading

        from repro import obs
        from repro.obs import trace
        monkeypatch.setenv("REPRO_FAULTS", "nosuchsite:bogus")
        assert not obs.is_enabled()
        assert main(["--metrics-port", "0", "--trace",
                     str(tmp_path / "t.jsonl"), "check",
                     *university_files]) == 2
        assert "bad REPRO_FAULTS spec" in capsys.readouterr().err
        assert not obs.is_enabled()
        assert not any(thread.name == "repro-http" and thread.is_alive()
                       for thread in threading.enumerate())
        assert not trace.has_sinks()

    def test_a_sink_that_cannot_start_undoes_the_others(
            self, university_files, tmp_path, capsys):
        """Exit 2 with one error line and no stats table, and what did
        start (obs, the exporter) is undone."""
        import threading

        from repro import obs
        from repro.obs import trace
        code = main(["--metrics-port", "0", "--stats", "--trace",
                     str(tmp_path / "no" / "such" / "dir.jsonl"),
                     "check", *university_files])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot open trace file" in err
        assert "metrics: serving on" in err
        assert "== metrics ==" not in err
        assert not obs.is_enabled()
        assert not any(thread.name == "repro-http" and thread.is_alive()
                       for thread in threading.enumerate())
        assert not trace.has_sinks()


class TestBenchResourceLimits:
    def test_bench_run_budget_is_exit_4(self, tmp_path, capsys):
        out = str(tmp_path / "bench.json")
        code = main(["bench", "run", "--quick", "--quiet",
                     "--only", "implication", "--no-memory",
                     "--max-steps", "5", "--out", out])
        assert code == 4
        assert "resource limit reached" in capsys.readouterr().err

    def test_budget_flag_before_the_subcommand_is_exit_4(self, tmp_path,
                                                         capsys):
        """``bench run`` takes the global budget flags, so one given
        before ``bench`` bounds each measured run too."""
        out = str(tmp_path / "bench.json")
        code = main(["--max-steps", "5", "bench", "run", "--quick",
                     "--quiet", "--only", "implication", "--no-memory",
                     "--out", out])
        assert code == 4
        err = capsys.readouterr().err
        assert "resource limit reached" in err
        assert "partial progress: engine=" in err

    def test_bench_module_matches(self, tmp_path, monkeypatch):
        """``python -m repro.bench`` is an alias of ``xnf bench``."""
        import runpy, sys
        out = str(tmp_path / "bench.json")
        monkeypatch.setattr(sys, "argv", [
            "repro.bench", "run", "--quick", "--quiet", "--only",
            "implication", "--no-memory", "--max-steps", "5",
            "--out", out])
        with pytest.raises(SystemExit) as info:
            runpy.run_module("repro.bench", run_name="__main__")
        assert info.value.code == 4


class TestRobustnessCounters:
    """faults.* counters surface in --stats output."""

    def test_faults_injected_in_stats(self, university_files, capsys,
                                      monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fd.closure.iteration")
        assert main(["check", *university_files, "--stats"]) == 3
        err = capsys.readouterr().err
        assert "faults.injected" in err
        assert "faults.injected.exception" in err

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
