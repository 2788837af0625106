"""The complete CLI exit-code contract, audited in one place.

Every exit code the ``xnf`` tool can produce, each pinned by at least
one invocation that actually produces it::

    0  success / positive answer
    1  negative answer (and: every batch task dead-lettered)
    2  usage error (argparse, an unreadable input file, bad batch
       manifest)
    3  input / pipeline error (any other ReproError)
    4  resource limit tripped before the answer was decided
    5  partial batch failure (some ok, some dead-lettered)

The table in ``repro.cli``'s module docstring and the constants below
must stay in lockstep; ``test_constants_match_the_documented_table``
fails if either side drifts.
"""

import json

import pytest

import repro.cli as cli
from repro.cli import main
from repro.datasets.university import UNIVERSITY_DTD, UNIVERSITY_FDS
from repro.errors import ReproError, ResourceExhausted, UsageError

SIMPLE_DTD = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
              "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")
BROKEN_DTD = "<!ELEMENT db (unclosed"
#: A passing benchmark claim with every field ``bench report`` renders.
CLAIM = {"statement": "Theorem 3", "bound": "cubic",
         "counter": "chase.steps", "kind": "polynomial", "slope": 1.0,
         "time_slope": 1.0, "max_slope": 3.0, "passed": True}


@pytest.fixture
def university(tmp_path):
    dtd = tmp_path / "u.dtd"
    dtd.write_text(UNIVERSITY_DTD)
    fds = tmp_path / "u.fds"
    fds.write_text(UNIVERSITY_FDS)
    return str(dtd), str(fds)


def _manifest_file(tmp_path, tasks):
    path = tmp_path / "batch.json"
    path.write_text(json.dumps({
        "schema": "repro.runtime.manifest", "version": 1,
        "tasks": tasks}))
    return str(path)


def _good_task(task_id="good"):
    return {"id": task_id, "op": "implies", "dtd_text": SIMPLE_DTD,
            "fds_text": "db.r.@a -> db.r.@b",
            "fd": "db.r.@a -> db.r.@b"}


def _bad_task(task_id="bad"):
    return {"id": task_id, "op": "check", "dtd_text": BROKEN_DTD}


class TestConstants:
    def test_constants_match_the_documented_table(self):
        assert (cli.EXIT_OK, cli.EXIT_NEGATIVE, cli.EXIT_USAGE,
                cli.EXIT_ERROR, cli.EXIT_RESOURCE, cli.EXIT_PARTIAL) \
            == (0, 1, 2, 3, 4, 5)
        for code in range(6):
            assert f"    {code}  " in cli.__doc__

    def test_errors_carry_their_exit_codes(self):
        assert ReproError.exit_code == cli.EXIT_ERROR
        assert UsageError.exit_code == cli.EXIT_USAGE
        assert ResourceExhausted.exit_code == cli.EXIT_RESOURCE


class TestExit0:
    def test_positive_implication(self, university):
        dtd, fds = university
        assert main(["implies", dtd, fds,
                     "courses.course.@cno -> courses.course"]) == 0

    def test_all_batch_tasks_ok(self, tmp_path, capsys):
        manifest = _manifest_file(tmp_path, [_good_task()])
        assert main(["batch", manifest, "--backoff-base", "0"]) == 0

    def test_journal_from_before_the_limits_field_resumes(self, tmp_path,
                                                          capsys):
        """A journal whose meta has no ``limits`` (written before the
        field existed, without budget flags) resumes with exit 0 to the
        uninterrupted run's summary bytes."""
        manifest = _manifest_file(
            tmp_path, [_good_task(f"g{index}") for index in range(3)])
        journal = tmp_path / "j.journal"
        batch = ["batch", manifest, "--backoff-base", "0",
                 "--journal", str(journal)]
        assert main(batch) == 0
        whole = capsys.readouterr().out
        meta, first, *_rest = journal.read_text().splitlines()
        meta = json.loads(meta)
        assert meta.pop("limits", None) is None
        journal.write_text(json.dumps(meta) + "\n" + first + "\n")
        assert main([*batch, "--resume"]) == 0
        assert capsys.readouterr().out == whole


class TestExit1:
    def test_negative_implication(self, university):
        dtd, fds = university
        assert main(["implies", dtd, fds,
                     "courses.course.title.S -> courses.course"]) == 1

    def test_not_in_xnf(self, university):
        dtd, fds = university
        assert main(["check", dtd, fds]) == 1

    def test_every_batch_task_dead_lettered(self, tmp_path, capsys):
        manifest = _manifest_file(tmp_path,
                                  [_bad_task("b1"), _bad_task("b2")])
        assert main(["batch", manifest, "--backoff-base", "0"]) == 1


class TestExit2:
    def test_argparse_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["implies"])          # missing arguments
        assert info.value.code == 2

    def test_bad_batch_flag_value(self, tmp_path, capsys):
        manifest = _manifest_file(tmp_path, [_good_task()])
        with pytest.raises(SystemExit) as info:
            main(["batch", manifest, "--retries", "-3"])
        assert info.value.code == 2

    def test_bad_batch_manifest(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        path.write_text('{"schema": "something-else"}')
        assert main(["batch", str(path)]) == 2

    def test_missing_batch_manifest(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "absent.json")]) == 2

    def test_resume_without_journal_flag(self, tmp_path, capsys):
        manifest = _manifest_file(tmp_path, [_good_task()])
        assert main(["batch", manifest, "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_journal_meta_mismatch_on_resume(self, tmp_path, capsys):
        manifest = _manifest_file(tmp_path, [_good_task()])
        journal = tmp_path / "j.journal"
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        # Same journal, different manifest: the meta fingerprint
        # cannot apply to this invocation.
        (tmp_path / "other").mkdir()
        other = _manifest_file(tmp_path / "other",
                               [_good_task(), _good_task("g2")])
        assert main(["batch", other, "--backoff-base", "0",
                     "--journal", str(journal), "--resume"]) == 2
        assert "mismatch" in capsys.readouterr().err

    def test_corrupt_journal_body_on_resume(self, tmp_path, capsys):
        manifest = _manifest_file(tmp_path, [_good_task()])
        journal = tmp_path / "j.journal"
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text(lines[0] + "{not json\n"
                           + "".join(lines[1:]))
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--journal", str(journal), "--resume"]) == 2
        assert "malformed record" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("id", None), ("op", None), ("reason", None),
        ("signature", None), ("payload.status", None),
        ("payload.attempts", None), ("payload.delays_ms", None),
        ("payload.attempts", "1"), ("payload.failures", "boom"),
        ("payload.result", []), ("payload.disagreements", {}),
    ])
    def test_malformed_journal_result_on_resume(self, tmp_path, capsys,
                                                field, value):
        # ``None`` deletes the field; anything else replaces it with a
        # value of the wrong type.
        manifest = _manifest_file(
            tmp_path, [_good_task(f"g{index}") for index in range(3)])
        journal = tmp_path / "j.journal"
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--journal", str(journal)]) == 0
        capsys.readouterr()
        lines = journal.read_text().splitlines(keepends=True)
        line_no = next(number for number, line
                       in enumerate(lines, start=1)
                       if '"record": "result"' in line)
        record = json.loads(lines[line_no - 1])
        *parents, key = field.split(".")
        target = record
        for parent in parents:
            target = target[parent]
        if value is None:
            del target[key]
        else:
            target[key] = value
        lines[line_no - 1] = json.dumps(record) + "\n"
        journal.write_text("".join(lines))
        assert main(["batch", manifest, "--backoff-base", "0",
                     "--journal", str(journal), "--resume"]) == 2
        err = capsys.readouterr().err
        assert f"line {line_no}: result" in err and repr(key) in err

    @pytest.mark.parametrize("kind, change, field", [
        ("trace", {"duration_ms": "abc"}, "duration_ms"),
        ("trace", {"counters": "x"}, "counters"),
        ("trace", {"id": [1]}, "id"),
        ("diff", {"counters": 5}, "counters"),
        ("diff", {"counters": {"a": "x"}}, "a"),
        ("diff", {"duration_ms": "abc"}, "duration_ms"),
        ("bench", {"counters": 5}, "counters"),
        ("bench", {"points": 7}, "points"),
        ("trace", {"parent": 2}, "parent"),     # 1 -> 2 -> 1
        ("bench", {"claim": {"passed": False}}, "statement"),
        ("journal", {"status": "bogus"}, "status"),
        ("journal", {"status": "dead-letter"}, "failures"),
        ("journal", {"failures": [{}]}, "signature"),
        ("ledger", {"ts": "abc"}, "ts"),
        ("ledger", {"ts": float("nan")}, "ts"),
        ("ledger", {"ts": 1e20}, "ts"),
        ("trace", {"epoch": 1e20}, "epoch"),
        ("report", {"claim": {key: value for key, value in CLAIM.items()
                              if key != "kind"}}, "kind"),
    ])
    def test_mistyped_record_read_back(self, tmp_path, capsys, kind,
                                       change, field):
        """A mistyped field in a trace (``obs report`` and ``obs
        diff``), a benchmark report (``bench compare`` and ``bench
        report``), a journal result (``batch --resume``) or a ledger
        record (``obs history``) is named on stderr with exit 2, never a
        traceback.  So are a trace whose parent links loop, a
        claim without its ``statement``, a result whose status or
        failures replay cannot rebuild, and a time no date has."""
        from repro.bench.schema import envelope
        good = tmp_path / "good.json"
        bad = tmp_path / "bad.json"
        if kind in ("trace", "diff"):
            record = {"id": 1, "parent": None, "name": "root",
                      "start": 0.0, "duration_ms": 8.0}
            child = {"id": 2, "parent": 1, "name": "child",
                     "start": 1.0, "duration_ms": 2.0}
            good.write_text(json.dumps(record) + "\n"
                            + json.dumps(child) + "\n")
            bad.write_text(json.dumps({**record, **change}) + "\n"
                           + json.dumps(child) + "\n")
            code = main(["obs", "report", str(bad)] if kind == "trace"
                        else ["obs", "diff", str(good), str(bad)])
        elif kind == "journal":
            manifest = _manifest_file(
                tmp_path, [_good_task(f"g{index}") for index in range(3)])
            batch = ["batch", manifest, "--backoff-base", "0",
                     "--journal", str(bad)]
            assert main(batch) == 0
            capsys.readouterr()
            *lines, last = bad.read_text().splitlines()
            record = json.loads(last)
            record["payload"].update(change)
            bad.write_text("\n".join([*lines, json.dumps(record)]) + "\n")
            code = main([*batch, "--resume"])
        elif kind == "ledger":
            bad.write_text(json.dumps(
                {"schema": "repro.obs.ledger", "version": 1, "run": "r",
                 "task": "t", "verdict": "ok", "retries": 0,
                 "wall_ms": 1.0, **change}) + "\n")
            code = main(["obs", "history", str(bad)])
        else:
            payload = envelope(suite="quick", repeat=1)
            entry = payload["benchmarks"]["grp.bench"] = {
                "points": [{"value": 4, "counters": {"chase.steps": 1}}],
                "claim": CLAIM}
            good.write_text(json.dumps(payload))
            (entry["points"][0] if "counters" in change else entry) \
                .update(change)
            bad.write_text(json.dumps(payload))
            code = main(["bench", "compare", str(good), str(bad)]
                        if kind == "bench" else ["bench", "report", str(bad)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(bad) in err and repr(field) in err, err
        assert "Traceback" not in err

    def test_serve_port_in_use(self, capsys):
        import socket
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            # Startup failure before any request is structural: the
            # flags named a socket this process can never own.
            assert main(["serve", "--port", str(port)]) == 2
        finally:
            blocker.close()
        assert "cannot bind" in capsys.readouterr().err

    def test_serve_metrics_port_conflict(self, capsys):
        # serve publishes /metrics on the service port itself; asking
        # for a *different* exporter port is refused, not honored.
        assert main(["serve", "--port", "8300",
                     "--metrics-port", "9999"]) == 2
        assert "second exporter" in capsys.readouterr().err

    @pytest.mark.parametrize("where, value", [
        ("defaults", 0.5), ("task", 2.9), ("defaults", float("nan")),
    ])
    def test_manifest_limit_outside_the_rule(self, tmp_path, capsys,
                                              where, value):
        """A fractional or NaN counted limit is refused naming the
        field, never truncated or left to raise inside a task."""
        task = _good_task()
        payload = {"schema": "repro.runtime.manifest", "version": 1,
                   "defaults": {}, "tasks": [task]}
        (task if where == "task" else payload["defaults"])[
            "max_steps"] = value
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(payload))
        assert main(["batch", str(path), "--backoff-base", "0"]) == 2
        err = capsys.readouterr().err
        assert "max_steps must be an integer >= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--timeout", "--max-steps"])
    def test_nan_budget_flag(self, university, capsys, flag):
        with pytest.raises(SystemExit) as info:
            main([flag, "nan", "check", *university])
        assert info.value.code == 2

    def test_nan_serve_budget(self):
        from repro.serve import BudgetDefaults, SpecCache, handle
        status, body = handle(
            "/v1/xnf-check", {"dtd": SIMPLE_DTD,
                              "budget": {"max_steps": float("nan")}},
            cache=SpecCache(), defaults=BudgetDefaults())
        assert (status, body["error"]["kind"]) == (400, "usage")
        assert body["error"]["exit_code"] == 2

    @pytest.mark.parametrize("first, second", [
        (["--max-steps", "50"], ["--max-steps", "60"]),
        (["--max-steps", "50"], []),
        ([], ["--timeout", "5"]),
    ])
    def test_resume_under_other_budget_flags(self, tmp_path, capsys,
                                             first, second):
        """The flags cap every task, so the journal pins them."""
        manifest = _manifest_file(tmp_path, [_good_task()])
        batch = ["batch", manifest, "--backoff-base", "0",
                 "--journal", str(tmp_path / "j.journal")]
        assert main([*first, *batch]) == 0
        capsys.readouterr()
        assert main([*second, *batch, "--resume"]) == 2
        assert "limits mismatch" in capsys.readouterr().err


    @pytest.mark.parametrize("case", [
        "check-missing-dtd", "check-directory-as-dtd",
        "classify-non-utf8-dtd", "analyze-missing-document",
        "explain-missing-dtd", "normalize-output-onto-a-file",
    ])
    def test_unusable_file_argument(self, university, tmp_path, capsys,
                                    case):
        """A path that cannot be read, or an ``-o`` directory that cannot
        be written, is a usage error: exit 2 naming it, never exit 1,
        which a script reads as "not in XNF"."""
        dtd, fds = university
        absent = str(tmp_path / "absent")
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        non_utf8 = tmp_path / "bom.dtd"
        non_utf8.write_bytes(b"\xff\xfe<!ELEMENT r EMPTY>")
        argv, verb, path = {
            "check-missing-dtd": (["check", absent, fds], "read", absent),
            "check-directory-as-dtd":
                (["check", str(tmp_path), fds], "read", str(tmp_path)),
            "classify-non-utf8-dtd":
                (["classify", str(non_utf8)], "read", str(non_utf8)),
            "analyze-missing-document":
                (["analyze", dtd, fds, absent], "read", absent),
            "explain-missing-dtd": (["explain", absent, fds,
                                     "courses.course.@cno -> courses"],
                                    "read", absent),
            "normalize-output-onto-a-file":
                (["normalize", dtd, fds, "-o", str(blocker)], "write",
                 str(blocker)),
        }[case]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: cannot {verb} {path}: " in err, err

    @pytest.mark.parametrize("case", [
        "bench-run-out", "obs-flame-out", "trace", "batch-ledger",
        "bench-run-out-dash", "trace-dash", "batch-ledger-dash",
    ])
    def test_unusable_output_file(self, university, tmp_path, capsys,
                                  monkeypatch, case):
        """An output file that cannot be opened is a usage error: exit
        2 naming it, before any work runs — ``bench run`` never starts
        its suite.  So is ``-``, a standard stream everywhere else in
        ``xnf``: no file named ``-`` appears."""
        from repro.bench import runner
        monkeypatch.setattr(runner, "run_suite", lambda **options:
                            pytest.fail("the suite ran"))
        monkeypatch.chdir(tmp_path)
        dtd, fds = university
        trace = str(tmp_path / "t.jsonl")
        assert main(["--trace", trace, "classify", dtd]) == 0
        manifest = _manifest_file(tmp_path, [_good_task()])
        path = "-" if case.endswith("-dash") \
            else str(tmp_path / "absent" / "out")
        argv = {
            "bench-run-out": ["bench", "run", "--quick", "--out", path],
            "obs-flame-out": ["obs", "flame", trace, "-o", path],
            "trace": ["--trace", path, "check", dtd, fds],
            "batch-ledger": ["batch", manifest, "--ledger", path],
        }[case.removesuffix("-dash")]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"cannot write {path}: " in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "-").exists()


class TestExit3:
    def test_broken_dtd_input(self, tmp_path, capsys):
        dtd = tmp_path / "broken.dtd"
        dtd.write_text(BROKEN_DTD)
        fds = tmp_path / "empty.fds"
        fds.write_text("")
        assert main(["check", str(dtd), str(fds)]) == 3


class TestExit4:
    def test_budget_trip_on_single_query(self, tmp_path, capsys):
        dtd = tmp_path / "d.dtd"
        # Disjunctive spec whose chase needs real branch budget.
        dtd.write_text("""
            <!ELEMENT r ((a | b), c*)>
            <!ELEMENT a EMPTY>
            <!ELEMENT b EMPTY>
            <!ELEMENT c EMPTY>
            <!ATTLIST c x CDATA #REQUIRED>
        """)
        fds = tmp_path / "d.fds"
        fds.write_text("r.a -> r.c.@x\nr.b -> r.c.@x\n")
        assert main(["implies", str(dtd), str(fds), "r -> r.c.@x",
                     "--max-branches", "1"]) == 4


class TestExit5:
    def test_partial_batch_failure(self, tmp_path, capsys):
        manifest = _manifest_file(tmp_path,
                                  [_good_task(), _bad_task()])
        assert main(["batch", manifest, "--backoff-base", "0"]) == 5
        summary = json.loads(capsys.readouterr().out)
        assert summary["counts"] == {"total": 2, "ok": 1,
                                     "failed": 1, "lost": 0}
        [letter] = summary["dead_letters"]
        assert letter["id"] == "bad"
