"""The complete CLI exit-code contract, audited in one place.

Every exit code the ``xnf`` tool can produce, each pinned by at least
one invocation that actually produces it::

    0  success / positive answer
    1  negative answer (and: every batch task dead-lettered)
    2  usage error (argparse, bad checkpoint, bad batch manifest)
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

SIMPLE_DTD = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
              "<!ATTLIST r a CDATA #REQUIRED b CDATA #REQUIRED>")
BROKEN_DTD = "<!ELEMENT db (unclosed"


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


class TestExit0:
    def test_positive_implication(self, university):
        dtd, fds = university
        assert main(["implies", dtd, fds,
                     "courses.course.@cno -> courses.course"]) == 0

    def test_all_batch_tasks_ok(self, tmp_path, capsys):
        manifest = _manifest_file(tmp_path, [_good_task()])
        assert main(["batch", manifest, "--backoff-base", "0"]) == 0


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

    def test_bad_checkpoint(self, university, tmp_path, capsys):
        dtd, fds = university
        bad = tmp_path / "bad.ckpt"
        bad.write_text("{}")
        assert main(["normalize", dtd, fds, "--checkpoint", str(bad),
                     "--resume"]) == 2

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
