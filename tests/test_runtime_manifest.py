"""Unit tests for batch manifests (repro.runtime.manifest)."""

import json

import pytest

from repro.errors import ManifestError
from repro.guard import Limits
from repro.runtime import manifest as mf

DTD = ("<!ELEMENT db (r*)>\n<!ELEMENT r EMPTY>\n"
       "<!ATTLIST r a CDATA #REQUIRED>")


def _task(**overrides):
    base = {"op": "check", "dtd_text": DTD, "fds_text": "db.r.@a -> db.r"}
    base.update(overrides)
    return base


class TestValidation:
    def test_minimal_manifest_builds(self):
        manifest = mf.build([_task()])
        assert len(manifest.tasks) == 1
        task = manifest.tasks[0]
        assert task.id == "task-0000"        # auto-assigned
        assert task.op == "check"
        assert task.engine == "auto"

    def test_schema_discriminator_required(self):
        with pytest.raises(ManifestError, match="discriminator"):
            mf.from_payload({"version": 1, "tasks": []})

    def test_version_mismatch_rejected(self):
        with pytest.raises(ManifestError, match="version"):
            mf.from_payload({"schema": mf.MANIFEST_SCHEMA,
                             "version": 99, "tasks": []})

    def test_unknown_op_rejected(self):
        with pytest.raises(ManifestError, match="op must be one of"):
            mf.build([_task(op="frobnicate")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ManifestError, match="duplicate task id"):
            mf.build([_task(id="t"), _task(id="t")])

    def test_exactly_one_dtd_source(self):
        with pytest.raises(ManifestError, match="exactly one"):
            mf.build([_task(dtd="d.dtd")])          # both
        task = _task()
        del task["dtd_text"]
        with pytest.raises(ManifestError, match="exactly one"):
            mf.build([task])                        # neither

    def test_implies_requires_fd_and_others_forbid_it(self):
        with pytest.raises(ManifestError, match="requires"):
            mf.build([_task(op="implies")])
        with pytest.raises(ManifestError, match="only meaningful"):
            mf.build([_task(op="normalize", fd="db.r.@a -> db.r")])

    def test_bad_engine_rejected(self):
        with pytest.raises(ManifestError, match="engine"):
            mf.build([_task(engine="quantum")])

    def test_ensemble_engine_accepted(self):
        manifest = mf.build([_task(engine="ensemble")])
        assert manifest.tasks[0].engine == "ensemble"

    def test_budget_knobs_must_be_positive(self):
        with pytest.raises(ManifestError, match="max_steps"):
            mf.build([_task(max_steps=-1)])
        with pytest.raises(ManifestError, match="timeout"):
            mf.build([_task(timeout=0)])

    @pytest.mark.parametrize("where, limits", [
        ("defaults", {"max_steps": 0.5}), ("task", {"max_steps": 2.9}),
        ("task", {"timeout": float("nan")}),
        ("defaults", {"max_nodes": True}),
    ])
    def test_limits_follow_the_one_rule(self, where, limits):
        """Counted limits are integers >= 1 and a timeout is a finite
        number > 0, in ``defaults`` and per task; nothing is truncated
        or left to fail inside a task."""
        [(key, value)] = limits.items()
        tasks, defaults = ([_task(**limits)], {}) if where == "task" \
            else ([_task()], limits)
        with pytest.raises(ManifestError, match=f"{key} must be"):
            mf.build(tasks, defaults=defaults)

    def test_defaults_are_checked_at_the_header(self):
        """The defaults' limits are parsed once, with the header, so a
        bad one is refused even when no task reads it."""
        with pytest.raises(ManifestError, match="defaults: max_steps"):
            mf.build([], defaults={"max_steps": 0.5})

    def test_whole_manifest_fails_on_one_bad_task(self):
        """A typo'd task 2 stops the batch before task 1 could run."""
        with pytest.raises(ManifestError):
            mf.build([_task(), _task(op="nope")])


class TestDefaults:
    def test_defaults_flow_into_tasks(self):
        manifest = mf.build([_task()],
                            defaults={"engine": "closure",
                                      "max_steps": 500, "seed": 9})
        task = manifest.tasks[0]
        assert task.engine == "closure"
        assert task.limits == Limits(max_steps=500)
        assert manifest.seed == 9

    def test_task_overrides_defaults(self):
        manifest = mf.build([_task(engine="chase", max_steps=7)],
                            defaults={"engine": "closure",
                                      "max_steps": 500})
        task = manifest.tasks[0]
        assert task.engine == "chase"
        assert task.limits == Limits(max_steps=7)

    def test_budget_kwargs_shape(self):
        """A task's four limits are one ``Limits`` value, filled from
        the defaults, and ``None`` when neither sets any."""
        manifest = mf.build([_task(timeout=1.5, max_nodes=10), _task()],
                            defaults={"max_steps": 3})
        assert [task.limits for task in manifest.tasks] == [
            Limits(timeout=1.5, max_steps=3, max_nodes=10),
            Limits(max_steps=3)]
        assert mf.build([_task()]).tasks[0].limits is None


class TestFiles:
    def test_load_resolves_paths_against_manifest_dir(self, tmp_path):
        (tmp_path / "specs").mkdir()
        (tmp_path / "specs" / "d.dtd").write_text(DTD)
        (tmp_path / "specs" / "d.fds").write_text("db.r.@a -> db.r\n")
        payload = {"schema": mf.MANIFEST_SCHEMA,
                   "version": mf.MANIFEST_VERSION,
                   "tasks": [{"op": "check", "dtd": "specs/d.dtd",
                              "fds": "specs/d.fds"}]}
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(payload))
        manifest = mf.load(path)
        task = manifest.tasks[0]
        assert task.load_dtd_text() == DTD
        assert task.load_fds_text().strip() == "db.r.@a -> db.r"

    def test_missing_file_is_manifest_error(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read"):
            mf.load(tmp_path / "absent.json")

    def test_invalid_json_is_manifest_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            mf.load(path)


class TestStreaming:
    """The lazy layout (.jsonl loading and in-memory streams)."""

    def _header(self, count, defaults=None):
        return {"schema": mf.MANIFEST_SCHEMA,
                "version": mf.MANIFEST_VERSION,
                "defaults": defaults or {}, "count": count}

    def _write_jsonl(self, tmp_path, tasks, count=None, defaults=None):
        path = tmp_path / "batch.jsonl"
        lines = [json.dumps(self._header(
            len(tasks) if count is None else count, defaults))]
        lines += [json.dumps(task) for task in tasks]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_stream_yields_validated_tasks_lazily(self):
        built = []

        def raw():
            for i in range(3):
                built.append(i)
                yield _task(id=f"t{i}")

        manifest = mf.stream(raw, 3)
        assert manifest.task_count == 3
        assert built == []                      # nothing touched yet
        iterator = manifest.iter_tasks()
        first = next(iterator)
        assert first.id == "t0"
        assert built == [0]                     # only one task built
        assert [task.id for task in iterator] == ["t1", "t2"]

    def test_stream_is_reiterable(self):
        manifest = mf.stream(
            lambda: (_task(id=f"t{i}") for i in range(2)), 2)
        assert [t.id for t in manifest.iter_tasks()] \
            == [t.id for t in manifest.iter_tasks()] == ["t0", "t1"]

    def test_stream_defaults_flow_into_tasks(self):
        manifest = mf.stream(lambda: iter([{"op": "check",
                                            "dtd_text": DTD,
                                            "fds_text": ""}]), 1,
                             defaults={"seed": 9, "engine": "chase"})
        assert manifest.seed == 9
        [task] = manifest.iter_tasks()
        assert task.engine == "chase"

    def test_undercount_is_a_manifest_error(self):
        manifest = mf.stream(
            lambda: (_task(id=f"t{i}") for i in range(2)), 5)
        with pytest.raises(ManifestError, match="header declared"):
            list(manifest.iter_tasks())

    def test_overcount_is_a_manifest_error(self):
        manifest = mf.stream(
            lambda: (_task(id=f"t{i}") for i in range(5)), 2)
        with pytest.raises(ManifestError, match="more than the"):
            list(manifest.iter_tasks())

    def test_duplicate_ids_caught_during_iteration(self):
        manifest = mf.stream(
            lambda: iter([_task(id="same"), _task(id="same")]), 2)
        with pytest.raises(ManifestError, match="duplicate task id"):
            list(manifest.iter_tasks())

    def test_invalid_task_raises_at_its_position(self):
        manifest = mf.stream(
            lambda: iter([_task(id="ok"), {"op": "teleport"}]), 2)
        iterator = manifest.iter_tasks()
        assert next(iterator).id == "ok"
        with pytest.raises(ManifestError, match="task-0001"):
            next(iterator)

    def test_jsonl_file_round_trip(self, tmp_path, built_tasks):
        path = self._write_jsonl(
            tmp_path, [_task(id=f"t{i}") for i in range(4)],
            defaults={"seed": 6})
        manifest = mf.load(path)
        assert built_tasks == []                # nothing built at load
        assert manifest.tasks is None
        assert manifest.task_count == 4
        assert manifest.seed == 6
        assert [t.id for t in manifest.iter_tasks()] \
            == ["t0", "t1", "t2", "t3"]
        assert [index for index, _ in manifest.iter_indexed(
            skip=frozenset({0, 2}))] == [1, 3]
        # Each pass builds anew, and never a skipped index.
        assert built_tasks == [0, 1, 2, 3, 1, 3]

    def test_jsonl_relative_paths_resolve_against_the_file(
            self, tmp_path):
        (tmp_path / "specs").mkdir()
        (tmp_path / "specs" / "d.dtd").write_text(DTD)
        (tmp_path / "specs" / "d.fds").write_text("db.r.@a -> db.r")
        path = self._write_jsonl(tmp_path, [
            {"op": "check", "dtd": "specs/d.dtd",
             "fds": "specs/d.fds"}])
        [task] = mf.load(path).iter_tasks()
        assert task.load_dtd_text() == DTD

    def test_jsonl_header_must_declare_count(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        header = self._header(0)
        del header["count"]
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(ManifestError, match="declare a"):
            mf.load(path)

    def test_jsonl_bad_task_line_reports_line_number(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text(json.dumps(self._header(1)) + "\n{oops\n")
        manifest = mf.load(path)
        with pytest.raises(ManifestError, match="line 2"):
            list(manifest.iter_tasks())

    def test_jsonl_empty_file_is_a_manifest_error(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text("")
        with pytest.raises(ManifestError, match="empty manifest"):
            mf.load(path)

    def test_eager_manifest_satisfies_the_streaming_protocol(self):
        manifest = mf.build([_task(id="a"), _task(id="b")])
        assert manifest.task_count == 2
        assert [t.id for t in manifest.iter_tasks()] == ["a", "b"]


class TestOneLoader:
    """Both layouts share one header check and load to one Manifest."""

    def _header(self, **fields):
        header = {"schema": mf.MANIFEST_SCHEMA,
                  "version": mf.MANIFEST_VERSION, "defaults": {}}
        header.update(fields)
        return header

    def _write_both(self, tmp_path, header, tasks):
        """The same header and tasks as ``m.json`` and ``m.jsonl``."""
        json_path = tmp_path / "m.json"
        json_path.write_text(json.dumps(dict(header, tasks=tasks)))
        jsonl_path = tmp_path / "m.jsonl"
        jsonl_path.write_text("".join(
            json.dumps(line) + "\n"
            for line in [dict(header, count=len(tasks)), *tasks]))
        return json_path, jsonl_path

    def test_json_and_jsonl_load_equal_tasks(self, tmp_path):
        (tmp_path / "d.dtd").write_text(DTD)
        tasks = [_task(id="a"),
                 _task(id="b", op="implies", fd="db.r.@a -> db.r",
                       engine="chase", max_steps=9),
                 {"op": "normalize", "dtd": "d.dtd", "timeout": 1}]
        header = self._header(defaults={"seed": 3, "root": "db",
                                        "max_nodes": 50})
        json_path, jsonl_path = self._write_both(tmp_path, header, tasks)
        eager, lazy = mf.load(json_path), mf.load(jsonl_path)
        assert eager.tasks == list(lazy.iter_tasks())
        assert len(eager.tasks) == eager.task_count == lazy.task_count == 3
        assert (eager.seed, eager.defaults) == (lazy.seed, lazy.defaults)
        assert eager.tasks[2].dtd_path == str(tmp_path / "d.dtd")

    @pytest.mark.parametrize("fields, message", [
        ({"schema": "repro.other"}, "discriminator"),
        ({"version": 99}, "version 99 is not supported"),
        ({"defaults": [1]}, "defaults must be an object"),
        ({"defaults": {"seed": "7"}}, "defaults.seed must be an integer"),
    ])
    def test_header_errors_read_the_same_in_both_layouts(
            self, tmp_path, fields, message):
        texts = []
        for path in self._write_both(tmp_path, self._header(**fields),
                                     [_task()]):
            with pytest.raises(ManifestError, match=message) as caught:
                mf.load(path)
            texts.append(str(caught.value).replace(str(path), "M"))
        assert texts[0] == texts[1]

    def test_iterating_a_json_manifest_builds_nothing(
            self, tmp_path, built_tasks):
        json_path, _ = self._write_both(
            tmp_path, self._header(), [_task(id="a"), _task(id="b")])
        manifest = mf.load(json_path)
        assert built_tasks == [0, 1]            # every task, at load
        assert [t.id for t in manifest.iter_tasks()] == ["a", "b"]
        assert [index for index, _ in manifest.iter_indexed(
            skip=frozenset({0}))] == [1]
        assert built_tasks == [0, 1]
