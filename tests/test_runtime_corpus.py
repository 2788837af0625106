"""Unit tests for streamed corpus generation (repro.runtime.corpus)."""

import json

from repro.runtime import corpus
from repro.runtime import manifest as mf


class TestStreamEquivalence:
    def test_iter_tasks_matches_generate_tasks(self):
        assert list(corpus.iter_tasks(25, seed=3)) \
            == corpus.generate_tasks(25, seed=3)

    def test_prefix_stability(self):
        """Streaming the first k tasks of a bigger corpus yields the
        same tasks as a smaller corpus of the same seed — the
        generator draws per-task, with no global shuffling."""
        import itertools
        big = itertools.islice(corpus.iter_tasks(1000, seed=7), 10)
        assert list(big) == corpus.generate_tasks(10, seed=7)

    def test_stream_manifest_matches_eager_manifest(self):
        eager = mf.from_payload(corpus.generate_manifest(15, seed=2))
        streaming = corpus.stream_manifest(15, seed=2)
        assert streaming.task_count == eager.task_count
        assert [t.id for t in streaming.iter_tasks()] \
            == [t.id for t in eager.iter_tasks()]


class TestHundredKScale:
    def test_100k_manifest_is_lazy(self):
        """The 100k-task manifest is O(1) to build and to peek at —
        only the tasks actually pulled are ever validated."""
        manifest = corpus.stream_manifest(100_000, seed=1)
        assert manifest.task_count == 100_000
        iterator = manifest.iter_tasks()
        first = next(iterator)
        assert first.id == "corpus-0000"
        # Pull a handful more; the other ~100k are never built.
        for _ in range(4):
            next(iterator)

    def test_jsonl_writer_streams_line_by_line(self):
        """write_jsonl emits header + one task per line, and the
        header count matches what load() will enforce."""
        import io
        buffer = io.StringIO()
        corpus.write_jsonl(buffer, 30, seed=4)
        lines = buffer.getvalue().splitlines()
        header = json.loads(lines[0])
        assert header["count"] == 30
        assert header["schema"] == mf.MANIFEST_SCHEMA
        assert len(lines) == 31
        assert json.loads(lines[1])["id"] == "corpus-0000"

    def test_jsonl_round_trip_through_load(self, tmp_path, built_tasks):
        path = tmp_path / "corpus.jsonl"
        with open(path, "w") as handle:
            corpus.write_jsonl(handle, 12, seed=9)
        manifest = mf.load(path)
        assert built_tasks == []                # lazy: nothing built yet
        assert manifest.task_count == 12
        assert [t.id for t in manifest.iter_tasks()] \
            == [t["id"] for t in corpus.iter_tasks(12, seed=9)]
        assert built_tasks == list(range(12))


class TestCLIFormats:
    def test_format_inferred_from_out_suffix(self, tmp_path, built_tasks):
        out = tmp_path / "c.jsonl"
        assert corpus.main(["--count", "5", "--seed", "1",
                            "--out", str(out)]) == 0
        manifest = mf.load(out)
        assert manifest.task_count == 5
        # The streaming layout: skipped tasks are never built.
        assert [index for index, _ in manifest.iter_indexed(
            skip=frozenset({0, 1, 2}))] == [3, 4]
        assert built_tasks == [3, 4]

    def test_explicit_json_format_still_one_document(self, tmp_path):
        out = tmp_path / "c.json"
        assert corpus.main(["--count", "5", "--seed", "1",
                            "--format", "json",
                            "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["tasks"]) == 5
