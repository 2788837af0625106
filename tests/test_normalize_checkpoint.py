"""Resumable normalization: checkpoint format, resume correctness.

The core guarantee: a run interrupted at *any* checkpoint boundary and
resumed produces byte-identical output (serialized DTD, Σ, step log
length) to the uninterrupted run — for the paper examples and for a
population of generated specifications.
"""

from __future__ import annotations

import json
import random

import pytest

from repro import faults
from repro.errors import CheckpointError, InjectedFault
from repro.datasets.generators import (
    random_fds,
    random_simple_dtd,
    scaled_university_spec,
)
from repro.datasets.dblp import dblp_spec
from repro.datasets.university import university_spec
from repro.dtd.serializer import serialize_dtd
from repro.errors import UnsupportedFeatureError
from repro.normalize import checkpoint as ck
from repro.normalize.algorithm import normalize


def _output(result):
    """The byte-comparable rendering of a normalization outcome."""
    return (serialize_dtd(result.dtd),
            [str(fd) for fd in result.sigma],
            [step.description for step in result.steps])


def _assert_resume_identical(dtd, sigma):
    """Interrupt at every checkpoint boundary; resume must reproduce
    the uninterrupted run exactly (through a JSON round-trip)."""
    base = normalize(dtd, sigma)
    expected = _output(base)
    boundaries = []
    normalize(dtd, sigma, on_step=boundaries.append)
    assert len(boundaries) == len(base.steps)
    for checkpoint in boundaries:
        restored = ck.NormalizationCheckpoint.from_json(
            checkpoint.to_json())
        resumed = normalize(dtd, sigma, resume=restored)
        assert _output(resumed) == expected


class TestResumeCorrectness:
    def test_university_example(self):
        spec = university_spec()
        _assert_resume_identical(spec.dtd, list(spec.sigma))

    def test_dblp_example(self):
        spec = dblp_spec()
        _assert_resume_identical(spec.dtd, list(spec.sigma))

    @pytest.mark.parametrize("k", [2, 4])
    def test_scaled_multi_step(self, k):
        spec = scaled_university_spec(k)
        base = normalize(spec.dtd, list(spec.sigma))
        assert len(base.steps) == k  # genuinely multi-boundary
        _assert_resume_identical(spec.dtd, list(spec.sigma))

    def test_fifty_generated_specs(self):
        covered = 0
        seed = 0
        while covered < 50:
            seed += 1
            rng = random.Random(seed)
            dtd = random_simple_dtd(rng, max_depth=3, max_children=2,
                                    max_attrs=2)
            sigma = random_fds(rng, dtd, rng.randint(1, 3))
            try:
                if not normalize(dtd, sigma).steps:
                    continue
            except UnsupportedFeatureError:
                continue
            _assert_resume_identical(dtd, sigma)
            covered += 1

    def test_resume_after_injected_fault(self, tmp_path):
        """The advertised workflow: a fault kills the run right after a
        snapshot; resuming from the file completes identically."""
        spec = scaled_university_spec(3)
        base = normalize(spec.dtd, list(spec.sigma))
        path = tmp_path / "run.ckpt"
        with faults.inject("normalize.checkpoint", after=1):
            with pytest.raises(InjectedFault):
                normalize(spec.dtd, list(spec.sigma),
                          on_step=lambda cp: ck.save(path, cp))
        restored = ck.load(path)
        assert restored.rounds_completed == 2
        resumed = normalize(spec.dtd, list(spec.sigma), resume=restored)
        assert _output(resumed) == _output(base)

    def test_recorded_steps_refuse_migration(self):
        spec = scaled_university_spec(2)
        boundaries = []
        normalize(spec.dtd, list(spec.sigma),
                  on_step=boundaries.append)
        resumed = normalize(spec.dtd, list(spec.sigma),
                            resume=boundaries[0])
        from repro.datasets.university import university_document
        with pytest.raises(CheckpointError, match="migrate"):
            resumed.migrate(university_document())


class TestCheckpointFormat:
    def _one(self):
        spec = university_spec()
        boundaries = []
        normalize(spec.dtd, list(spec.sigma), on_step=boundaries.append)
        return spec, boundaries[-1]

    def test_json_round_trip(self):
        _spec, checkpoint = self._one()
        restored = ck.NormalizationCheckpoint.from_json(
            checkpoint.to_json())
        assert restored == checkpoint

    def test_schema_discriminator_and_version(self):
        _spec, checkpoint = self._one()
        payload = json.loads(checkpoint.to_json())
        assert payload["schema"] == ck.CHECKPOINT_SCHEMA
        assert payload["version"] == ck.CHECKPOINT_VERSION

    def test_version_mismatch_rejected(self):
        _spec, checkpoint = self._one()
        payload = json.loads(checkpoint.to_json())
        payload["version"] = ck.CHECKPOINT_VERSION + 1
        with pytest.raises(CheckpointError, match="version"):
            ck.NormalizationCheckpoint.from_json(json.dumps(payload))

    def test_not_a_checkpoint_rejected(self):
        with pytest.raises(CheckpointError):
            ck.NormalizationCheckpoint.from_json("{}")
        with pytest.raises(CheckpointError):
            ck.NormalizationCheckpoint.from_json("not json")
        with pytest.raises(CheckpointError):
            ck.NormalizationCheckpoint.from_json("[1, 2]")

    def test_missing_fields_rejected(self):
        _spec, checkpoint = self._one()
        payload = json.loads(checkpoint.to_json())
        del payload["dtd"]
        with pytest.raises(CheckpointError, match="missing"):
            ck.NormalizationCheckpoint.from_json(json.dumps(payload))

    def test_fingerprint_mismatch_refused(self):
        spec, checkpoint = self._one()
        other = dblp_spec()
        with pytest.raises(CheckpointError, match="different"):
            normalize(other.dtd, list(other.sigma), resume=checkpoint)

    def test_fingerprint_insensitive_to_fd_order(self):
        spec = university_spec()
        sigma = list(spec.sigma)
        assert ck.fingerprint(spec.dtd, sigma) \
            == ck.fingerprint(spec.dtd, list(reversed(sigma)))

    def test_corrupt_state_rejected(self):
        _spec, checkpoint = self._one()
        payload = json.loads(checkpoint.to_json())
        payload["dtd"] = "<!ELEMENT broken ("
        broken = ck.NormalizationCheckpoint.from_json(
            json.dumps(payload))
        with pytest.raises(CheckpointError, match="parse"):
            broken.restore()

    def test_save_and_load_round_trip(self, tmp_path):
        _spec, checkpoint = self._one()
        path = tmp_path / "a.ckpt"
        ck.save(path, checkpoint)
        assert ck.load(path) == checkpoint
        # one record file, no stray files left behind
        assert [p.name for p in tmp_path.iterdir()] == ["a.ckpt"]

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            ck.load(tmp_path / "absent.ckpt")

    def test_obs_counters(self, tmp_path):
        from repro import obs
        _spec, checkpoint = self._one()
        obs.enable()
        obs.reset()
        try:
            path = tmp_path / "c.ckpt"
            ck.save(path, checkpoint)
            ck.load(path).restore()
            counters = obs.snapshot()["counters"]
            assert counters["checkpoint.saved"] == 1
            assert counters["checkpoint.restored"] == 1
        finally:
            obs.reset()
            obs.disable()


class TestAtomicSaveCrashWindow:
    """The ``checkpoint.save`` fault site fires before the file is
    touched, so a failed save neither creates, tears nor leaves files
    beside the checkpoint."""

    def _one(self):
        spec = university_spec()
        boundaries = []
        normalize(spec.dtd, list(spec.sigma), on_step=boundaries.append)
        return boundaries[-1]

    @pytest.mark.parametrize("kind", ["exception", "allocation"])
    def test_failed_save_leaves_no_temp_files(self, tmp_path, kind):
        checkpoint = self._one()
        path = tmp_path / "c.ckpt"
        with faults.use(faults.plan_from_spec(f"checkpoint.save:{kind}")):
            with pytest.raises(Exception) as info:
                ck.save(path, checkpoint)
        from repro.errors import ReproError
        assert isinstance(info.value, ReproError)
        # Neither a torn checkpoint nor any other file survives.
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_preserves_previous_checkpoint(self, tmp_path):
        checkpoint = self._one()
        path = tmp_path / "c.ckpt"
        ck.save(path, checkpoint)
        before = path.read_text()
        with faults.use(faults.plan_from_spec("checkpoint.save")):
            with pytest.raises(InjectedFault):
                ck.save(path, checkpoint)
        # A failed save never tears the existing file.
        assert path.read_text() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_save_succeeds_after_the_transient_fault(self, tmp_path):
        """The transient model: the arm fires once; a retry lands."""
        checkpoint = self._one()
        path = tmp_path / "c.ckpt"
        with faults.use(faults.plan_from_spec("checkpoint.save")):
            with pytest.raises(InjectedFault):
                ck.save(path, checkpoint)
            ck.save(path, checkpoint)     # same plan, arm spent
        assert ck.load(path).fingerprint == checkpoint.fingerprint
