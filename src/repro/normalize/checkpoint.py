"""Versioned checkpoints making the Figure 4 fixpoint resumable.

The decomposition algorithm is an iterative fixpoint over ``(D, Σ)``:
each round applies one schema transformation and both the DTD and the
FD set after round *k* are a complete description of the remaining
work.  A :class:`NormalizationCheckpoint` snapshots exactly that state
— the current DTD (serialized), the current Σ (one FD string per
entry, order preserved), and the log of applied steps — so a run
killed by a guard deadline, an injected fault, or a plain crash can be
restarted from the last applied transform instead of from scratch.

Determinism is what makes this sound: given the same ``(D, Σ)`` the
algorithm picks the same transform, and the serialized DTD/FD forms
round-trip exactly (``tests/test_normalize_checkpoint.py`` pins that a
run interrupted at *every* checkpoint boundary and resumed produces
output identical to the uninterrupted run).

A checkpoint file is a record file (:mod:`repro.records`): each save
appends one full-state record, and :func:`load` returns the last
intact one, so a crash mid-save costs at most the transform being
saved.  Records are schema-versioned (:data:`CHECKPOINT_VERSION`) and
fingerprinted against the *original* ``(D, Σ)``; loading a checkpoint
with the wrong version or resuming against a different specification
raises :class:`~repro.errors.CheckpointError` (the CLI maps it to exit
code 2).

When :mod:`repro.obs` is enabled, saving increments
``checkpoint.saved`` and restoring ``checkpoint.restored``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path as FilePath
from typing import Iterable, Sequence

from repro import records
from repro.errors import CheckpointError, ReproError
from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.dtd.serializer import serialize_dtd
from repro.fd.model import FD
from repro.faults import plan as _faults
from repro.obs import metrics as _obs

_SITE_SAVE = _faults.register_site(
    "checkpoint.save", "normalize",
    "checkpoint record append, before the file is touched (truncate "
    "= a kill mid-save: the torn record reaches the file, and the "
    "next save or load drops it)",
    kinds=_faults.INPUT_KINDS)

#: Bump on any incompatible change to the record layout (2: one
#: JSON-lines record per applied transform).
CHECKPOINT_VERSION = 2

#: The ``schema`` discriminator stored in every checkpoint file.
CHECKPOINT_SCHEMA = "repro.normalize.checkpoint"


def fingerprint(dtd: DTD, sigma: Iterable[FD]) -> str:
    """A stable digest of the *original* ``(D, Σ)`` a run started from.

    Serialization-based, so it is insensitive to how the spec was
    spelled (whitespace, comments, FD path order) but pins the actual
    schema and dependency set.
    """
    return records.fingerprint(
        serialize_dtd(dtd) + "\x00"
        + "\n".join(sorted(str(fd) for fd in sigma)))


@dataclass(frozen=True)
class RecordedStep:
    """A transform applied before a resume: kind and description only.

    The live migrator closure of a
    :class:`~repro.normalize.transforms.TransformStep` cannot be
    serialized, so a resumed result can describe the pre-checkpoint
    steps but not migrate documents across them — re-run the
    normalization uninterrupted when instance migration is needed.
    """

    kind: str
    description: str

    def migrate(self, tree):
        raise CheckpointError(
            "cannot migrate a document across a resumed normalization: "
            f"step {self.description!r} was applied before the "
            "checkpoint and its migrator is not serializable; re-run "
            "the normalization uninterrupted to migrate instances")


@dataclass
class NormalizationCheckpoint:
    """The state of a normalization run after ``rounds_completed``
    applied transforms."""

    fingerprint: str
    dtd_text: str
    sigma: list[str]
    steps: list[dict[str, str]] = field(default_factory=list)
    version: int = CHECKPOINT_VERSION

    @property
    def rounds_completed(self) -> int:
        return len(self.steps)

    # -- construction ------------------------------------------------------

    @classmethod
    def capture(cls, original_fingerprint: str, dtd: DTD,
                sigma: Sequence[FD],
                steps: Sequence) -> "NormalizationCheckpoint":
        """Snapshot the live algorithm state (order-preserving)."""
        return cls(
            fingerprint=original_fingerprint,
            dtd_text=serialize_dtd(dtd),
            sigma=[str(fd) for fd in sigma],
            steps=[{"kind": step.kind, "description": step.description}
                   for step in steps])

    # -- JSON ------------------------------------------------------------

    def record(self) -> dict:
        return {"schema": CHECKPOINT_SCHEMA, "version": self.version,
                "fingerprint": self.fingerprint, "dtd": self.dtd_text,
                "sigma": self.sigma, "steps": self.steps}

    def to_json(self) -> str:
        return json.dumps(self.record(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "NormalizationCheckpoint":
        try:
            return cls.from_record(json.loads(text))
        except json.JSONDecodeError as error:
            raise CheckpointError(
                f"checkpoint is not valid JSON: {error}") from error

    @classmethod
    def from_record(cls, payload: object) -> "NormalizationCheckpoint":
        if not isinstance(payload, dict) \
                or payload.get("schema") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                "not a normalization checkpoint (missing "
                f"schema={CHECKPOINT_SCHEMA!r} discriminator)")
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint schema version {version!r} is not "
                f"supported (expected {CHECKPOINT_VERSION}); re-run "
                "the normalization from scratch")
        try:
            steps = [{"kind": str(step["kind"]),
                      "description": str(step["description"])}
                     for step in payload["steps"]]
            return cls(fingerprint=str(payload["fingerprint"]),
                       dtd_text=str(payload["dtd"]),
                       sigma=[str(fd) for fd in payload["sigma"]],
                       steps=steps, version=version)
        except (KeyError, TypeError) as error:
            raise CheckpointError(
                f"checkpoint is missing required fields: {error}") \
                from error

    # -- restoring ---------------------------------------------------------

    def restore(self) -> tuple[DTD, list[FD], list[RecordedStep]]:
        """Rebuild the algorithm state this checkpoint describes."""
        try:
            dtd = parse_dtd(self.dtd_text)
            sigma = [FD.parse(line) for line in self.sigma]
        except ReproError as error:
            raise CheckpointError(
                f"checkpoint state does not parse: {error}") from error
        recorded = [RecordedStep(kind=step["kind"],
                                 description=step["description"])
                    for step in self.steps]
        if _obs.enabled:
            _obs.inc("checkpoint.restored")
        return dtd, sigma, recorded

    def matches(self, original_fingerprint: str) -> None:
        """Raise unless this checkpoint belongs to that original spec."""
        if self.fingerprint != original_fingerprint:
            raise CheckpointError(
                "checkpoint was recorded for a different (D, Sigma) "
                f"(fingerprint {self.fingerprint} != "
                f"{original_fingerprint}); refusing to resume")


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def save(path: str | FilePath,
         checkpoint: NormalizationCheckpoint) -> None:
    """Append ``checkpoint`` to the file at ``path`` as one record
    (:func:`repro.records.append`: a failed save leaves it untouched)."""
    records.append(path, checkpoint.record(), site=_SITE_SAVE)
    if _obs.enabled:
        _obs.inc("checkpoint.saved")


def load(path: str | FilePath) -> NormalizationCheckpoint:
    """Read a checkpoint file back to its last intact record."""
    found = records.read(path, error=lambda message: CheckpointError(
        f"{message}; re-run the normalization from scratch"))
    if found.torn:
        records.warn_torn(found.source, "checkpoint.torn")
    if not found.lines:
        raise CheckpointError(f"{found.source}: no checkpoint record")
    return NormalizationCheckpoint.from_record(found.lines[-1][1])
