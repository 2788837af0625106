"""Seeded spec-corpus generation for batch and chaos runs.

The chaos-batch CI job and the ensemble-agreement acceptance test need
*many* valid ``(D, Σ)`` inputs, varied enough to exercise all three
implication engines, yet fully deterministic so failures replay.  This
module generates them: :func:`generate_manifest` produces a
self-contained batch-manifest payload (inline ``dtd_text`` /
``fds_text``, no files to ship) whose tasks are drawn from three spec
families by a :class:`random.Random` seeded from the caller's seed:

* **simple** — a flat ``db (row*)`` DTD with 2–4 required attributes;
  the closure engine is *complete* here, so ensemble runs cross-check
  closure against the chase on equal authority;
* **disjunctive** — ``db ((a | b)*)``: non-simple, the regime where
  the chase must enumerate disjunction choices and the closure is only
  sound — the interesting territory for differential testing;
* **nested** — the paper's university shape (``course`` / ``taken_by``
  / ``student``), where the classic anomalous FD
  ``student.@sno -> student.@name`` drives real normalization work.

Run as a module to write a manifest file for the CLI::

    python -m repro.runtime.corpus --count 200 --seed 1 --out batch.json

Generation is a true stream: :func:`iter_tasks` yields one task dict
at a time from O(1) state, so 100k-task manifests are emitted (and,
via the lazy ``.jsonl`` layout of :class:`~repro.runtime.manifest.
Manifest`, later consumed) without ever materializing the whole
corpus — ``--format jsonl`` writes the streaming layout, and
:func:`stream_manifest` hands the same corpus to the batch runner
directly::

    python -m repro.runtime.corpus --count 100000 --seed 1 \
        --format jsonl --out batch.jsonl
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import IO, Iterator

from repro.runtime import manifest as _manifest
from repro.runtime.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_VERSION,
    OPERATIONS,
)

_SIMPLE_ATTRS = ("a", "b", "c", "d")


def _pairs(rng: random.Random, pool: list[str],
           count: int) -> list[str]:
    """``count`` distinct ``lhs -> rhs`` FDs over ``pool``, never both
    directions of one pair (``@a -> @b, @b -> @a``).  The normalizer
    handles such a two-cycle; the rule stays because dropping it would
    change the generated corpus and every baseline recorded on it."""
    fds: list[str] = []
    seen: set[tuple[str, str]] = set()
    while len(fds) < count:
        lhs = rng.choice(pool)
        rhs = rng.choice([path for path in pool if path != lhs])
        if (lhs, rhs) in seen or (rhs, lhs) in seen:
            continue
        seen.add((lhs, rhs))
        fds.append(f"{lhs} -> {rhs}")
    return fds


def _simple_spec(rng: random.Random) -> tuple[str, list[str], list[str]]:
    count = rng.randint(2, len(_SIMPLE_ATTRS))
    attrs = _SIMPLE_ATTRS[:count]
    dtd = ("<!ELEMENT db (row*)>\n<!ELEMENT row EMPTY>\n<!ATTLIST row "
           + " ".join(f"{name} CDATA #REQUIRED" for name in attrs)
           + ">")
    pool = [f"db.row.@{name}" for name in attrs] + ["db.row"]
    return dtd, _pairs(rng, pool, rng.randint(1, 2)), _pairs(rng, pool, 3)


def _disjunctive_spec(rng: random.Random,
                      ) -> tuple[str, list[str], list[str]]:
    dtd = ("<!ELEMENT db ((a | b)*)>\n"
           "<!ELEMENT a EMPTY>\n<!ATTLIST a x CDATA #REQUIRED>\n"
           "<!ELEMENT b EMPTY>\n<!ATTLIST b y CDATA #REQUIRED>")
    pool = ["db.a.@x", "db.b.@y", "db.a", "db.b"]
    return dtd, _pairs(rng, pool, rng.randint(1, 2)), _pairs(rng, pool, 3)


def _nested_spec(rng: random.Random) -> tuple[str, list[str], list[str]]:
    dtd = ("<!ELEMENT db (course*)>\n"
           "<!ELEMENT course (taken_by)>\n"
           "<!ATTLIST course cno CDATA #REQUIRED "
           "title CDATA #REQUIRED>\n"
           "<!ELEMENT taken_by (student*)>\n"
           "<!ELEMENT student EMPTY>\n"
           "<!ATTLIST student sno CDATA #REQUIRED "
           "name CDATA #REQUIRED>")
    student = "db.course.taken_by.student"
    candidates = [
        "db.course.@cno -> db.course",
        "db.course.@cno -> db.course.@title",
        f"{student}.@sno -> {student}.@name",          # anomalous
        f"{{db.course, {student}.@sno}} -> {student}",
        # NB: not the reverse "@title -> @cno": the normalizer handles
        # that cycle, but adding it would change the generated corpus.
        "db.course.@title -> db.course",
    ]
    fds = rng.sample(candidates, rng.randint(1, 3))
    return dtd, fds, list(candidates)


_FAMILIES = (_simple_spec, _disjunctive_spec, _nested_spec)


def iter_tasks(count: int, *, seed: int = 0,
               ops: tuple[str, ...] = OPERATIONS) -> Iterator[dict]:
    """Yield ``count`` manifest task dicts, deterministic in ``seed``.

    O(1) generator state: the 100k-task corpora the pool backend
    parallelizes are produced one task at a time, never as a list.
    """
    rng = random.Random(f"repro.runtime.corpus:{seed}")
    for index in range(count):
        family = rng.choice(_FAMILIES)
        dtd, fds, pool = family(rng)
        op = rng.choice(list(ops))
        task: dict = {"id": f"corpus-{index:04d}", "op": op,
                      "dtd_text": dtd, "fds_text": "\n".join(fds)}
        if op == "implies":
            # Query an FD that is in Σ (trivially implied) or a fresh
            # one from the pool — both verdict polarities show up.
            task["fd"] = rng.choice(fds) if rng.random() < 0.5 \
                else rng.choice(pool)
        yield task


def generate_tasks(count: int, *, seed: int = 0,
                   ops: tuple[str, ...] = OPERATIONS) -> list[dict]:
    """``count`` manifest task dicts, deterministic in ``seed``."""
    return list(iter_tasks(count, seed=seed, ops=ops))


def _defaults(seed: int, defaults: dict | None) -> dict:
    """A corpus manifest's ``defaults``: the corpus seed, overridden
    by the caller's."""
    return {"seed": seed, **(defaults or {})}


def generate_manifest(count: int, *, seed: int = 0,
                      ops: tuple[str, ...] = OPERATIONS,
                      defaults: dict | None = None) -> dict:
    """A complete, self-contained manifest payload (JSON-ready)."""
    return {"schema": MANIFEST_SCHEMA, "version": MANIFEST_VERSION,
            "defaults": _defaults(seed, defaults),
            "tasks": generate_tasks(count, seed=seed, ops=ops)}


def stream_manifest(count: int, *, seed: int = 0,
                    ops: tuple[str, ...] = OPERATIONS,
                    defaults: dict | None = None,
                    ) -> _manifest.Manifest:
    """The same corpus as :func:`generate_manifest`, as a lazy
    re-iterable :class:`~repro.runtime.manifest.Manifest` — the
    in-process route to a 100k-task batch with O(1) manifest
    memory."""
    return _manifest.stream(
        lambda: iter_tasks(count, seed=seed, ops=ops), count,
        defaults=_defaults(seed, defaults),
        source=f"<corpus count={count} seed={seed}>")


def write_jsonl(stream: IO[str], count: int, *, seed: int = 0,
                ops: tuple[str, ...] = OPERATIONS,
                defaults: dict | None = None) -> None:
    """Write the streaming (``.jsonl``) manifest layout: one header
    line carrying the envelope + declared ``count``, then one task
    object per line — O(1) memory at any corpus size."""
    header = {"schema": MANIFEST_SCHEMA, "version": MANIFEST_VERSION,
              "defaults": _defaults(seed, defaults), "count": count}
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    for task in iter_tasks(count, seed=seed, ops=ops):
        stream.write(json.dumps(task, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.corpus",
        description="Generate a seeded batch-manifest spec corpus.")
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", default=",".join(OPERATIONS),
                        help="comma-separated subset of "
                        f"{list(OPERATIONS)}")
    parser.add_argument("--out", default="-",
                        help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("json", "jsonl"),
                        default=None,
                        help="manifest layout: one JSON document, or "
                        "the streaming header+task-per-line .jsonl "
                        "layout (default: by --out suffix, json "
                        "otherwise)")
    options = parser.parse_args(argv)
    ops = tuple(op.strip() for op in options.ops.split(",") if op.strip())
    unknown = [op for op in ops if op not in OPERATIONS]
    if unknown:
        parser.error(f"unknown ops {unknown}; "
                     f"choose from {list(OPERATIONS)}")
    fmt = options.format
    if fmt is None:
        fmt = "jsonl" if options.out.endswith(".jsonl") else "json"

    def write(handle: IO[str]) -> None:
        if fmt == "jsonl":
            write_jsonl(handle, options.count, seed=options.seed,
                        ops=ops)
        else:
            payload = generate_manifest(options.count,
                                        seed=options.seed, ops=ops)
            handle.write(json.dumps(payload, indent=2, sort_keys=True)
                         + "\n")

    if options.out == "-":
        write(sys.stdout)
    else:
        with open(options.out, "w") as handle:
            write(handle)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
