"""Record files: the JSON-lines format of the batch journal, the run
ledger, heartbeats, span traces and normalization checkpoints, whose
rules docs/ROBUSTNESS.md § "Record files" states.  :func:`append`
writes a record as one line in a single write; :func:`read` leaves out
a torn last line (no newline, or does not parse); :func:`repair` cuts
one off before a writer appends.  Records are ASCII, so a character
offset is a byte offset.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from typing import IO, Any, Callable, NamedTuple

from repro.errors import ReproError
from repro.faults import plan as _faults
from repro.obs import metrics as _obs


def fingerprint(text: str | None) -> str | None:
    """sha-256 of ``text``, first 12 hex digits (``None`` passes)."""
    if text is None:
        return None
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def append(target: IO[str] | str | os.PathLike, record: dict, *,
           fsync: bool = False, site: str | None = None) -> bool:
    """Append ``record`` to a stream, or to the file at a path (opened,
    repaired and closed around it).  ``site``, a fault site, is applied
    to the line before anything is touched; ``False`` means it tore the
    line, and the caller must stop appending."""
    line = json.dumps(record, sort_keys=True) + "\n"
    if site is not None and _faults.active:
        line = _faults.mangle(site, line)
    if hasattr(target, "write"):
        return _write(target, line, fsync)
    with open(target, "a+", encoding="utf-8") as stream:
        repair(stream)
        return _write(stream, line, fsync)


def _write(stream: IO[str], line: str, fsync: bool) -> bool:
    """A failure raises :class:`ReproError` and closes the stream (its
    buffer would only fail again) unless it is stdout or stderr."""
    try:
        stream.write(line)
        stream.flush()
        if fsync:
            os.fsync(stream.fileno())
    except OSError as error:
        if stream not in (sys.stdout, sys.stderr):
            with contextlib.suppress(OSError):
                stream.close()
        name = getattr(stream, "name", "<stream>")
        raise ReproError(f"cannot append to {name}: {error}") from error
    return line.endswith("\n")


def _intact(text: str) -> int:
    """The length of ``text`` before its torn last line, if any."""
    start = text.rfind("\n") + 1
    if text[start:].strip():
        return start                    # the last line lacks its newline
    start = text.rstrip().rfind("\n") + 1
    if text[start:].strip():
        try:
            json.loads(text[start:])
        except ValueError:
            return start                # the last line does not parse
    return len(text)


def repair(stream: IO[str], *, site: str | None = None) -> bool:
    """Cut a torn last line off ``stream`` (open ``"a+"``/``"r+"``) and
    leave it at its end; a write-only stream is left alone.  ``site``
    is a fault site applied to the text read back (``truncate`` =
    losing a tail, which the cut makes real).  Returns whether it cut."""
    if not stream.readable():
        return False
    stream.seek(0)
    text = stream.read()
    keep = _intact(_faults.mangle(site, text)
                   if site is not None and _faults.active else text)
    if keep < len(text):
        stream.truncate(keep)
    stream.seek(0, os.SEEK_END)
    return keep < len(text)


def warn_torn(source: str, counter: str) -> None:
    """The one torn-tail warning, counted as ``counter``."""
    print(f"warning: {source}: torn trailing record dropped (crash "
          f"mid-append?)", file=sys.stderr)
    if _obs.enabled:
        _obs.inc(counter)


def read_text(source: str | os.PathLike, *,
              error: Callable[[str], Exception]) -> tuple[str, str]:
    """``(name, text)`` of a path, or of stdin for ``-``."""
    if str(source) == "-":
        return "<stdin>", sys.stdin.read()
    try:
        with open(source, encoding="utf-8") as stream:
            return str(source), stream.read()
    except (OSError, ValueError) as failure:
        raise error(f"cannot read {source}: {failure}") from failure


class Records(NamedTuple):
    source: str                     # the file's name in messages
    lines: list[tuple[int, Any]]    # (line number, record), intact only
    torn: int | None                # the torn last line's number


def read(source: str | os.PathLike, *,
         error: Callable[[str], Exception],
         text: str | None = None) -> Records:
    """Parse a record file: a path, ``-`` (stdin), or ``text`` (then
    ``source`` only names it).  A bad line before the last raises
    ``error(message)``."""
    source, text = read_text(source, error=error) if text is None \
        else (str(source), text)
    keep = _intact(text)
    lines = []
    for number, line in enumerate(text[:keep].split("\n"), start=1):
        if line.strip():
            try:
                lines.append((number, json.loads(line)))
            except ValueError as failure:
                raise error(f"{source}:{number}: malformed record: not "
                            f"valid JSON ({failure})") from failure
    torn = text.count("\n", 0, keep) + 1 if keep < len(text) else None
    return Records(source, lines, torn)
