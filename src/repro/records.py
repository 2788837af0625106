"""Record files: the JSON-lines format of the batch journal, the run
ledger and span traces, whose rules docs/ROBUSTNESS.md § "Record
files" states.  :func:`append` writes a record to an open stream as
one line in a single write, and :func:`sync` makes what was appended
durable; :func:`read` leaves out a torn last line (no newline, or does
not parse); :func:`repair` cuts one off before a writer appends.
Records are ASCII, so a character offset is a byte offset.

:func:`check` is the one field check of every record a command reads
back — journal results, ledger records, span traces, ``obs diff``
snapshots and benchmark reports — so a missing or mistyped field
raises the reader's own :class:`ReproError` naming the file, the line
and the field (exit 2), never a traceback.  :func:`check_time` does
the same for a Unix time a reader renders as a date.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from typing import IO, Any, Callable, Iterable, NamedTuple

from repro.errors import ReproError
from repro.faults import plan as _faults
from repro.obs import metrics as _obs


#: The types of a JSON number (a bool is not one, see :func:`check`).
NUMBER = (int, float)


def fingerprint(text: str | None) -> str | None:
    """sha-256 of ``text``, first 12 hex digits (``None`` passes)."""
    if text is None:
        return None
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def append(stream: IO[str], record: dict, *, fsync: bool = False,
           site: str | None = None) -> bool:
    """Append ``record`` to ``stream`` and flush it, then :func:`sync`
    it under ``fsync``.  ``site``, a fault site, is applied to the line
    before anything is touched; ``False`` means it tore the line, and
    the caller must stop appending.  A failure raises
    :class:`ReproError` and closes the stream (its buffer would only
    fail again) unless it is stdout or stderr."""
    line = json.dumps(record, sort_keys=True) + "\n"
    if site is not None and _faults.active:
        line = _faults.mangle(site, line)
    try:
        stream.write(line)
        stream.flush()
    except OSError as error:
        raise _failed(stream, error) from error
    if fsync:
        sync(stream)
    return line.endswith("\n")


def sync(stream: IO[str]) -> None:
    """fsync the file under ``stream``, whose appends are flushed: every
    record appended so far survives a power loss.  A failure is handled
    as :func:`append` handles one."""
    try:
        os.fsync(stream.fileno())
    except OSError as error:
        raise _failed(stream, error) from error


def _failed(stream: IO[str], error: OSError) -> ReproError:
    if stream not in (sys.stdout, sys.stderr):
        with contextlib.suppress(OSError):
            stream.close()
    name = getattr(stream, "name", "<stream>")
    return ReproError(f"cannot append to {name}: {error}")


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


def check(record: Any, fields: Iterable[tuple[str, Any, bool]], *,
          where: str, error: Callable[[str], Exception]) -> dict:
    """``record``, once it is an object whose every ``(key, types,
    required)`` field is present when required and an instance of
    ``types`` when present (a bool passes only where ``types`` names
    ``bool``: JSON ``true`` is not a number).  Otherwise raises
    ``error(message)``, the message starting with ``where``."""
    if not isinstance(record, dict):
        raise error(f"{where}: expected an object, got "
                    f"{type(record).__name__}")
    for key, types, required in fields:
        if key not in record:
            if required:
                raise error(f"{where}: missing {key!r}")
            continue
        value = record[key]
        allowed = types if isinstance(types, tuple) else (types,)
        if not isinstance(value, allowed) \
                or isinstance(value, bool) and bool not in allowed:
            raise error(f"{where}: {key!r} has the wrong type "
                        f"{type(value).__name__}")
    return record


def check_time(record: dict, key: str, *, where: str,
               error: Callable[[str], Exception]) -> None:
    """Raise ``error(message)`` unless ``record[key]`` (a number or null
    once :func:`check` passed it) is absent, null or a Unix time that
    ``datetime.fromtimestamp`` converts (``NaN`` and ``1e20`` are not)."""
    if record.get(key) is None:
        return
    # Imported here: only the readers that print a date get this far.
    from datetime import datetime, timezone
    try:
        datetime.fromtimestamp(record[key], tz=timezone.utc)
    except (OverflowError, OSError, ValueError):
        raise error(f"{where}: {key!r} is not a Unix time: "
                    f"{record[key]!r}") from None
