"""An LRU cache of parsed specifications, keyed by content fingerprint.

A long-running service sees the same ``(DTD, Σ)`` pair across many
requests — the whole point of a warm daemon over the one-shot CLI.
Parsing the DTD, validating Σ, and (especially) re-deriving the
implication engine's internal state per request would throw that
warmth away.  :class:`SpecCache` keeps the most recently used
:class:`~repro.spec.XMLSpec` objects alive, keyed by the same sha-256
fingerprints the journal, ledger and checkpoint files use
(:func:`repro.records.fingerprint`), so a cache key never depends
on whitespace-insignificant differences being equal — only on the
exact request text, root override, and engine choice.

Contract:

* builds happen **outside** the lock — a pathological DTD being parsed
  under a request budget must not block hits for other requests;
* a build that raises (including an injected fault at
  ``serve.cache.fill``) inserts **nothing** — the cache cannot be
  poisoned by failures, and the next identical request rebuilds from
  scratch;
* eviction is size-bounded LRU; ``serve.cache.hit`` /
  ``serve.cache.miss`` / ``serve.cache.evictions`` counters and a
  ``serve.cache.size`` gauge make the hit rate observable on
  ``/metrics``.

Two threads missing on the same key may both build; the second insert
wins and the first spec simply becomes garbage — acceptable duplicate
work, never an inconsistency, because specs are immutable once built.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable

from repro.faults import plan as _faults
from repro.obs import metrics as _obs
from repro.records import fingerprint
from repro.spec import XMLSpec

_SITE_FILL = _faults.register_site(
    "serve.cache.fill", "serve",
    "spec-cache miss, before the DTD/Σ parse that would fill it")

#: A cache key: (dtd fingerprint, fds fingerprint, root, engine).
Key = tuple[str, str, str | None, str]


def spec_key(dtd_text: str, fds_text: str, *, root: str | None = None,
             engine: str = "auto") -> Key:
    """The fingerprint key identifying one parsed specification."""
    return (fingerprint(dtd_text), fingerprint(fds_text), root, engine)


class SpecCache:
    """Bounded LRU of parsed :class:`~repro.spec.XMLSpec` objects."""

    def __init__(self, *, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: OrderedDict[Key, XMLSpec] = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, dtd_text: str, fds_text: str, *,
            root: str | None = None, engine: str = "auto") -> XMLSpec:
        """The cached spec for these texts, building it on a miss.

        Raises whatever the parse raises (``ParseError``,
        ``FDSyntaxError``, an injected fault, ...) without inserting
        anything.
        """
        key = spec_key(dtd_text, fds_text, root=root, engine=engine)
        with self._lock:
            spec = self._entries.get(key)
            if spec is not None:
                self._entries.move_to_end(key)
                self._count("serve.cache.hit")
                return spec
        self._count("serve.cache.miss")
        if _faults.active:
            _faults.fire(_SITE_FILL)
        spec = XMLSpec.parse(dtd_text, fds_text, root=root, engine=engine)
        with self._lock:
            self._entries[key] = spec
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._count("serve.cache.evictions")
            if _obs.enabled:
                _obs.set_gauge("serve.cache.size", len(self._entries))
        return spec

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            if _obs.enabled:
                _obs.set_gauge("serve.cache.size", 0)

    @staticmethod
    def _count(name: str) -> None:
        if _obs.enabled:
            _obs.inc(name)
