"""The FD implication facade: ``(D, Σ) |- φ`` (Section 7).

Engine selection (``engine="auto"``):

* the **closure** engine runs first — it is sound for every DTD and
  complete for simple DTDs (Theorem 3's quadratic regime), so a
  ``True`` answer is always final and a ``False`` answer is final when
  the DTD is simple;
* otherwise the **chase** engine decides exactly, enumerating the
  DTD's disjunction choices (polynomial when ``N_D`` is logarithmic —
  Theorem 4 — and exponential in general, matching the
  coNP-completeness of Theorem 5);
* ``engine="closure" | "chase" | "brute"`` forces a specific engine;
* ``engine="ensemble"`` runs the differential oracle
  (:mod:`repro.fd.ensemble`): every applicable engine decides
  every query, verdicts are cross-checked, and contradictions are
  escalated instead of silently resolved.

:class:`ImplicationEngine` caches query results, which the XNF test and
the normalization algorithm exploit heavily.  The cache is keyed by the
canonical form of each single-RHS query (see :meth:`ImplicationEngine.
cache_key`) and instrumented: :meth:`ImplicationEngine.cache_info`
mirrors :func:`functools.lru_cache`, and when :mod:`repro.obs` is
enabled the engine emits ``implication.*`` counters (cache hits and
misses, engine chosen per decided query, closure→chase fallbacks).

**Resource governance** (see ``docs/ROBUSTNESS.md``): under an active
:mod:`repro.guard` budget the engines raise
:class:`~repro.errors.ResourceExhausted` instead of running unbounded.
:meth:`ImplicationEngine.implies` lets that propagate (a boolean API
cannot degrade); :meth:`ImplicationEngine.decide` walks the fallback
chain — the cache, then the always-sound closure, then (non-simple
DTDs) the budget-bounded chase — and converts exhaustion into a
three-valued :class:`ImplicationVerdict`: :data:`YES` / :data:`NO` /
:data:`UNKNOWN` with the tripped limit named.  The cache is keyed on
*completeness*: only fully decided answers are stored, so an
``UNKNOWN`` produced under a tight budget is never replayed as
authoritative by a later (or warmer) query.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Literal, NamedTuple, get_args

from repro.errors import ResourceExhausted, UnsupportedFeatureError
from repro.dtd.classify import is_simple_dtd
from repro.dtd.model import DTD
from repro.fd.brute import brute_implies
from repro.fd.chase import chase_implies
from repro.fd.closure import SigmaIndex, closure_implies
from repro.fd.model import FD
from repro.obs import metrics as _obs

EngineName = Literal["auto", "closure", "chase", "brute", "ensemble"]

#: The engine names: the one list every engine name is checked against.
ENGINES: tuple[str, ...] = get_args(EngineName)

#: The three verdict values of :meth:`ImplicationEngine.decide`.
YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"


class ImplicationVerdict(NamedTuple):
    """A three-valued implication answer.

    ``value`` is :data:`YES`, :data:`NO`, or :data:`UNKNOWN`; both
    definite values are **sound** (backed by a completed engine run),
    while ``UNKNOWN`` is only ever produced when a resource limit
    actually tripped — ``limit`` then names it (``"deadline"``,
    ``"steps"``, ``"branches"``, or ``"nodes"``) and ``reason`` is a
    human-readable account.
    """

    value: str
    reason: str
    limit: str | None = None

    @property
    def decided(self) -> bool:
        """Whether the verdict is definite (``YES`` or ``NO``)."""
        return self.value != UNKNOWN

#: The cache key of one single-RHS query: ``(lhs, rhs)`` with the LHS
#: as a frozenset of paths and the RHS a single path.
CacheKey = tuple[frozenset, object]


class CacheInfo(NamedTuple):
    """Cache statistics, mirroring ``functools.lru_cache().cache_info()``.

    ``maxsize`` is always ``None``: the cache is unbounded (one entry
    per distinct single-RHS query against a fixed ``(D, Σ)``).
    """

    hits: int
    misses: int
    maxsize: None
    currsize: int


#: Every live engine, tracked weakly so :meth:`ImplicationEngine.
#: clear_all_caches` can reach instances held by long-lived owners
#: (``XMLSpec`` caches its oracle, benchmark closures capture theirs).
_live_engines: "weakref.WeakSet[ImplicationEngine]" = weakref.WeakSet()


class ImplicationEngine:
    """A cached implication oracle for a fixed ``(D, Σ)``.

    ``trivial`` optionally supplies the Σ=∅ engine behind
    :meth:`is_trivial`: one already built on the same ``dtd`` object
    with the same ``engine``, whose answers are then shared instead of
    re-decided.
    """

    def __init__(self, dtd: DTD, sigma: Iterable[FD], *,
                 engine: EngineName = "auto",
                 trivial: "ImplicationEngine | None" = None) -> None:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one "
                             f"of {list(ENGINES)}")
        if trivial is not None and (trivial.dtd is not dtd
                                    or trivial.sigma
                                    or trivial.engine != engine):
            raise ValueError("trivial must be a Σ=∅ engine on the same "
                             "DTD with the same engine")
        self.dtd = dtd
        self.sigma = [fd.validate(dtd) for fd in sigma]
        self.engine: EngineName = engine
        self._simple = is_simple_dtd(dtd)
        self._cache: dict[CacheKey, bool] = {}
        self._hits = 0
        self._misses = 0
        #: Σ compiled for the closure, and the Σ=∅ engine behind
        #: :meth:`is_trivial`; both built on first use.
        self._index: SigmaIndex | None = None
        self._trivial: ImplicationEngine | None = trivial
        _live_engines.add(self)

    @staticmethod
    def cache_key(fd: FD) -> CacheKey:
        """The canonical cache key of a single-RHS query.

        A multi-RHS FD is decided RHS-by-RHS (the standard wlog
        reduction, :meth:`FD.expand`), so the canonical query form is
        the pair ``(lhs, rhs)``: the LHS is already an order-free
        ``frozenset`` of paths and the RHS a single path.  Two
        syntactically different spellings of the same query (path
        order, ``{}`` braces, duplicate paths) therefore hash to the
        same key, which is what makes the hit/miss metrics meaningful.
        """
        return (fd.lhs, fd.single_rhs)

    def implies(self, fd: FD) -> bool:
        """``(D, Σ) |- fd``.

        Under an active :mod:`repro.guard` budget this may raise
        :class:`~repro.errors.ResourceExhausted`; use :meth:`decide`
        for the degrade-gracefully three-valued form.
        """
        result = True
        for single in fd.expand():
            result = self._lookup(single) and result
        return result

    def decide(self, fd: FD) -> ImplicationVerdict:
        """``(D, Σ) |- fd`` as a three-valued verdict.

        Walks the fallback chain per single-RHS query — cached answers,
        then the exact engines in :meth:`_decide`'s order (closure
        first: sound everywhere, complete for simple DTDs; then the
        budget-bounded chase for general DTDs) — and absorbs
        :class:`~repro.errors.ResourceExhausted` into an ``UNKNOWN``
        verdict naming the tripped limit.  A ``NO`` on any conjunct is
        final regardless of budget trips elsewhere (one unimplied RHS
        refutes the conjunction); otherwise any trip degrades the
        overall verdict to ``UNKNOWN``.  Budget-aborted queries are
        **not** cached, so a later call with more budget re-decides
        them from scratch.
        """
        unknown: ImplicationVerdict | None = None
        for single in fd.expand():
            try:
                value = self._lookup(single)
            except ResourceExhausted as error:
                if _obs.enabled:
                    _obs.inc("implication.verdict.unknown")
                if unknown is None:
                    unknown = ImplicationVerdict(
                        UNKNOWN, limit=error.limit,
                        reason=(f"undecided: {error} while deciding "
                                f"{single} (engine "
                                f"{error.partial.get('engine', '?')})"))
                continue
            if not value:
                if _obs.enabled:
                    _obs.inc("implication.verdict.no")
                return ImplicationVerdict(
                    NO, reason=f"{single} is not implied")
        if unknown is not None:
            return unknown
        if _obs.enabled:
            _obs.inc("implication.verdict.yes")
        return ImplicationVerdict(YES, reason="implied")

    def _lookup(self, single: FD) -> bool:
        """Decide one single-RHS query through the cache.

        Only *complete* answers are ever stored: :meth:`_decide`
        signals an aborted run by raising (``ResourceExhausted``
        propagates before the assignment below), so the cache never
        holds a verdict produced under an exhausted budget.
        """
        # Inline cache_key: expand() guarantees a single-RHS FD.
        key = (single.lhs, next(iter(single.rhs)))
        cached = self._cache.get(key)
        if cached is None:
            self._misses += 1
            if _obs.enabled:
                _obs.inc("implication.cache.miss")
            cached = self._decide(single)
            self._cache[key] = cached
        else:
            self._hits += 1
            if _obs.enabled:
                _obs.inc("implication.cache.hit")
        return cached

    def cache_info(self) -> CacheInfo:
        """Hit/miss/size statistics for the query cache."""
        return CacheInfo(self._hits, self._misses, None,
                         len(self._cache))

    def cache_clear(self) -> None:
        """Drop every cached answer (triviality answers included) and
        zero the statistics."""
        self._cache.clear()
        self._hits = 0
        self._misses = 0
        if self._trivial is not None:
            self._trivial.cache_clear()

    @classmethod
    def clear_all_caches(cls) -> int:
        """:meth:`cache_clear` on every live engine; returns how many
        engines were cleared.

        This is the benchmark runner's isolation hook
        (:func:`repro.bench.runner.isolate`): a workload that re-uses a
        spec (whose oracle is cached on the instance) must start every
        run cold, or the first run's counters would differ from every
        later one.
        """
        engines = list(_live_engines)
        for engine in engines:
            engine.cache_clear()
        return len(engines)

    def query_count(self) -> int:
        """Total single-RHS queries answered (cached or decided)."""
        return self._hits + self._misses

    def is_trivial(self, fd: FD) -> bool:
        """``(D, ∅) |- fd``: the FD holds in every conforming tree.

        Answered by one Σ=∅ engine held for this engine's lifetime
        (the constructor's ``trivial``, else built here), so repeated
        triviality checks hit its cache."""
        if self._trivial is None:
            self._trivial = ImplicationEngine(self.dtd, [],
                                              engine=self.engine)
        return self._trivial.implies(fd)

    def _closure(self, fd: FD) -> bool:
        if self._index is None:
            self._index = SigmaIndex(self.dtd, self.sigma)
        return closure_implies(self.dtd, self.sigma, fd,
                               index=self._index)

    def _decide(self, fd: FD) -> bool:
        if self.engine == "closure":
            if _obs.enabled:
                _obs.inc("implication.engine.closure")
            return self._closure(fd)
        if self.engine == "chase":
            if _obs.enabled:
                _obs.inc("implication.engine.chase")
            return chase_implies(self.dtd, self.sigma, fd)
        if self.engine == "brute":
            if _obs.enabled:
                _obs.inc("implication.engine.brute")
            return brute_implies(self.dtd, self.sigma, fd)
        if self.engine == "ensemble":
            # Imported lazily, for start-up: no cold `xnf check` or
            # `xnf normalize` needs the ensemble, whose own import
            # takes 2.2-2.6 ms (`python -X importtime`, CPython 3.11,
            # 2-core Xeon VM).
            from repro.fd.ensemble import differential_implies
            if _obs.enabled:
                _obs.inc("implication.engine.ensemble")
            return differential_implies(self.dtd, self.sigma, fd,
                                        simple=self._simple)
        # auto: closure first (sound everywhere, complete for simple
        # DTDs), then the chase for the general case.
        if _obs.enabled:
            _obs.inc("implication.engine.closure")
        if self._closure(fd):
            return True
        if self._simple:
            return False
        if self.dtd.is_recursive:
            raise UnsupportedFeatureError(
                "exact implication over recursive non-simple DTDs is not "
                "supported; force engine='closure' for a sound "
                "approximation")
        if _obs.enabled:
            _obs.inc("implication.fallback.closure_to_chase")
            _obs.inc("implication.engine.chase")
        return chase_implies(self.dtd, self.sigma, fd)


def implies(dtd: DTD, sigma: Iterable[FD], fd: FD, *,
            engine: EngineName = "auto") -> bool:
    """One-shot ``(D, Σ) |- fd``."""
    return ImplicationEngine(dtd, sigma, engine=engine).implies(fd)


def decide(dtd: DTD, sigma: Iterable[FD], fd: FD, *,
           engine: EngineName = "auto") -> ImplicationVerdict:
    """One-shot three-valued ``(D, Σ) |- fd`` (budget-aware)."""
    return ImplicationEngine(dtd, sigma, engine=engine).decide(fd)


def is_trivial(dtd: DTD, fd: FD, *, engine: EngineName = "auto") -> bool:
    """Whether ``fd`` is trivial: implied by the DTD alone."""
    return implies(dtd, [], fd, engine=engine)
