"""The declarative benchmark registry behind :mod:`repro.bench`.

A benchmark is a *workload factory*: a function that performs setup
(parsing, document synthesis, spec construction — excluded from the
measurement) and returns a zero-argument callable, the measured body::

    from repro.bench import benchmark

    @benchmark("tuples.extract", series=(5, 10, 20, 40), quick=(5, 10),
               param="courses", group="tuples")
    def extract(courses):
        spec = university_spec()
        doc = synthetic_university_document(courses, 5, seed=1)
        return lambda: tuples_of(doc, spec.dtd)

The runner (:mod:`repro.bench.runner`) calls the factory once per
series point and measures the returned body: best-of-N wall time, the
deterministic operation-counter snapshot from :mod:`repro.obs`, and
``tracemalloc`` peak memory.

Scaling benchmarks that reproduce one of the paper's complexity
theorems additionally carry a :class:`Claim`: the counter series to
fit, the fit family (log-log slope for polynomial bounds, log-linear
base for exponential ones), and the threshold the fit is asserted
against.  The runner records the fit and its PASS/FAIL verdict in the
report (:mod:`repro.bench.slopes` does the fitting).

The default suite lives in :mod:`repro.bench.suites`;
``python -m repro.bench run --only <group>.`` runs one group of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.errors import ReproError

#: A workload factory: setup in the call, measurement in the returned
#: zero-argument body.
Factory = Callable[..., Callable[[], object]]


@dataclass(frozen=True)
class Claim:
    """A complexity bound from the paper, asserted against a fitted
    growth curve of a deterministic operation counter.

    ``kind`` selects the fit family: ``"polynomial"`` fits a log-log
    slope (the degree) and passes when it stays at or below
    ``max_slope``; ``"exponential"`` fits the per-step growth base of
    ``y = c * b^x`` and passes when it reaches at least ``min_base``
    (a hardness theorem is reproduced by exhibiting the blow-up, not
    by avoiding it).
    """

    statement: str               # e.g. "Theorem 3"
    bound: str                   # prose: "polynomial (quadratic/query)"
    counter: str                 # the gating operation counter
    kind: str = "polynomial"     # "polynomial" | "exponential"
    max_slope: float | None = None
    min_base: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("polynomial", "exponential"):
            raise ValueError(f"unknown claim kind {self.kind!r}")
        if self.kind == "polynomial" and self.max_slope is None:
            raise ValueError("polynomial claims need max_slope")
        if self.kind == "exponential" and self.min_base is None:
            raise ValueError("exponential claims need min_base")


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark: a named workload over a series."""

    name: str
    factory: Factory
    series: tuple
    quick: tuple
    param: str = "n"
    group: str = ""
    repeat: int = 3
    claim: Claim | None = None
    #: Maps a series value to the x-coordinate used for claim fitting
    #: (e.g. Theorem 4 grows ``|D|`` as ``padding + 2``).
    x: Callable[[object], float] = field(default=float)

    def points(self, quick: bool) -> tuple:
        return self.quick if quick else self.series


_registry: dict[str, Benchmark] = {}


def benchmark(name: str, *, series: Iterable | None = None,
              quick: Iterable | None = None, param: str = "n",
              group: str | None = None, repeat: int = 3,
              claim: Claim | None = None,
              x: Callable[[object], float] = float,
              ) -> Callable[[Factory], Factory]:
    """Register a workload factory under ``name`` (see module docs).

    ``series`` is the full parameter sweep (``None`` for a single
    unparameterized point), ``quick`` the CI subset (defaults to the
    first series point), ``group`` the report section (defaults to the
    dotted prefix of ``name``).
    """
    full = tuple(series) if series is not None else (None,)
    fast = tuple(quick) if quick is not None else full[:1]
    if not set(fast) <= set(full):
        raise ValueError(
            f"benchmark {name!r}: quick points {fast!r} must be a "
            f"subset of the series {full!r}")
    if repeat < 1:
        raise ValueError(f"benchmark {name!r}: repeat must be >= 1")

    def register(factory: Factory) -> Factory:
        if name in _registry:
            raise ValueError(f"benchmark {name!r} registered twice")
        _registry[name] = Benchmark(
            name=name, factory=factory, series=full, quick=fast,
            param=param, group=group or name.split(".", 1)[0],
            repeat=repeat, claim=claim, x=x)
        return factory

    return register


def all_benchmarks() -> list[Benchmark]:
    """Every registered benchmark, name-sorted (a stable run order)."""
    return [_registry[name] for name in sorted(_registry)]


def get(name: str) -> Benchmark:
    try:
        return _registry[name]
    except KeyError:
        raise ReproError(f"no benchmark named {name!r}; known: "
                         f"{', '.join(sorted(_registry)) or '(none)'}")


def select(patterns: Iterable[str] | None) -> list[Benchmark]:
    """Benchmarks whose name contains any of ``patterns`` (all when
    ``patterns`` is falsy)."""
    registered = all_benchmarks()
    if not patterns:
        return registered
    chosen = [b for b in registered
              if any(pattern in b.name for pattern in patterns)]
    if not chosen:
        raise ReproError(
            f"no benchmark matches {', '.join(patterns)!s}; known: "
            f"{', '.join(sorted(_registry))}")
    return chosen


def clear() -> None:
    """Empty the registry (test isolation only)."""
    _registry.clear()


def load_default_suites() -> None:
    """Import :mod:`repro.bench.suites`, populating the registry with
    the standard suite (idempotent: registration happens at import)."""
    from repro.bench import suites
    suites.load_all()
