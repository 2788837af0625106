"""Deterministic fault injection: seeded plans firing typed faults.

Chaos-style testing (FoundationDB's deterministic simulation is the
canonical example) only works when a failure can be *replayed*: the
same seed and the same plan must produce the same fault at the same
point of the same run.  This module provides that substrate for the
whole pipeline:

* **Sites** — named instrumentation points (``fd.chase.step``,
  ``xml.parser.input``, ...) registered at import time by the modules
  that host them.  :func:`registered_sites` lists what the current
  process has seen; :func:`all_sites` imports every instrumented module
  first, so test sweeps cover the full registry.
* **Faults** — typed, and all of them :class:`~repro.errors.ReproError`
  subclasses (or inputs that lead to one), so the exception-safety
  contract is testable end to end:

  - ``"exception"`` — raise :class:`~repro.errors.InjectedFault`;
  - ``"allocation"`` — raise
    :class:`~repro.errors.InjectedAllocationFailure` (also a
    ``MemoryError``: simulated allocation failure);
  - ``"exhaustion"`` — raise :class:`~repro.errors.ResourceExhausted`
    with ``limit="injected"`` (the guard's degradation paths fire
    without waiting for a real deadline);
  - ``"truncate"`` — only at *input* sites: deterministically truncate
    the text being parsed (the parser then either fails with a
    :class:`~repro.errors.ParseError` or parses a valid prefix — both
    acceptable outcomes under the contract).

* **Plans** — a :class:`FaultPlan` is a list of :class:`FaultArm` s,
  each matching a site (``fnmatch`` patterns allowed) and firing on a
  specific hit count.  Plans install ambiently (mirroring
  :mod:`repro.guard.budget`) so engine signatures stay unchanged::

      from repro import faults

      with faults.inject("fd.chase.step", kind="exception", after=3):
          engine.implies(fd)        # raises InjectedFault on hit 4

Hot-path contract (same as obs and guard): while no plan is installed,
an instrumented site performs one module-attribute read
(``faults.active``) and nothing else — the shape of the guard's
engine-entry check, which the ``guard`` gate of ``python -m
repro.bench.seams`` holds under 1%.

When :mod:`repro.obs` is enabled every fired fault increments
``faults.injected`` and ``faults.injected.<kind>``.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Iterator

from repro.errors import (
    FaultError,
    InjectedAllocationFailure,
    InjectedFault,
    ReproError,
    ResourceExhausted,
)
from repro.obs import metrics as _obs

#: Fast-path flag: ``True`` iff at least one fault plan is installed.
#: Instrumented sites read this (one module-attribute load) before
#: touching anything else, so fault-free runs pay essentially nothing.
active: bool = False

_stack: list["FaultPlan"] = []

#: Fault kinds that raise (valid at every site).
RAISE_KINDS = ("exception", "allocation", "exhaustion")

#: Fault kinds valid only at input sites (:func:`mangle`).
INPUT_KINDS = RAISE_KINDS + ("truncate",)


@dataclass(frozen=True)
class FaultSite:
    """One named instrumentation point."""

    name: str
    subsystem: str
    description: str
    kinds: tuple[str, ...] = RAISE_KINDS


_REGISTRY: dict[str, FaultSite] = {}

#: The modules hosting fault sites; :func:`all_sites` imports them so a
#: sweep sees the full registry even in a fresh process.
_INSTRUMENTED_MODULES = (
    "repro.dtd.parser",
    "repro.xmltree.parser",
    "repro.regex.matching",
    "repro.fd.chase",
    "repro.fd.closure",
    "repro.tuples.extract",
    "repro.normalize.algorithm",
    "repro.runtime.journal",
    "repro.serve.admission",
    "repro.serve.cache",
    "repro.serve.handlers",
)


def register_site(name: str, subsystem: str, description: str, *,
                  kinds: tuple[str, ...] = RAISE_KINDS) -> str:
    """Register an instrumentation point (idempotent); returns ``name``.

    Called at import time by instrumented modules, next to where the
    site's :func:`fire` / :func:`mangle` call lives.
    """
    existing = _REGISTRY.get(name)
    if existing is None:
        _REGISTRY[name] = FaultSite(name=name, subsystem=subsystem,
                                    description=description, kinds=kinds)
    return name


def registered_sites() -> tuple[FaultSite, ...]:
    """Every site registered so far, sorted by name."""
    return tuple(sorted(_REGISTRY.values(), key=lambda s: s.name))


def all_sites() -> tuple[FaultSite, ...]:
    """Every site of the full pipeline (imports the instrumented
    modules first so the registry is complete)."""
    import importlib

    for module in _INSTRUMENTED_MODULES:
        importlib.import_module(module)
    return registered_sites()


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass
class FaultArm:
    """One planned fault: fire ``kind`` at the ``after``-th hit (0-based)
    of any site matching ``site`` (an ``fnmatch`` pattern)."""

    site: str
    kind: str = "exception"
    after: int = 0
    #: Set once the arm has fired; a fired arm never fires again.
    fired: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in INPUT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(INPUT_KINDS)}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")


class FaultPlan:
    """A deterministic schedule of faults.

    ``seed`` parameterizes data-dependent choices (currently the
    truncation offset); everything else is a pure function of the hit
    sequence, so a plan replays identically on identical executions.
    ``fired`` logs every fault the plan actually delivered as
    ``(site, kind)`` pairs — test harnesses assert on it to distinguish
    "survived the fault" from "never reached the site".
    """

    def __init__(self, arms: Iterable[FaultArm], *, seed: int = 0) -> None:
        self.arms = list(arms)
        self.seed = seed
        self.hits: dict[str, int] = {}
        self.fired: list[tuple[str, str]] = []

    def _match(self, site: str) -> FaultArm | None:
        """Record a hit of ``site``; return the arm due to fire, if any."""
        count = self.hits.get(site, 0)
        self.hits[site] = count + 1
        for arm in self.arms:
            if arm.fired:
                continue
            if fnmatchcase(site, arm.site) and count >= arm.after:
                arm.fired = True
                return arm
        return None

    def _record(self, site: str, kind: str) -> None:
        self.fired.append((site, kind))
        if _obs.enabled:
            _obs.inc("faults.injected")
            _obs.inc(f"faults.injected.{kind}")

    def _raise(self, site: str, kind: str) -> None:
        self._record(site, kind)
        if kind == "allocation":
            raise InjectedAllocationFailure(site, kind)
        if kind == "exhaustion":
            raise ResourceExhausted(
                "injected", partial={"site": site, "engine": "faults"})
        raise InjectedFault(site, kind)


# ---------------------------------------------------------------------------
# Instrumentation entry points
# ---------------------------------------------------------------------------

def current() -> FaultPlan | None:
    """The innermost installed plan, or ``None``."""
    return _stack[-1] if _stack else None


def fire(site: str) -> None:
    """Hit a raise-only site: raise the planned fault, if one is due.

    Call sites guard this behind ``if faults.active:`` so disabled runs
    pay one attribute read only.  A planned ``"truncate"`` arm matching
    a raise-only site degrades to ``"exception"`` (truncation has no
    meaning without an input string).
    """
    plan = current()
    if plan is None:
        return
    arm = plan._match(site)
    if arm is None:
        return
    kind = "exception" if arm.kind == "truncate" else arm.kind
    plan._raise(site, kind)


def mangle(site: str, text: str) -> str:
    """Hit an input site: truncate ``text`` or raise, per the plan.

    The truncation offset is drawn from ``random.Random`` seeded with
    ``(plan.seed, site, hit count)`` — deterministic per plan and per
    occurrence.
    """
    plan = current()
    if plan is None:
        return text
    count = plan.hits.get(site, 0)
    arm = plan._match(site)
    if arm is None:
        return text
    if arm.kind != "truncate":
        plan._raise(site, arm.kind)
    plan._record(site, arm.kind)
    rng = random.Random(f"{plan.seed}:{site}:{count}")
    return text[:rng.randrange(0, max(1, len(text)))]


# ---------------------------------------------------------------------------
# Ambient installation
# ---------------------------------------------------------------------------

@contextmanager
def use(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of the ``with`` body.

    Plans nest; the innermost wins at instrumentation points.  The
    stack is swept on exit even if the body escaped abnormally.
    """
    global active
    _stack.append(plan)
    active = True
    try:
        yield plan
    finally:
        if plan in _stack:
            _stack.remove(plan)
        active = bool(_stack)


@contextmanager
def inject(site: str, *, kind: str = "exception", after: int = 0,
           seed: int = 0) -> Iterator[FaultPlan]:
    """``use(FaultPlan([FaultArm(...)]))`` in one call."""
    with use(FaultPlan([FaultArm(site=site, kind=kind, after=after)],
                       seed=seed)) as plan:
        yield plan


def teardown() -> int:
    """Forcibly uninstall every plan; returns how many were removed.

    Exists for run isolation (the benchmark runner calls it between
    runs so an injected-fault experiment can never perturb a later
    baseline measurement) and for test harnesses recovering from an
    abnormal exit.
    """
    global active
    removed = len(_stack)
    _stack.clear()
    active = False
    return removed


def plan_from_spec(spec: str, *, seed: int = 0) -> FaultPlan:
    """Build a plan from a compact text spec (the ``REPRO_FAULTS``
    environment variable): comma-separated arms, each
    ``site[:kind[:after]]``.

    >>> plan = plan_from_spec("fd.chase.step:exception:3,xml.parser.input:truncate")
    >>> [(a.site, a.kind, a.after) for a in plan.arms]
    [('fd.chase.step', 'exception', 3), ('xml.parser.input', 'truncate', 0)]
    """
    arms: list[FaultArm] = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) > 3:
            raise ReproError(
                f"bad fault spec {chunk!r}: expected site[:kind[:after]]")
        site = parts[0]
        kind = parts[1] if len(parts) > 1 and parts[1] else "exception"
        try:
            after = int(parts[2]) if len(parts) > 2 else 0
        except ValueError:
            raise ReproError(
                f"bad fault spec {chunk!r}: after must be an integer")
        try:
            arms.append(FaultArm(site=site, kind=kind, after=after))
        except ValueError as error:
            raise ReproError(f"bad fault spec {chunk!r}: {error}")
    if not arms:
        raise ReproError(f"empty fault spec {spec!r}")
    return FaultPlan(arms, seed=seed)
