"""The cooperative resource governor: budgets, deadlines, degradation.

Theorem 5 makes general XML-FD implication coNP-complete, and every
exact engine in this package (the chase, the closure's case splits, the
brute-force oracle, maximal-tuple enumeration) inherits that worst
case.  A :class:`Budget` turns "may run forever" into "runs until a
declared limit, then raises" — the prerequisite for serving untrusted
inputs: no request may ever run unbounded.

A budget carries four independent limits, all optional:

* ``deadline`` — wall-clock seconds from construction;
* ``max_steps`` — generic engine work units (chase steps, closure
  fixpoint passes, brute-force trees, multiset-match search states);
* ``max_branches`` — disjunction/case-split branches (the ``N_D``
  explosion of Theorems 4/5);
* ``max_nodes`` — tableau/tuple/variant nodes materialized (memory
  proxy).

Budgets are **cooperative**: engines call :meth:`Budget.tick_steps` /
:meth:`~Budget.tick_branches` / :meth:`~Budget.tick_nodes` at the same
sites where :mod:`repro.obs` counters are emitted, and every tick also
checks the deadline, so a live engine notices expiry within one unit of
work.  A tripped limit raises
:class:`~repro.errors.ResourceExhausted` carrying which limit tripped,
the amount spent, and a ``partial`` dict that engines annotate with
progress made so far; the implication facade
(:meth:`repro.fd.implication.ImplicationEngine.decide`) converts the
exception into an honest ``UNKNOWN`` verdict.

Budgets are installed ambiently with :func:`use` (or the :func:`limits`
convenience) so the existing engine signatures stay unchanged::

    from repro import guard

    with guard.limits(deadline=1.5, max_steps=100_000):
        verdict = engine.decide(fd)       # YES / NO / UNKNOWN

Hot-path contract (mirrors :mod:`repro.obs.metrics`): while no budget
is installed, an instrumented site performs one module-attribute read
(``budget.active``) — or, inside engine loops, one ``is None`` test on
a captured local — and nothing else.  The ``guard`` gate of
``python -m repro.bench.seams`` verifies the disabled overhead stays
under 1%.

Each thread has its own budget stack: a budget governs the thread that
installed it.  Every front end installs the :class:`Limits` of one
unit of work (a one-shot command, a batch task, a serve request, a
measured benchmark run) on the thread that runs it, so one
pathological unit degrades to UNKNOWN/408 without ticking against, or
being ticked by, its neighbours.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import AbstractContextManager, contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, Mapping

from repro.errors import ResourceExhausted
from repro.obs import metrics as _obs

#: Fast-path flag: ``True`` iff at least one budget is installed (in
#: any thread).  Instrumentation sites read this (one module-attribute
#: load) before touching anything else, so unguarded runs pay
#: essentially nothing.
active: bool = False

_tls = threading.local()

#: Count of installed budgets across all threads; guards the
#: :data:`active` flag so concurrent installs/uninstalls in different
#: threads cannot strand it.
_installed = 0
_installed_lock = threading.Lock()


def _note_install() -> None:
    global _installed, active
    with _installed_lock:
        _installed += 1
        active = True


def _note_uninstall(count: int = 1) -> None:
    global _installed, active
    with _installed_lock:
        _installed = max(0, _installed - count)
        active = _installed > 0


class Budget:
    """A mutable bundle of resource limits and spent counters.

    All limits are optional; ``None`` means unlimited.  The deadline
    clock starts at construction (inject ``clock`` to test expiry
    deterministically).
    """

    __slots__ = ("deadline", "max_steps", "max_branches", "max_nodes",
                 "steps", "branches", "nodes", "tripped",
                 "_clock", "_started_at", "_expires_at")

    def __init__(self, *, deadline: float | None = None,
                 max_steps: int | None = None,
                 max_branches: int | None = None,
                 max_nodes: int | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        # The one rule of :class:`Limits`, whose timeout is the deadline.
        Limits(deadline, max_steps, max_branches, max_nodes)
        self.deadline = deadline
        self.max_steps = max_steps
        self.max_branches = max_branches
        self.max_nodes = max_nodes
        self.steps = 0
        self.branches = 0
        self.nodes = 0
        #: The first limit that tripped ("deadline" / "steps" /
        #: "branches" / "nodes"), or ``None`` while within budget.
        self.tripped: str | None = None
        self._clock = clock
        self._started_at = clock()
        self._expires_at = (self._started_at + deadline
                            if deadline is not None else None)

    # -- spending ----------------------------------------------------------

    def tick_steps(self, n: int = 1) -> None:
        """Spend ``n`` work units; raise if a limit trips."""
        self.steps += n
        if _obs.enabled:
            _obs.inc("guard.checks")
        if self.max_steps is not None and self.steps > self.max_steps:
            self._trip("steps", self.steps, self.max_steps)
        self._check_deadline()

    def tick_branches(self, n: int = 1) -> None:
        """Spend ``n`` disjunction/case-split branches."""
        self.branches += n
        if _obs.enabled:
            _obs.inc("guard.checks")
        if self.max_branches is not None \
                and self.branches > self.max_branches:
            self._trip("branches", self.branches, self.max_branches)
        self._check_deadline()

    def tick_nodes(self, n: int = 1) -> None:
        """Spend ``n`` materialized nodes (tableau, tuple, variant)."""
        self.nodes += n
        if _obs.enabled:
            _obs.inc("guard.checks")
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            self._trip("nodes", self.nodes, self.max_nodes)
        self._check_deadline()

    def check(self) -> None:
        """A deadline-only checkpoint (no counter spent)."""
        if _obs.enabled:
            _obs.inc("guard.checks")
        self._check_deadline()

    # -- inspection --------------------------------------------------------

    def elapsed(self) -> float:
        """Wall-clock seconds since the budget was created."""
        return self._clock() - self._started_at

    def remaining(self) -> dict[str, float | int | None]:
        """Per-limit headroom (``None`` for unlimited dimensions)."""
        return {
            "deadline": (None if self._expires_at is None
                         else max(0.0, self._expires_at - self._clock())),
            "steps": (None if self.max_steps is None
                      else max(0, self.max_steps - self.steps)),
            "branches": (None if self.max_branches is None
                         else max(0, self.max_branches - self.branches)),
            "nodes": (None if self.max_nodes is None
                      else max(0, self.max_nodes - self.nodes)),
        }

    def spent(self) -> dict[str, float | int]:
        """What the budget has consumed so far (for error payloads)."""
        return {"elapsed": self.elapsed(), "steps": self.steps,
                "branches": self.branches, "nodes": self.nodes}

    # -- internals ---------------------------------------------------------

    def _check_deadline(self) -> None:
        if self._expires_at is not None \
                and self._clock() >= self._expires_at:
            self._trip("deadline", self.elapsed(), self.deadline)

    def _trip(self, limit: str, spent, allowed) -> None:
        if self.tripped is None:
            self.tripped = limit
        if _obs.enabled:
            _obs.inc(f"guard.trips.{limit}")
        raise ResourceExhausted(limit, spent=spent, allowed=allowed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limits = ", ".join(
            f"{name}={value}" for name, value in
            (("deadline", self.deadline), ("max_steps", self.max_steps),
             ("max_branches", self.max_branches),
             ("max_nodes", self.max_nodes))
            if value is not None) or "unlimited"
        return (f"Budget({limits}; spent steps={self.steps} "
                f"branches={self.branches} nodes={self.nodes})")


# ---------------------------------------------------------------------------
# Ambient installation
# ---------------------------------------------------------------------------

def current() -> Budget | None:
    """The calling thread's innermost installed budget, or ``None``.

    Engine call sites capture this once per decision (guarded by the
    :data:`active` flag) and pass the local down their loops.
    """
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


@contextmanager
def use(budget: Budget) -> Iterator[Budget]:
    """Install ``budget`` on the calling thread for the ``with`` body.

    Budgets nest (the innermost wins at instrumentation points).  On
    exit the previous budget is restored and, when obs is enabled, the
    remaining headroom of every set limit is recorded into
    ``guard.remaining.*`` histograms so completion margins are
    observable.
    """
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    stack.append(budget)
    _note_install()
    try:
        yield budget
    finally:
        # Remove *this* budget, tolerating a :func:`teardown` that
        # already swept the stack while the context was suspended.
        if budget in stack:
            stack.remove(budget)
            _note_uninstall()
        if _obs.enabled:
            for name, headroom in budget.remaining().items():
                if headroom is not None:
                    _obs.observe(f"guard.remaining.{name}", headroom)
            if budget.tripped is None:
                _obs.inc("guard.completed")


def teardown() -> int:
    """Forcibly uninstall every budget of the calling thread; returns
    how many were removed.

    Normal code never needs this — :func:`use` restores the stack on
    exit.  It exists for run isolation (the benchmark runner clears
    leftover budgets between runs so one workload's limits can never
    govern the next) and for test harnesses recovering from a body
    that escaped a ``with use(...)`` block abnormally.
    """
    stack = getattr(_tls, "stack", None) or []
    removed = len(stack)
    stack.clear()
    if removed:
        _note_uninstall(removed)
    return removed


#: The shared do-nothing context :func:`limits` returns when no limit
#: is set, so an unlimited call allocates nothing.
_NO_LIMITS = nullcontext()


def limits(*, deadline: float | None = None, max_steps: int | None = None,
           max_branches: int | None = None, max_nodes: int | None = None,
           clock: Callable[[], float] = time.monotonic,
           ) -> AbstractContextManager[Budget | None]:
    """``use(Budget(...))`` in one call; a shared no-op context
    (entering as ``None``) when every limit is ``None``, so callers can
    thread optional limits through unconditionally."""
    if (deadline is None and max_steps is None and max_branches is None
            and max_nodes is None):
        return _NO_LIMITS
    return use(Budget(deadline=deadline, max_steps=max_steps,
                      max_branches=max_branches, max_nodes=max_nodes,
                      clock=clock))


@dataclass(frozen=True)
class Limits:
    """One unit of work's limit set; ``None`` leaves a limit unlimited.

    The rule, stated once: ``timeout`` is a finite number of seconds
    > 0, and the counted limits are integers >= 1; a bool is neither.
    A bad value raises ``ValueError`` (:meth:`parse` raises the
    caller's own error instead).
    """

    timeout: float | None = None
    max_steps: int | None = None
    max_branches: int | None = None
    max_nodes: int | None = None

    #: The four keys, as flags' dests, manifests and budgets spell them.
    KEYS: ClassVar[tuple[str, ...]] = ("timeout", "max_steps",
                                       "max_branches", "max_nodes")

    def __post_init__(self) -> None:
        for key, value in zip(self.KEYS, self._values()):
            if value is None:
                continue
            if key == "timeout":
                rule = "a finite number > 0"
                ok = isinstance(value, (int, float)) \
                    and 0 < value <= sys.float_info.max  # NaN fails
            else:
                rule = "an integer >= 1"
                ok = isinstance(value, int) and value >= 1
            if isinstance(value, bool) or not ok:
                raise ValueError(f"{key} must be {rule}, got {value!r}")

    @classmethod
    def parse(cls, raw: Mapping, *, where: str = "",
              error: Callable[[str], BaseException] = ValueError,
              ) -> "Limits":
        """The limits of ``raw``, reading only the four keys (a missing
        or ``None`` value is unset).  A bad value raises
        ``error(where + message)``, the message naming the key."""
        try:
            return cls(*[raw.get(key) for key in cls.KEYS])
        except ValueError as problem:
            raise error(f"{where}{problem}") from None

    def __bool__(self) -> bool:
        """Whether any limit is set."""
        return self._values() != (None, None, None, None)

    def fill(self, defaults: "Limits") -> "Limits":
        """These limits, each unset one taken from ``defaults``."""
        return Limits(*[theirs if mine is None else mine for mine, theirs
                        in zip(self._values(), defaults._values())])

    def cap(self, ceiling: "Limits") -> "Limits":
        """These limits, each bounded by ``ceiling``'s: the tighter of
        the two, or the one that is set."""
        return Limits(*[
            theirs if mine is None else mine if theirs is None
            else min(mine, theirs)
            for mine, theirs in zip(self._values(), ceiling._values())])

    def install(self) -> AbstractContextManager[Budget | None]:
        """Install these limits as the calling thread's budget (a
        shared no-op context when none is set); ``timeout`` becomes
        the budget's ``deadline`` here and nowhere else."""
        return limits(deadline=self.timeout, max_steps=self.max_steps,
                      max_branches=self.max_branches,
                      max_nodes=self.max_nodes)

    def to_json(self) -> dict:
        return dict(zip(self.KEYS, self._values()))

    def _values(self) -> tuple:
        # No tuple(generator) here or in parse/fill/cap (free-list waste).
        return (self.timeout, self.max_steps, self.max_branches,
                self.max_nodes)
