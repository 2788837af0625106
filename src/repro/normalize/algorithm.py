"""The XNF decomposition algorithm — Figure 4 of the paper.

    (1) If (D, Σ) is in XNF, stop.
    (2) If some anomalous FD ``S -> p.@l`` has an element path
        ``q ∈ S`` with ``q -> S`` implied, move the attribute:
        ``D := D[p.@l := q.@m]``.
    (3) Otherwise pick a (D, Σ)-minimal anomalous FD and create a new
        element type for it.

Each step strictly shrinks the anomalous-path measure of Proposition 6
— the depth multiset of ``AP(D, Σ)`` under the lexicographic multiset
ordering (:func:`repro.xnf.anomalous.progress_measure`), which is
well-founded and hence yields termination (Theorem 2); the
implementation asserts this progress measure at runtime when
``check_progress`` is on.

FDs are preprocessed to the Section 6 form (at most one element path on
the left): an FD without one gets the root path added — semantically
neutral, since every pair of tuples of one tree shares the root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import (
    NormalizationError,
    ResourceExhausted,
    UnsupportedFeatureError,
)
from repro.dtd.model import DTD
from repro.dtd.paths import Path
from repro.faults import plan as _faults
from repro.fd.implication import EngineName, ImplicationEngine
from repro.fd.model import FD
from repro.guard import budget as _guard
from repro.normalize.transforms import (
    NewElementNames,
    TransformStep,
    create_element_type,
    move_attribute,
)
from repro.obs import metrics as _obs
from repro.obs.trace import span as _span
from repro.xnf.anomalous import (
    anomalous_paths,
    anomalous_sigma_fds,
    minimal_anomalous_fd,
    progress_measure,
)
from repro.xmltree.model import XMLTree

#: Generous cap: Proposition 6 guarantees far fewer steps, one per
#: anomalous path at most.
DEFAULT_MAX_STEPS = 100

_SITE_ROUND = _faults.register_site(
    "normalize.round", "normalize",
    "the top of each Figure 4 fixpoint round")


@dataclass
class NormalizationResult:
    """The outcome of the Figure 4 algorithm."""

    dtd: DTD
    sigma: list[FD]
    steps: list[TransformStep] = field(default_factory=list)

    def migrate(self, tree: XMLTree) -> XMLTree:
        """Carry a document conforming to the *original* DTD through
        every applied transformation."""
        for step in self.steps:
            tree = step.migrate(tree)
        return tree

    @property
    def step_descriptions(self) -> list[str]:
        return [step.description for step in self.steps]


def normalize(dtd: DTD, sigma: Iterable[FD], *,
              engine: EngineName = "auto",
              naming: Callable[[int, FD], NewElementNames] | None = None,
              max_steps: int = DEFAULT_MAX_STEPS,
              check_progress: bool = True,
              oracle: ImplicationEngine | None = None,
              ) -> NormalizationResult:
    """Run the XNF decomposition algorithm to completion.

    ``naming`` may supply element names for each *create* step (called
    with the step index and the minimal anomalous FD); by default names
    derive from the involved attributes (``info``, attribute stems).

    Each ``(D, Σ)`` the run visits gets one :class:`ImplicationEngine`:
    the engine that checks a step's progress decides the next round.
    ``oracle``, an engine the caller already holds on ``(dtd, sigma)``
    with the same ``engine``, decides round 1.
    """
    current_dtd = dtd
    current_sigma = _preprocess(dtd, [fd.validate(dtd) for fd in sigma])
    steps: list[TransformStep] = []
    # AP(D, Σ) of the current pair, once computed: a progress check's
    # ``after`` is the next round's ``before``.
    before: frozenset[Path] | None = None

    budget = _guard.current() if _guard.active else None
    try:
        with _obs.timer("normalize.total"), _span("normalize"):
            if oracle is None:
                oracle = ImplicationEngine(current_dtd, current_sigma,
                                           engine=engine)
            for _round in range(max_steps):
                if _faults.active:
                    _faults.fire(_SITE_ROUND)
                if budget is not None:
                    # One step per round on top of whatever the round's
                    # implication queries spend; keeps a degenerate
                    # loop of free rounds from evading the deadline.
                    budget.tick_steps()
                with _span("normalize.round",
                           round=_round) as round_span:
                    queries = oracle.query_count()
                    anomalous = anomalous_sigma_fds(oracle)
                    round_span.set("anomalous_before", len(anomalous))
                    if not anomalous:
                        round_span.set("rule", "converged")
                        return NormalizationResult(
                            current_dtd, current_sigma, steps)
                    if check_progress and before is None:
                        before = anomalous_paths(oracle)

                    step = _apply_one(current_dtd, current_sigma, oracle,
                                      anomalous, naming, len(steps),
                                      engine)
                    steps.append(step)
                    current_dtd = step.dtd
                    current_sigma = _preprocess(current_dtd, step.sigma)
                    if _obs.enabled:
                        _obs.inc("normalize.rounds")
                        _obs.inc(f"normalize.steps.{step.kind}")
                        round_span.set("rule", step.kind)
                        round_span.set("implication_queries",
                                       oracle.query_count() - queries)

                    oracle = _next_engine(step, current_sigma, engine)
                    if check_progress:
                        after = anomalous_paths(oracle)
                        round_span.set("anomalous_paths_after",
                                       len(after))
                        assert before is not None
                        if not (progress_measure(after)
                                < progress_measure(before)):
                            raise NormalizationError(
                                "Proposition 6 progress violated: "
                                "anomalous paths went from "
                                f"{sorted(map(str, before))} to "
                                f"{sorted(map(str, after))} after step "
                                f"{step.description!r}")
                        before = after
    except ResourceExhausted as error:
        # Partial progress: the transforms applied before the trip are
        # sound individually, so surface them for diagnostics.
        error.partial.setdefault("engine", "normalize")
        error.partial.setdefault("rounds_completed", len(steps))
        error.partial.setdefault(
            "steps_applied", [step.description for step in steps])
        raise
    raise NormalizationError(
        f"normalization did not converge within {max_steps} steps")


def _next_engine(step: TransformStep, sigma: list[FD],
                 engine: EngineName) -> ImplicationEngine:
    """The engine on the step's ``(D, Σ)``.  It adopts the Σ=∅ engine
    that filtered the step's Σ when that one decides with the same
    engine, and the step lets go of it: the Σ=∅ engine lives as long
    as the engines of this run, not as long as the result."""
    trivial, step.trivial = step.trivial, None
    if trivial is not None and trivial.engine != engine:
        trivial = None
    return ImplicationEngine(step.dtd, sigma, engine=engine,
                             trivial=trivial)


def _q_is_safe(dtd: DTD, value: Path, q: Path) -> bool:
    """Whether the target's presence is forced whenever the value is
    present (so migration never orphans a value).

    The paper's losslessness (Prop. 8) lets the witness document invent
    carrier nodes — its Q2 query "eliminates extra node ids" — but a
    value-preserving migrator needs the target to exist already; the
    pair-closure's NN predicate decides exactly that.
    """
    from repro.fd.closure import pair_closure
    _eq, nn = pair_closure(dtd, [], frozenset({value}), extra={q})
    return q in nn


def _apply_one(dtd: DTD, sigma: list[FD], oracle: ImplicationEngine,
               anomalous: Sequence[FD],
               naming: Callable[[int, FD], NewElementNames] | None,
               step_index: int, engine: EngineName) -> TransformStep:
    # Step (2): moving attributes, preferred when applicable.  Safe
    # targets (the value's presence forces the target's) come first;
    # an unsafe move stays available as a paper-faithful fallback whose
    # migration refuses documents with orphaned values.
    unsafe_move: tuple[FD, Path] | None = None
    for fd in anomalous:
        for q in sorted(fd.lhs_element_paths(), key=str):
            if oracle.implies(FD(frozenset({q}), fd.lhs)):
                if _q_is_safe(dtd, fd.single_rhs, q):
                    return move_attribute(dtd, sigma, fd.single_rhs, q)
                if unsafe_move is None:
                    unsafe_move = (fd, q)
    # Step (3): creating element types on a minimal anomalous FD.
    fd = minimal_anomalous_fd(oracle, anomalous[0])
    if not fd.lhs_element_paths():
        fd = FD(fd.lhs | {Path.root(dtd.root)}, fd.rhs)
    # The minimal FD may itself qualify for step (2) (e.g. its LHS
    # collapsed to a single element path).
    if not [p for p in fd.lhs if not p.is_element]:
        q = fd.lhs_element_paths()[0]
        return move_attribute(dtd, sigma, fd.single_rhs, q)
    names = naming(step_index, fd) if naming is not None else None
    create_q = fd.lhs_element_paths()[0]
    if not _q_is_safe(dtd, fd.single_rhs, create_q) \
            and unsafe_move is not None:
        # Neither target is safe; the move keeps the schema smaller.
        return move_attribute(dtd, sigma, unsafe_move[0].single_rhs,
                              unsafe_move[1])
    return create_element_type(dtd, sigma, fd, names=names, engine=oracle)


def _preprocess(dtd: DTD, sigma: Iterable[FD]) -> list[FD]:
    """Bring Σ to the Section 6 form: at most one element path per LHS
    (an FD with none is left as-is — the root is added lazily when a
    transformation needs it), no ``S`` text paths on the LHS."""
    result: list[FD] = []
    for fd in sigma:
        element_paths = fd.lhs_element_paths()
        if len(element_paths) > 1:
            raise UnsupportedFeatureError(
                f"FD {fd} has {len(element_paths)} element paths on the "
                "left-hand side; Section 6 assumes at most one (split "
                "the FD by introducing a key attribute, as the paper "
                "suggests)")
        result.append(fd)
    return result
