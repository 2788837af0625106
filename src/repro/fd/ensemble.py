"""The differential engine ensemble: N-version implication checking.

The three implication engines (closure, chase, brute force) were built
independently and cross-validated only in the test suite
(``tests/property/test_implication_agree.py``).  This module moves
that cross-check into production paths, in the spirit of differential
testing (McKeeman; Csmith): run the engines side by side on **every
decision**, compare verdicts, and never let a contradiction pass
silently.

Authority model — what each engine's answer is worth:

* **closure** — sound everywhere (a ``True`` is final) and complete
  for simple DTDs (there a ``False`` is final too).  On non-simple
  DTDs a ``False`` is merely "not derivable", so closure-``False`` /
  chase-``True`` is the engine's documented incompleteness, *not* a
  disagreement (counted as ``ensemble.closure.incomplete``).
* **chase** — exact on non-recursive DTDs: authoritative both ways.
* **brute** — bounded-exhaustive, run only on small inputs: a found
  countermodel (``False``) is authoritative, an exhausted search
  (``True``) is advisory only.

A **disagreement** is an authoritative ``YES`` and an authoritative
``NO`` for the same query.  It is escalated as a first-class
:class:`EnsembleDisagreement` record on the ambient :class:`Session`;
in ``strict`` mode it additionally raises
:class:`~repro.errors.EnsembleDisagreementError` (the batch runtime
dead-letters the task).  In ``check`` mode the decision resolves with
the primary exact engine's verdict — not silently: the record, the
``ensemble.disagreements`` counter, and the batch summary all carry it.

**Degradation**: when one engine trips a :mod:`repro.guard` limit the
ensemble falls back to a surviving engine whose answer is sound on its
own (``ensemble.fallback.*`` counters), and only re-raises the
exhaustion when no survivor is authoritative.  The brute member never
fails a decision: any error it hits just marks it "skipped".

Usage::

    from repro.fd import ensemble

    with ensemble.session("check") as sess:
        spec = XMLSpec.parse(dtd_text, fds, engine="ensemble")
        spec.is_in_xnf()              # every query double-checked
    assert sess.disagreements == []

``engine="ensemble"`` is accepted everywhere an engine name goes
(:class:`~repro.spec.XMLSpec`, the XNF test, normalization), so whole
pipelines run under the differential oracle.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import (
    EnsembleDisagreementError,
    ReproError,
    ResourceExhausted,
    UnsupportedFeatureError,
)
from repro.dtd.model import DTD
from repro.fd.brute import brute_implies
from repro.fd.chase import chase_implies
from repro.fd.closure import closure_implies
from repro.fd.model import FD
from repro.obs import metrics as _obs

#: The ensemble modes the CLI exposes.
MODES = ("off", "check", "strict")

#: Inputs at or below these sizes also get the brute-force member.
#: The bounds are deliberately tight: XNF checks and normalization
#: runs issue *many* implication queries, and the brute member pays
#: its enumeration on every one.  ``max_word=2`` suffices for the
#: classic two-tuple FD countermodels.
BRUTE_MAX_PATHS = 6
BRUTE_MAX_SIGMA = 3
BRUTE_MAX_WORD = 2
BRUTE_MAX_TREES = 500


@dataclass(frozen=True)
class EnsembleDisagreement:
    """One observed contradiction between engines, JSON-ready.

    ``verdicts`` maps engine name to ``"YES"`` / ``"NO"`` (or
    ``"skipped"`` for a member that did not run); ``resolved_with``
    names the engine whose verdict the decision returned in ``check``
    mode, or is ``None`` when strict mode raised instead.
    """

    query: str
    verdicts: tuple[tuple[str, str], ...]
    resolved_with: str | None

    def to_json(self) -> dict:
        return {"query": self.query,
                "verdicts": dict(self.verdicts),
                "resolved_with": self.resolved_with}

    def describe(self) -> str:
        votes = ", ".join(f"{engine}={verdict}"
                          for engine, verdict in self.verdicts)
        return f"engines disagree on {self.query!r}: {votes}"


class Session:
    """The ambient collector of one ensemble run's records."""

    def __init__(self, mode: str = "check") -> None:
        if mode not in MODES:
            raise ValueError(
                f"unknown ensemble mode {mode!r}; expected one of "
                f"{list(MODES)}")
        self.mode = mode
        self.disagreements: list[EnsembleDisagreement] = []
        self.fallbacks: list[str] = []

    def drain(self) -> list[EnsembleDisagreement]:
        """Return and clear the collected disagreements."""
        records, self.disagreements = self.disagreements, []
        return records


#: The bottom-of-stack session: ``engine="ensemble"`` outside any
#: explicit :func:`session` block records here in ``check`` mode.
_default_session = Session("check")
_stack: list[Session] = [_default_session]


def current() -> Session:
    """The innermost active session (never ``None``)."""
    return _stack[-1]


@contextmanager
def session(mode: str = "check") -> Iterator[Session]:
    """Install a fresh :class:`Session` for the ``with`` body."""
    sess = Session(mode)
    _stack.append(sess)
    try:
        yield sess
    finally:
        if sess in _stack:
            _stack.remove(sess)


def brute_feasible(dtd: DTD, sigma_size: int) -> bool:
    """Whether the bounded-exhaustive member should join the vote."""
    if dtd.is_recursive:
        return False
    return (len(dtd.paths) <= BRUTE_MAX_PATHS
            and sigma_size <= BRUTE_MAX_SIGMA)


def _verdict(value: bool) -> str:
    return "YES" if value else "NO"


def differential_implies(dtd: DTD, sigma: list[FD], fd: FD, *,
                         simple: bool) -> bool:
    """Decide one single-RHS query with every applicable engine and
    cross-check the verdicts (see the module docstring for the
    authority model).  Called by
    :meth:`repro.fd.implication.ImplicationEngine._decide` under
    ``engine="ensemble"``.
    """
    sess = current()
    if _obs.enabled:
        _obs.inc("ensemble.decisions")

    closure_answer: bool | None = None
    closure_error: ResourceExhausted | None = None
    try:
        closure_answer = closure_implies(dtd, sigma, fd)
    except ResourceExhausted as error:
        closure_error = error

    if dtd.is_recursive and not simple and closure_answer is False:
        # No exact engine can run here, and a closure "NO" would be
        # unsound to serve — same refusal as engine="auto".
        raise UnsupportedFeatureError(
            "exact implication over recursive non-simple DTDs is not "
            "supported; force engine='closure' for a sound "
            "approximation")

    chase_answer: bool | None = None
    chase_error: ResourceExhausted | None = None
    if not dtd.is_recursive:
        try:
            chase_answer = chase_implies(dtd, sigma, fd)
        except ResourceExhausted as error:
            chase_error = error

    # -- degradation: fall back to a surviving authoritative engine ----
    if chase_answer is None and not dtd.is_recursive:
        if closure_answer is True or (closure_answer is False and simple):
            # The closure's answer is sound on its own; serve it.
            if _obs.enabled:
                _obs.inc("ensemble.fallback.closure")
            sess.fallbacks.append("closure")
            return closure_answer
        assert chase_error is not None
        chase_error.partial.setdefault("engine", "ensemble.chase")
        raise chase_error
    if closure_answer is None and chase_answer is not None:
        # The chase is exact by itself; the cross-check just degrades.
        if _obs.enabled:
            _obs.inc("ensemble.fallback.chase")
        sess.fallbacks.append("chase")
        return chase_answer
    if closure_answer is None and chase_answer is None:
        # Recursive DTD with an exhausted closure: nothing survived.
        assert closure_error is not None
        closure_error.partial.setdefault("engine", "ensemble.closure")
        raise closure_error

    brute_answer: bool | None = None
    if chase_answer is not None and brute_feasible(dtd, len(sigma)):
        try:
            brute_answer = brute_implies(
                dtd, sigma, fd, max_word=BRUTE_MAX_WORD,
                max_trees=BRUTE_MAX_TREES)
            if _obs.enabled:
                _obs.inc("ensemble.brute.runs")
        except ReproError:
            brute_answer = None  # advisory member only; never fatal

    # -- authority: collect definitive YES / NO votes ------------------
    yes_votes: list[str] = []
    no_votes: list[str] = []
    if closure_answer is True:
        yes_votes.append("closure")      # sound everywhere
    elif closure_answer is False and simple:
        no_votes.append("closure")       # complete on simple DTDs
    elif closure_answer is False and chase_answer is True:
        if _obs.enabled:
            _obs.inc("ensemble.closure.incomplete")
    if chase_answer is True:
        yes_votes.append("chase")
    elif chase_answer is False:
        no_votes.append("chase")
    if brute_answer is False:
        no_votes.append("brute")         # an exhibited countermodel

    if yes_votes and no_votes:
        primary = "chase" if chase_answer is not None else "closure"
        verdicts = []
        for engine, answer in (("closure", closure_answer),
                               ("chase", chase_answer),
                               ("brute", brute_answer)):
            verdicts.append(
                (engine,
                 "skipped" if answer is None else _verdict(answer)))
        record = EnsembleDisagreement(
            query=str(fd), verdicts=tuple(verdicts),
            resolved_with=None if sess.mode == "strict" else primary)
        sess.disagreements.append(record)
        if _obs.enabled:
            _obs.inc("ensemble.disagreements")
        if sess.mode == "strict":
            raise EnsembleDisagreementError(record.describe(),
                                            record=record)
        # check mode: escalate through the record, resolve with the
        # primary exact engine so the batch can keep moving.
        assert chase_answer is not None or closure_answer is not None
        return chase_answer if chase_answer is not None \
            else bool(closure_answer)

    if _obs.enabled:
        _obs.inc("ensemble.agreements")
    if chase_answer is not None:
        return chase_answer
    assert closure_answer is not None
    return closure_answer
