"""The top-level public API: an XML specification ``(D, Σ)``.

:class:`XMLSpec` bundles a DTD with its functional dependencies and
exposes the paper's pipeline — satisfaction, implication, the XNF test,
and lossless normalization — behind one object::

    spec = XMLSpec.parse(dtd_text, fd_lines)
    spec.is_in_xnf()                  # Definition 8 via Proposition 10
    result = spec.normalize()         # Figure 4 algorithm
    new_doc = result.migrate(doc)     # carry documents across
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.dtd.model import DTD
from repro.dtd.parser import parse_dtd
from repro.fd.implication import (
    EngineName,
    ImplicationEngine,
    ImplicationVerdict,
)
from repro.fd.model import FD, parse_fds
from repro.fd.satisfaction import satisfies_all, violating_pairs
from repro.normalize.algorithm import NormalizationResult, normalize
from repro.normalize.simple_algorithm import normalize_simple
from repro.normalize.transforms import NewElementNames
from repro.xnf.check import xnf_violations
from repro.xmltree.conformance import conforms, validate_conformance
from repro.xmltree.model import XMLTree
from repro.xmltree.parser import parse_xml


@dataclass
class XMLSpec:
    """An XML specification ``(D, Σ)`` — Section 4."""

    dtd: DTD
    sigma: list[FD] = field(default_factory=list)
    engine: EngineName = "auto"

    def __post_init__(self) -> None:
        self.sigma = [fd.validate(self.dtd) for fd in self.sigma]
        self._oracle: ImplicationEngine | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def parse(cls, dtd_text: str, fds: str | Iterable[str | FD] = (), *,
              root: str | None = None,
              engine: EngineName = "auto") -> "XMLSpec":
        """Parse a DTD and FD lines into a specification."""
        dtd = parse_dtd(dtd_text, root=root)
        if isinstance(fds, str):
            sigma = parse_fds(fds)
        else:
            sigma = [fd if isinstance(fd, FD) else FD.parse(fd)
                     for fd in fds]
        return cls(dtd=dtd, sigma=sigma, engine=engine)

    # -- implication / XNF ---------------------------------------------------

    @property
    def oracle(self) -> ImplicationEngine:
        """A cached implication engine for this ``(D, Σ)``."""
        if self._oracle is None:
            self._oracle = ImplicationEngine(
                self.dtd, self.sigma, engine=self.engine)
        return self._oracle

    def implies(self, fd: FD | str) -> bool:
        """``(D, Σ) |- fd``."""
        if isinstance(fd, str):
            fd = FD.parse(fd)
        return self.oracle.implies(fd.validate(self.dtd))

    def decide(self, fd: FD | str) -> "ImplicationVerdict":
        """Three-valued ``(D, Σ) |- fd``: ``YES``/``NO``/``UNKNOWN``.

        Unlike :meth:`implies`, never raises
        :class:`~repro.errors.ResourceExhausted` — a tripped
        :mod:`repro.guard` budget degrades to ``UNKNOWN`` with the
        limit named (see ``docs/ROBUSTNESS.md``).
        """
        if isinstance(fd, str):
            fd = FD.parse(fd)
        return self.oracle.decide(fd.validate(self.dtd))

    def is_trivial(self, fd: FD | str) -> bool:
        """``(D, ∅) |- fd``."""
        if isinstance(fd, str):
            fd = FD.parse(fd)
        return self.oracle.is_trivial(fd.validate(self.dtd))

    def is_in_xnf(self) -> bool:
        """Definition 8, tested per Proposition 10."""
        return not self.xnf_violations()

    def xnf_violations(self) -> list[FD]:
        """The anomalous Σ-FDs witnessing an XNF violation."""
        return xnf_violations(self.dtd, self.sigma, oracle=self.oracle)

    # -- documents ----------------------------------------------------------

    def parse_document(self, xml_text: str) -> XMLTree:
        """Parse an XML document and validate it against ``(D, Σ)``."""
        tree = parse_xml(xml_text)
        validate_conformance(tree, self.dtd)
        return tree

    def document_conforms(self, tree: XMLTree) -> bool:
        """``T |= D``."""
        return conforms(tree, self.dtd)

    def document_satisfies(self, tree: XMLTree,
                           fds: Iterable[FD] | None = None) -> bool:
        """``T |= Σ`` (or a supplied FD subset)."""
        return satisfies_all(tree, self.dtd,
                             self.sigma if fds is None else fds)

    def document_violations(self, tree: XMLTree) -> dict[FD, int]:
        """Per-FD count of violating tuple pairs in a document."""
        from repro.tuples.extract import tuples_of
        tuples = tuples_of(tree, self.dtd)
        return {
            fd: len(violating_pairs(tree, self.dtd, fd, tuples=tuples))
            for fd in self.sigma
        }

    # -- normalization ---------------------------------------------------------

    def normalize(self, *, naming: Callable[[int, FD], NewElementNames]
                  | None = None,
                  check_progress: bool = True,
                  resume=None, on_step=None) -> NormalizationResult:
        """The Figure 4 decomposition algorithm.

        ``resume``/``on_step`` thread through to
        :func:`repro.normalize.algorithm.normalize` for checkpointed,
        resumable runs.  Round 1 of a fresh run is decided by
        :attr:`oracle`.
        """
        return normalize(self.dtd, self.sigma, engine=self.engine,
                         naming=naming, check_progress=check_progress,
                         resume=resume, on_step=on_step,
                         oracle=self.oracle)

    def normalize_simple(self, *, naming: Callable[[int, FD],
                                                   NewElementNames]
                         | None = None) -> NormalizationResult:
        """The implication-free variant (Proposition 7)."""
        return normalize_simple(self.dtd, self.sigma, naming=naming)

    def explain(self, fd: FD | str) -> str:
        """A rendered closure derivation for an implication query."""
        from repro.fd.explain import explain_implication
        return explain_implication(self.dtd, self.sigma, fd)

    def analyze(self, documents=()) -> "object":
        """A :class:`repro.report.DesignReport` for this spec."""
        from repro.report import analyze
        return analyze(self, documents)

    def normalized_spec(self, result: NormalizationResult | None = None,
                        ) -> "XMLSpec":
        """The specification produced by normalization."""
        if result is None:
            result = self.normalize()
        return XMLSpec(dtd=result.dtd, sigma=result.sigma,
                       engine=self.engine)

    def __str__(self) -> str:
        lines = [str(self.dtd).rstrip(), ""]
        lines.extend(f"FD: {fd}" for fd in self.sigma)
        return "\n".join(lines) + "\n"
