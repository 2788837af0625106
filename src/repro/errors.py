"""Shared exception hierarchy for the ``repro`` package.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type to handle any library failure.  Subclasses are
split by subsystem to make targeted handling (and testing) possible.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(ReproError):
    """Raised when textual input (DTD, XML, FD, regex) cannot be parsed.

    Carries optional position information to make diagnostics useful:
    ``line`` and ``column`` are 1-based; either may be ``None`` when
    unknown (a column without a line renders as an offset into a
    single-line input, e.g. a content-model expression).
    """

    def __init__(self, message: str, *, line: int | None = None,
                 column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        elif column is not None:
            location = f" at column {column}"
        super().__init__(message + location)
        self.line = line
        self.column = column


class RegexSyntaxError(ParseError):
    """Raised for malformed content-model regular expressions."""


class DTDSyntaxError(ParseError):
    """Raised for malformed ``<!ELEMENT>`` / ``<!ATTLIST>`` declarations."""


class XMLSyntaxError(ParseError):
    """Raised for malformed XML documents."""


class FDSyntaxError(ParseError):
    """Raised for malformed functional-dependency expressions."""


class InvalidDTDError(ReproError):
    """Raised when a structurally valid DTD violates Definition 1.

    Examples: a production referring to an undeclared element type, the
    root element type occurring in some content model, or an attribute
    set mentioning names that do not start with ``@``.
    """


class InvalidTreeError(ReproError):
    """Raised when an XML tree violates Definition 2 (e.g. not a tree)."""


class InvalidPathError(ReproError):
    """Raised when a path is not in ``paths(D)`` for the relevant DTD."""


class InvalidFDError(ReproError):
    """Raised when an FD mentions paths outside ``paths(D)`` or is empty."""


class ConformanceError(ReproError):
    """Raised when an operation requires ``T |= D`` and the tree fails it."""


class RecursionLimitError(ReproError):
    """Raised when an operation needs ``paths(D)`` but the DTD is recursive
    and no finite enumeration bound applies."""


class ResourceExhausted(ReproError):
    """Raised when a :class:`repro.guard.Budget` limit trips.

    ``limit`` names the tripped dimension (``"deadline"``, ``"steps"``,
    ``"branches"``, or ``"nodes"``); ``spent``/``allowed`` quantify it;
    ``partial`` is a dict that engines annotate with progress made
    before the trip (engine name, branches explored, transform steps
    applied, ...).  The implication facade converts this exception into
    an ``UNKNOWN`` verdict; the CLI maps it to exit code 4.
    """

    def __init__(self, limit: str, *, spent=None, allowed=None,
                 partial: dict | None = None) -> None:
        if limit == "deadline" and spent is not None \
                and allowed is not None:
            detail = (f" ({spent:.3f}s elapsed against a "
                      f"{allowed:.3f}s deadline)")
        elif spent is not None and allowed is not None:
            detail = f" ({spent} spent, limit {allowed})"
        else:
            detail = ""
        super().__init__(f"{limit} budget exhausted{detail}")
        self.limit = limit
        self.spent = spent
        self.allowed = allowed
        self.partial: dict = dict(partial) if partial else {}


class FaultError(ReproError):
    """Base class for faults raised by the :mod:`repro.faults` injection
    layer.

    Injected faults are *library* errors by design: the exception-safety
    contract (``docs/ROBUSTNESS.md``) demands that no public entry point
    ever leaks a non-:class:`ReproError` exception, and that includes
    the faults the chaos harness plants inside the engines.
    """

    def __init__(self, site: str, kind: str) -> None:
        super().__init__(f"injected {kind} fault at site {site!r}")
        self.site = site
        self.kind = kind


class InjectedFault(FaultError):
    """A generic injected exception (fault kind ``"exception"``)."""


class InjectedAllocationFailure(FaultError, MemoryError):
    """A simulated allocation failure (fault kind ``"allocation"``).

    Deliberately inherits :class:`MemoryError` as well, so code that
    special-cases allocation failure sees one, while the library-wide
    ``except ReproError`` contract still holds.
    """


class ManifestError(ReproError):
    """Raised for unusable batch manifests: malformed JSON, a
    schema-version mismatch, duplicate task ids, an unknown operation,
    or a task missing required fields.  The CLI maps this to exit code
    2 (usage error): the manifest itself — not the specs it names — is
    what cannot be used."""


class WorkerCrash(ReproError):
    """Raised (synthesized) when a batch-pool worker process dies.

    The parent supervisor of :class:`repro.runtime.pool.PoolBackend`
    never sees the original failure — the whole worker process is gone
    (SIGKILL, OOM kill, a corrupted result stream, a heartbeat stall)
    — so it manufactures this error to stand in for the attempt that
    died with it.  ``detail`` names the detection source in a stable,
    deterministic vocabulary (``signal:SIGKILL``, ``exitcode:70``,
    ``unpicklable-result``, ``stall``); ``worker`` is the pool-local
    id of the worker that died.  The *message* deliberately excludes
    the worker id: which worker a task lands on is a scheduling
    accident, and this message ends up in dead-letter reports that
    must stay byte-deterministic — the id goes to supervisor telemetry
    (stderr, pool stats) instead.

    Classified transient by :func:`repro.runtime.retry.is_transient`
    (the crash may be environmental), keyed ``crash:<detail>`` by
    :func:`repro.runtime.breaker.failure_signature`, and budgeted by
    the supervisor's own crash retry policy — a task that keeps
    killing its workers dead-letters with reason ``worker_crash``
    instead of looping forever.
    """

    def __init__(self, detail: str, *, worker: int | None = None) -> None:
        super().__init__(f"worker process died: {detail}")
        self.detail = detail
        self.worker = worker


class EnsembleDisagreementError(ReproError):
    """Raised when the differential engine ensemble observes two engines
    returning contradictory verdicts for the same implication query
    (see ``repro.fd.ensemble``).

    A disagreement is never resolved silently: in ``strict`` mode it
    surfaces as this error (the batch runtime dead-letters the task);
    in ``check`` mode it is recorded as a first-class
    ``EnsembleDisagreement`` in the batch summary.  ``record`` carries
    the structured disagreement (query, per-engine verdicts).
    """

    def __init__(self, message: str, *, record=None) -> None:
        super().__init__(message)
        self.record = record


class CheckpointError(ReproError):
    """Raised for unusable normalization checkpoints: malformed JSON,
    a schema-version mismatch, or a checkpoint recorded for a different
    ``(D, Σ)`` than the one being resumed.  The CLI maps this to exit
    code 2 (usage error): the flags named a checkpoint that cannot
    apply to this invocation."""


class JournalError(ReproError):
    """Raised for unusable batch journals: malformed records in the
    body of the file, a schema-version mismatch, a duplicated task
    result, a journal recorded for a different manifest / policy /
    breaker configuration than the one being resumed, or a torn append
    (the record did not reach the file intact, so the batch must stop
    rather than continue past a hole in the log).  The CLI maps this to
    exit code 2 (usage error), like :class:`CheckpointError` and
    :class:`ManifestError`: the flags named a journal that cannot apply
    to this invocation.  A *torn trailing record* is explicitly not an
    error — resume truncates it with a counted warning."""


class NormalizationError(ReproError):
    """Raised when the XNF decomposition algorithm cannot make progress.

    Under the paper's assumptions (non-recursive DTD, FDs with at most one
    element path on the left-hand side) this should never happen; hitting
    it indicates the input violates those assumptions.
    """


class UnsupportedFeatureError(ReproError):
    """Raised for inputs outside the fragment the paper covers (e.g. FD
    normalization over recursive DTDs)."""
