"""Pure request handlers: (endpoint, payload) -> (status, body).

Everything HTTP-independent about the service lives here so the
contract is unit- and chaos-testable without sockets: envelope
validation, the request's limits (its ``budget`` under
:class:`repro.guard.Limits`' rule, capped by the server's ceilings:
a client may tighten any limit, never loosen one), engine names
(:data:`repro.fd.implication.ENGINES`, checked before the spec
cache), spec-cache lookup, the three endpoint computations, and the
complete exception→response mapping.  Each request installs its
limits on the handler thread that runs it.
The HTTP layer (:mod:`repro.serve.server`) only does transport:
admission, byte I/O, and signal handling.

Error contract (mirrors the CLI exit-code table, see docs/SERVE.md;
the status and ``kind`` follow the error's class, and ``exit_code`` is
the error's own, :attr:`repro.errors.ReproError.exit_code`):

=====================================  ======  =========  ==========
condition                              status  exit_code  kind
=====================================  ======  =========  ==========
malformed envelope, budget or engine     400        2      usage
input rejected by the pipeline           422        3      input
(ParseError, FD syntax, unsupported)
injected fault (FaultError)              500        3      fault
budget tripped (ResourceExhausted)       408        4      resource
anything that is not a ReproError        500       70      contract
=====================================  ======  =========  ==========

Every error body has the same shape::

    {"error": {"type": "ParseError", "message": "...",
               "status": 422, "exit_code": 3, "kind": "input"}}

The ``/v1/implication`` endpoint is special-cased for budget trips
*inside the decision*: :meth:`repro.spec.XMLSpec.decide` converts a
tripped limit into an honest ``unknown`` verdict (200), so only trips
during spec parsing/caching surface as 408 there.

A non-``ReproError`` escaping a handler is a **contract breach**: it
is counted (``serve.contract_breach``), logged with its traceback, and
reported as an opaque 500 — the server thread itself never dies.
"""

from __future__ import annotations

import functools
import logging
from typing import Any

from repro.errors import (
    BREACH_EXITCODE,
    FaultError,
    ReproError,
    ResourceExhausted,
    UsageError,
)
from repro.faults import plan as _faults
from repro.fd.implication import ENGINES
from repro.guard import Limits
from repro.obs import metrics as _obs
from repro.serve.cache import SpecCache

log = logging.getLogger("repro.serve")

#: Endpoint path -> handler name; the HTTP layer routes on this.
ENDPOINTS = ("/v1/implication", "/v1/xnf-check", "/v1/normalize")

_SITES = {
    "/v1/implication": _faults.register_site(
        "serve.handler.implication", "serve",
        "implication handler, after spec lookup, before decide()"),
    "/v1/xnf-check": _faults.register_site(
        "serve.handler.xnf", "serve",
        "XNF-check handler, after spec lookup, before the check"),
    "/v1/normalize": _faults.register_site(
        "serve.handler.normalize", "serve",
        "normalize handler, after spec lookup, before decomposition"),
}


class BadRequest(UsageError):
    """A malformed request envelope (maps to 400 / usage)."""


#: The per-request ceilings (:class:`repro.guard.Limits`): 10 s, 2M steps,
#: 200k branches and 1M nodes, each replaceable (``None``: unlimited).
BudgetDefaults = functools.partial(Limits, timeout=10.0,
                                   max_steps=2_000_000,
                                   max_branches=200_000,
                                   max_nodes=1_000_000)


def _request_limits(budget: Any, ceilings: Limits) -> Limits:
    """A request's limits: its ``budget`` object capped by
    ``ceilings``, or the ceilings themselves when it sends none."""
    if budget is None:
        return ceilings
    if not isinstance(budget, dict):
        raise BadRequest("'budget' must be an object")
    unknown = sorted(set(budget) - set(Limits.KEYS))
    if unknown:
        raise BadRequest(f"unknown budget key(s): {', '.join(unknown)}; "
                         f"allowed: {', '.join(Limits.KEYS)}")
    return Limits.parse(budget, where="budget.",
                        error=BadRequest).cap(ceilings)


def handle(endpoint: str, payload: Any, *, cache: SpecCache,
           defaults: Limits) -> tuple[int, dict]:
    """Serve one request; never raises.

    Returns ``(http_status, body)`` where ``body`` is JSON-ready.  The
    endpoint work runs under the request's own limits, capped by
    ``defaults``, so a pathological request degrades alone.
    """
    try:
        return _dispatch(endpoint, payload, cache, defaults)
    except BaseException as exc:   # noqa: BLE001 - the breach boundary
        return error_response(exc, context=endpoint)


def error_response(exc: BaseException, *,
                   context: str = "?") -> tuple[int, dict]:
    """Map any exception to the structured error contract.

    Shared by the handlers and the HTTP layer (admission faults raise
    outside :func:`handle`).  Counts and logs contract breaches.
    """
    if isinstance(exc, BadRequest):
        return _error(400, "usage", exc)
    if isinstance(exc, ResourceExhausted):
        return _error(408, "resource", exc)
    if isinstance(exc, FaultError):
        return _error(500, "fault", exc)
    if isinstance(exc, ReproError):
        return _error(422, "input", exc)
    if _obs.enabled:
        _obs.inc("serve.contract_breach")
    log.error("contract breach handling %s", context, exc_info=exc)
    return _error(500, "contract", exc)


def _dispatch(endpoint: str, payload: Any, cache: SpecCache,
              defaults: Limits) -> tuple[int, dict]:
    if endpoint not in ENDPOINTS:
        raise BadRequest(f"unknown endpoint {endpoint!r}; "
                         f"expected one of: {', '.join(ENDPOINTS)}")
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    dtd_text = _field(payload, "dtd")
    fds_text = _field(payload, "fds", required=False, default="")
    root = _field(payload, "root", required=False, default=None)
    engine = _field(payload, "engine", required=False, default="auto")
    if engine not in ENGINES:
        raise BadRequest(f"unknown engine {engine!r}; expected one of: "
                         f"{', '.join(ENGINES)}")
    fd_text = None
    if endpoint == "/v1/implication":
        fd_text = _field(payload, "fd")
    limits = _request_limits(payload.get("budget"), defaults)

    with limits.install():
        spec = cache.get(dtd_text, fds_text, root=root, engine=engine)
        if _faults.active:
            _faults.fire(_SITES[endpoint])
        if endpoint == "/v1/implication":
            verdict = spec.decide(fd_text)
            return 200, {"verdict": verdict.value.lower(),
                         "reason": verdict.reason,
                         "limit": verdict.limit}
        if endpoint == "/v1/xnf-check":
            violations = spec.xnf_violations()
            return 200, {"in_xnf": not violations,
                         "violations": [str(fd) for fd in violations]}
        result = spec.normalize()
        return 200, {
            "dtd": str(result.dtd),
            "fds": [str(fd) for fd in result.sigma],
            "steps": [{"kind": step.kind, "fd": str(step.fd),
                       "description": step.description}
                      for step in result.steps],
        }


def _field(payload: dict, name: str, *, required: bool = True,
           default: Any = None) -> Any:
    value = payload.get(name)
    if value is None:   # absent and explicit null are both "not given"
        if required:
            raise BadRequest(f"missing required field {name!r}")
        return default
    if not isinstance(value, str):
        raise BadRequest(f"field {name!r} must be a string")
    return value


def _error(status: int, kind: str,
           exc: BaseException) -> tuple[int, dict]:
    if kind == "contract":
        # Never leak internals for unexpected failures.
        message = f"internal error ({type(exc).__name__})"
        exit_code = BREACH_EXITCODE
    else:
        message = str(exc) or type(exc).__name__
        exit_code = exc.exit_code
    return status, {"error": {"type": type(exc).__name__,
                              "message": message,
                              "status": status,
                              "exit_code": exit_code,
                              "kind": kind}}
