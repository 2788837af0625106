"""``repro.serve`` — the long-running normalization service.

The batch runtime is one-shot; production traffic is a daemon.  This
package turns the ``(D, Σ)`` pipeline into an HTTP/JSON service with
the robustness properties the CLI already guarantees per invocation,
re-established *per request*:

* :mod:`~repro.serve.admission` — bounded concurrency + queue with
  explicit load shedding (429/503) and graceful drain;
* :mod:`~repro.serve.cache` — fingerprint-keyed LRU of parsed specs,
  unpoisonable by failed builds;
* :mod:`~repro.serve.handlers` — pure endpoint logic under
  thread-scoped guard budgets, with a total exception→response map
  (only a non-``ReproError`` is a contract breach, and even that is
  counted and contained, never a dead thread);
* :mod:`~repro.serve.server` — the stdlib HTTP transport, one port for
  the API and ``/metrics`` / ``/healthz`` / ``/readyz``;
* :mod:`~repro.serve.loadgen` — the seeded corpus load generator that
  gives the throughput/tail-latency claims numbers.

See ``docs/SERVE.md`` for the wire contract.
"""

from repro.serve.admission import AdmissionGate, Decision
from repro.serve.cache import SpecCache, spec_key
from repro.serve.handlers import ENDPOINTS, BadRequest, BudgetDefaults, handle
from repro.serve.server import MAX_BODY_BYTES, NormalizationServer, account

__all__ = [
    "AdmissionGate",
    "BadRequest",
    "BudgetDefaults",
    "Decision",
    "ENDPOINTS",
    "LoadReport",
    "MAX_BODY_BYTES",
    "NormalizationServer",
    "SpecCache",
    "account",
    "handle",
    "run_load",
    "spec_key",
]


def __getattr__(name: str):
    # The load generator imports the whole batch runtime (for its
    # corpus), which a serving process never needs: load it on use.
    if name in ("LoadReport", "run_load"):
        from repro.serve import loadgen
        return getattr(loadgen, name)
    raise AttributeError(f"module 'repro.serve' has no attribute {name!r}")
