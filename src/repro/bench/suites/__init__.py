"""The standard benchmark suite, grouped by subsystem.

Each submodule registers its benchmarks with the
:func:`repro.bench.benchmark` decorator at import time;
:func:`load_all` imports every group (idempotent).  The groups mirror
the subsystems they measure; ``python -m repro.bench run --only
<group>.`` runs one of them:

====================  =============================================
module                measures
====================  =============================================
``implication``       FD implication engines (Section 7 workloads)
``xnf``               the XNF test (Corollary 1) incl. ebXML
``normalize``         the Figure 4 decomposition algorithm
``tuples``            tree-tuple extraction / satisfaction (Sec. 3)
``pipeline``          end-to-end paper figures incl. migration
``mvd``               the Section 8 MVD extension
``guard``             resource-governor overhead (guarded vs not)
``runtime``           batch-runner overhead (direct vs batch) and
                      the ensemble-oracle trajectory
``complexity``        Theorems 3/4/5 + Corollary 1 as asserted
                      scaling claims with fitted slopes
====================  =============================================
"""

from __future__ import annotations

import importlib

_GROUPS = ("implication", "xnf", "normalize", "tuples", "pipeline",
           "mvd", "guard", "runtime", "complexity")


def load_all() -> None:
    """Import every suite module (registration is idempotent because
    Python caches module imports)."""
    for group in _GROUPS:
        importlib.import_module(f"repro.bench.suites.{group}")
