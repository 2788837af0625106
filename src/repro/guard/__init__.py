"""Resource governor for the coNP-hard core (see ``docs/ROBUSTNESS.md``).

Public surface::

    from repro import guard

    with guard.limits(deadline=2.0, max_steps=1_000_000):
        ...                      # engines degrade instead of hanging

A budget governs the thread that installed it; :class:`Limits` is the
one definition of a limit set.  :class:`Budget` / :class:`Limits` /
:func:`use` / :func:`limits` / :func:`current` live in
:mod:`repro.guard.budget`; the companion exception
:class:`~repro.errors.ResourceExhausted` is re-exported here for
convenience.  Instrumented engine code imports the submodule directly
(``from repro.guard import budget as _guard``) and reads its
``active`` flag, which this package does **not** re-export — a
from-import would freeze the value.
"""

from __future__ import annotations

from repro.errors import ResourceExhausted
from repro.guard.budget import Budget, Limits, current, limits, teardown, use

__all__ = ["Budget", "Limits", "ResourceExhausted", "current", "limits",
           "teardown", "use"]
