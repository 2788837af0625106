"""Human-readable implication derivations.

``explain_implication`` replays the closure engine with event tracing
and renders the derivation chain that establishes (or fails to
establish) ``(D, Σ) |- S -> q`` — the tool-side counterpart of reading
a normalization paper's proofs.  For non-simple DTDs where only the
chase can decide, the explanation reports that escalation happened.
"""

from __future__ import annotations

from typing import Iterable

from repro.dtd.classify import is_simple_dtd
from repro.dtd.model import DTD
from repro.fd.closure import SPLIT_DEPTH, SigmaIndex
from repro.fd.model import FD


def closure_derivation(dtd: DTD, sigma: Iterable[FD], fd: FD,
                       ) -> tuple[bool, list[str]]:
    """(derivable?, derivation lines) for a single-RHS FD."""
    sigma = list(sigma)
    target = fd.single_rhs
    solver = SigmaIndex(dtd, sigma).solver(fd.lhs, (target,), prune=True)
    solver.events = []
    eq, _nn = solver.solve(0, 0, SPLIT_DEPTH)
    derived = bool(eq >> solver.extra[0] & 1)

    lines = [
        "hypothesis: two maximal tuples agree (non-null) on "
        + ", ".join(str(p) for p in sorted(fd.lhs, key=str)),
        f"goal: they agree on {target}",
    ]
    if len(solver.rules) != len(sigma):
        lines.append(
            f"(pruned {len(sigma) - len(solver.rules)} FD(s) not "
            "connected to the goal)")
    for kind, pid, reason in solver.events:
        path = solver.table.path(pid)
        lines.append(f"derive {kind}({path}): {reason}")
        if kind == "EQ" and path == target:
            break
    if derived:
        lines.append(f"goal reached: EQ({target}) — the FD is implied")
    else:
        lines.append(
            f"fixpoint reached without EQ({target}) — "
            + ("not implied (the closure is complete for this simple "
               "DTD)" if is_simple_dtd(dtd) else
               "the closure cannot decide; the chase engine settles "
               "non-simple DTDs"))
    return derived, lines


def explain_implication(dtd: DTD, sigma: Iterable[FD],
                        fd: FD | str) -> str:
    """A rendered derivation for (each single-RHS expansion of) an FD."""
    if isinstance(fd, str):
        fd = FD.parse(fd)
    sigma = list(sigma)
    blocks: list[str] = []
    for single in fd.expand():
        _derived, lines = closure_derivation(dtd, sigma, single)
        blocks.append("\n".join(lines))
    return ("\n\n".join(blocks)) + "\n"
