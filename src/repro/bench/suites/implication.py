"""Implication-engine benchmarks (Section 7 workloads).

The Theorem 3 simple-DTD scaling, the Theorem 4 bounded-disjunction
series, the Theorem 5 hard-disjunction series, and the auto-engine
anomaly-detection workload (``python -m repro.bench run --only
implication.``).  The *asserted* complexity claims over
these shapes live in :mod:`repro.bench.suites.complexity`; the entries
here record the raw trajectories.
"""

from __future__ import annotations

from repro.bench.registry import benchmark
from repro.datasets.generators import scaled_university_spec
from repro.dtd.model import DTD
from repro.fd.chase import chase_implies
from repro.fd.closure import closure_implies
from repro.fd.implication import ImplicationEngine
from repro.fd.model import FD
from repro.regex.ast import EPSILON, concat, star, sym, union


def disjunctive_dtd(hard_disjunctions: int, padding: int) -> DTD:
    """``(a_i | b_i)`` choices plus ``padding`` plain starred leaves."""
    productions = {}
    attributes = {}
    parts = []
    for index in range(hard_disjunctions):
        for name in (f"a{index}", f"b{index}"):
            productions[name] = EPSILON
            attributes[name] = frozenset({"@v"})
        parts.append(union([sym(f"a{index}"), sym(f"b{index}")]))
    for index in range(padding):
        name = f"p{index}"
        productions[name] = EPSILON
        attributes[name] = frozenset({"@w"})
        parts.append(star(sym(name)))
    productions["c"] = EPSILON
    attributes["c"] = frozenset({"@x"})
    parts.append(star(sym("c")))
    productions["r"] = concat(parts)
    return DTD(root="r", productions=productions, attributes=attributes)


def disjunctive_sigma(hard_disjunctions: int) -> list[FD]:
    sigma = []
    for index in range(hard_disjunctions):
        sigma.append(FD.parse(f"r.a{index} -> r.c.@x"))
        sigma.append(FD.parse(f"r.b{index} -> r.c.@x"))
    return sigma


@benchmark("implication.simple_all", series=(1, 2, 4, 8),
           quick=(1, 2), param="k")
def simple_all(k):
    """Theorem 3 shape: decide every Σ-FD of the k-fold schema with a
    fresh closure engine."""
    spec = scaled_university_spec(k)
    dtd, sigma = spec.dtd, spec.sigma

    def run():
        oracle = ImplicationEngine(dtd, sigma, engine="closure")
        return [oracle.implies(fd) for fd in sigma]

    return run


@benchmark("implication.simple_single", series=(1, 2, 4, 8),
           quick=(1, 2), param="k")
def simple_single(k):
    """One fixed query against a growing (D, Σ)."""
    spec = scaled_university_spec(k)
    dtd, sigma = spec.dtd, spec.sigma
    query = FD.parse(
        "uni.courses0.course0.@cno -> uni.courses0.course0.title0.S")
    return lambda: closure_implies(dtd, sigma, query)


@benchmark("implication.disjunctive_bounded", series=(0, 4, 8, 16),
           quick=(0, 4), param="padding")
def disjunctive_bounded(padding):
    """Theorem 4 shape: one disjunction (N_D = 2), growing |D|."""
    dtd = disjunctive_dtd(1, padding)
    sigma = disjunctive_sigma(1)
    query = FD.parse("r -> r.c.@x")
    return lambda: chase_implies(dtd, sigma, query)


@benchmark("implication.disjunctive_hard", series=(1, 2, 3, 4),
           quick=(1, 2), param="disjunctions", repeat=1)
def disjunctive_hard(hard):
    """Theorem 5 shape: N_D = 2^hard, exponential branch growth."""
    dtd = disjunctive_dtd(hard, 0)
    sigma = disjunctive_sigma(hard)
    query = FD.parse("r -> r.c.@x")
    return lambda: chase_implies(dtd, sigma, query)


@benchmark("implication.auto_engine", series=(1, 2, 4), quick=(1,),
           param="k")
def auto_engine(k):
    """The auto engine on the practical anomaly-detection workload."""
    spec = scaled_university_spec(k)
    return spec.xnf_violations
