"""Section 8 MVD-extension benchmarks: satisfaction scaling,
tree-induced MVD enumeration, and the XNF4-over-XNF ablation
(``python -m repro.bench run --only mvd.``)."""

from __future__ import annotations

from repro.bench.registry import benchmark
from repro.datasets.university import (
    synthetic_university_document,
    university_spec,
)
from repro.mvd.induced import tree_induced_mvds
from repro.mvd.model import MVD
from repro.mvd.satisfaction import satisfies_mvd
from repro.mvd.xnf4 import is_in_xnf4
from repro.tuples.extract import tuples_of
from repro.xnf.check import is_in_xnf


@benchmark("mvd.satisfaction_scaling", series=(5, 10, 20), quick=(5,),
           param="courses")
def satisfaction_scaling(courses):
    spec = university_spec()
    doc = synthetic_university_document(courses, 4, seed=21)
    tuples = tuples_of(doc, spec.dtd)
    mvd = MVD.parse(
        "courses.course ->> "
        "{courses.course.taken_by.student.@sno, "
        "courses.course.taken_by.student.name.S, "
        "courses.course.taken_by.student.grade.S}")
    return lambda: satisfies_mvd(doc, spec.dtd, mvd, tuples=tuples)


@benchmark("mvd.induced_enumeration")
def induced_enumeration():
    spec = university_spec()
    return lambda: list(tree_induced_mvds(spec.dtd))


@benchmark("mvd.xnf4_overhead")
def xnf4_overhead():
    """Ablation: the MVD pass on top of the plain XNF test."""
    spec = university_spec()
    mvds = list(tree_induced_mvds(spec.dtd))

    def both():
        return (is_in_xnf(spec.dtd, spec.sigma[:2]),
                is_in_xnf4(spec.dtd, spec.sigma[:2], mvds))

    return both
