"""Tree-tuple machinery benchmarks (Section 3): extraction scaling
(long and wide documents), the Theorem 1 round-trip, and FD
satisfaction (``python -m repro.bench run --only tuples.``)."""

from __future__ import annotations

from repro.bench.registry import benchmark
from repro.datasets.university import (
    synthetic_university_document,
    university_spec,
)
from repro.fd.satisfaction import satisfies_all
from repro.tuples.build import trees_of
from repro.tuples.extract import tuples_of


@benchmark("tuples.extract_scaling", series=(5, 10, 20, 40),
           quick=(5, 10), param="courses")
def extract_scaling(courses):
    spec = university_spec()
    doc = synthetic_university_document(courses, 5, seed=1)
    return lambda: tuples_of(doc, spec.dtd)


@benchmark("tuples.wide_courses", series=(2, 4, 8, 16), quick=(2, 4),
           param="students")
def wide_courses(students):
    spec = university_spec()
    doc = synthetic_university_document(4, students, seed=2,
                                        student_pool=64)
    return lambda: tuples_of(doc, spec.dtd)


@benchmark("tuples.roundtrip", series=(5, 10, 20), quick=(5,),
           param="courses")
def roundtrip(courses):
    """tuples_D then trees_D: the Theorem 1 pipeline's second half."""
    spec = university_spec()
    doc = synthetic_university_document(courses, 4, seed=3)
    tuples = tuples_of(doc, spec.dtd)
    return lambda: trees_of(tuples, spec.dtd)


@benchmark("tuples.fd_satisfaction", series=(5, 10, 20, 40),
           quick=(5, 10), param="courses")
def fd_satisfaction(courses):
    """Example 4.1 at scale: checking FD1-FD3 on growing documents."""
    spec = university_spec()
    doc = synthetic_university_document(courses, 5, seed=4)
    tuples = tuples_of(doc, spec.dtd)
    return lambda: satisfies_all(doc, spec.dtd, spec.sigma,
                                 tuples=tuples)
