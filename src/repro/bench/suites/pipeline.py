"""End-to-end pipeline benchmarks (the paper's figures as workloads):
the Figure 1 story, the Example 1.2 DBLP redesign, migration scaling,
and the Proposition 8 lossless verification (``python -m repro.bench
run --only pipeline.``)."""

from __future__ import annotations

from repro.bench.registry import benchmark
from repro.datasets.dblp import (
    DBLP_DOCUMENT,
    dblp_spec,
    synthetic_dblp_document,
)
from repro.datasets.university import (
    UNIVERSITY_DOCUMENT,
    synthetic_university_document,
    university_spec,
)
from repro.lossless.check import check_normalization_lossless
from repro.normalize.transforms import NewElementNames
from repro.xmltree.parser import parse_xml


@benchmark("pipeline.figure1")
def figure1():
    """Parse → check → detect → normalize → migrate, paper scale."""
    def run():
        spec = university_spec()
        doc = spec.parse_document(UNIVERSITY_DOCUMENT)
        result = spec.normalize(
            naming=lambda i, fd: NewElementNames(tau="info",
                                                 taus=["number"]))
        return result.migrate(doc).size()

    return run


@benchmark("pipeline.example12")
def example12():
    def run():
        spec = dblp_spec()
        doc = spec.parse_document(DBLP_DOCUMENT)
        result = spec.normalize()
        return result.migrate(doc).size()

    return run


@benchmark("pipeline.migration_scaling", series=(5, 10, 20),
           quick=(5,), param="courses")
def migration_scaling(courses):
    spec = university_spec()
    result = spec.normalize()
    doc = synthetic_university_document(courses, 4, seed=5)
    return lambda: result.migrate(doc)


@benchmark("pipeline.dblp_migration", series=(2, 4, 8), quick=(2,),
           param="confs")
def dblp_migration(confs):
    spec = dblp_spec()
    result = spec.normalize()
    doc = synthetic_dblp_document(confs, 3, 4, seed=6)
    return lambda: result.migrate(doc)


@benchmark("pipeline.lossless_check")
def lossless_check():
    """Proposition 8's instance check on the paper's document."""
    spec = university_spec()
    result = spec.normalize()
    doc = parse_xml(UNIVERSITY_DOCUMENT)
    return lambda: check_normalization_lossless(result, spec.dtd, doc)
