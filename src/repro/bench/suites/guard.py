"""Resource-governor benchmarks, sharing their workload with the
``guard`` gate of ``python -m repro.bench.seams``.

Two entries run the same seeded implication workload — once with no
budget installed (the default fast path) and once under a generous,
never-tripping budget — so the bench trajectory records both sides in
full.  The <1 % disabled-overhead contract of ``docs/ROBUSTNESS.md``
is the seam gate's: it times the unset guard's own checks against
this workload.  The ``guard.*`` counters of the guarded run
additionally pin the governor's own bookkeeping.
"""

from __future__ import annotations

from repro import guard
from repro.bench.registry import benchmark
from repro.dtd.parser import parse_dtd
from repro.fd.implication import ImplicationEngine
from repro.fd.model import FD

#: Simple-DTD workload: closure-engine queries, the common fast case
#: where governor overhead would hurt the most.
DTD_TEXT = """
<!ELEMENT courses (course*)>
<!ELEMENT course (title, taken_by)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT taken_by (student*)>
<!ELEMENT student (grade)>
<!ELEMENT grade (#PCDATA)>
<!ATTLIST course cno CDATA #REQUIRED>
<!ATTLIST student sno CDATA #REQUIRED>
"""
SIGMA = [
    "courses.course.@cno -> courses.course",
    "courses.course.taken_by.student.@sno, courses.course "
    "-> courses.course.taken_by.student",
]
QUERIES = [
    "courses.course.@cno -> courses.course.title.S",
    "courses.course.@cno -> courses.course.taken_by.student.@sno",
    "courses.course.taken_by.student.@sno -> courses.course",
    "courses.course -> courses.course.title",
]


def make_workload(queries: int = 10):
    """Fresh engines each call: real decisions, not the cache."""
    dtd = parse_dtd(DTD_TEXT)
    sigma = [FD.parse(line) for line in SIGMA]
    parsed = [FD.parse(line) for line in QUERIES]

    def run():
        for _ in range(queries):
            engine = ImplicationEngine(dtd, sigma)
            for query in parsed:
                engine.implies(query)

    return run


@benchmark("guard.unguarded", repeat=5)
def unguarded():
    return make_workload()


@benchmark("guard.guarded", repeat=5)
def guarded():
    run = make_workload()

    def guarded_run():
        with guard.limits(max_steps=10**9, max_branches=10**9,
                          max_nodes=10**9, deadline=3600.0):
            run()

    return guarded_run
