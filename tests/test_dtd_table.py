"""The interned-path table (repro.dtd.table) and its thread safety."""

from __future__ import annotations

import pickle
import random
import sys
import threading

from repro.datasets.generators import scaled_university_spec
from repro.datasets.university import university_spec
from repro.dtd.model import DTD
from repro.dtd.paths import Path
from repro.fd.model import FD
from repro.regex.analysis import Multiplicity

P = Path.parse


class TestInterning:
    def test_ids_are_stable_and_prefixes_come_along(self):
        table = university_spec().dtd.path_table
        sno = table.intern(P("courses.course.taken_by.student.@sno"))
        assert table.intern(P("courses.course.taken_by.student.@sno")) \
            == sno
        chain = [table.path(pid) for pid in table.prefixes[sno]]
        assert [str(p) for p in chain] == [
            "courses", "courses.course", "courses.course.taken_by",
            "courses.course.taken_by.student",
            "courses.course.taken_by.student.@sno"]
        assert table.parent[sno] == table.prefixes[sno][-2]
        assert table.parent[table.prefixes[sno][0]] == -1
        assert table.paths_of(table.prefix_mask[sno]) == frozenset(chain)
        assert not table.is_element[sno]
        assert table.is_element[table.parent[sno]]

    def test_step_classes_follow_the_productions(self):
        table = university_spec().dtd.path_table

        def step(text):
            pid = table.intern(P(text))
            return table.forced[pid], table.determined[pid]

        assert step("courses.course") == (False, False)          # *
        assert step("courses.course.title") == (True, True)      # 1
        assert step("courses.course.@cno") == (True, True)       # attr
        assert step("courses.course.title.S") == (True, True)    # text
        assert step("courses") == (False, False)                 # root

    def test_step_order_puts_prefixes_first(self):
        table = university_spec().dtd.path_table
        ids = [table.intern(P(text)) for text in (
            "courses.course.title", "courses.course", "courses")]
        assert [str(table.path(pid)) for pid in table.in_step_order(ids)
                ] == ["courses", "courses.course", "courses.course.title"]

    def test_one_table_per_dtd_that_survives_pickling(self):
        dtd = university_spec().dtd
        assert dtd.path_table is dtd.path_table
        dtd.path_table.intern(P("courses.course"))
        copy = pickle.loads(pickle.dumps(dtd))
        assert copy == dtd and len(copy.path_table) == 0

    def test_child_multiplicity_reads_the_production_maps(self):
        dtd = DTD.build("r", {"r": "(a, b?, (c | d)*)", "a": "EMPTY",
                              "b": "EMPTY", "c": "EMPTY", "d": "EMPTY"})
        assert dtd.child_multiplicity("r", "a") is Multiplicity.ONE
        assert dtd.child_multiplicity("r", "b") is Multiplicity.OPT
        assert dtd.child_multiplicity("r", "c") is Multiplicity.STAR
        assert dtd.child_multiplicity("r", "zz") is Multiplicity.ZERO


# -- shared-table thread stress -----------------------------------------

THREADS = 4
ROUNDS = 10
JOIN_TIMEOUT_S = 120


def _queries(spec, seed: int) -> list[FD]:
    """Implication queries over the spec's paths, in a seeded order so
    concurrent threads meet (and intern) paths in different orders."""
    rng = random.Random(seed)
    paths = sorted(spec.dtd.paths, key=str)
    queries = [FD(fd.lhs, frozenset({rng.choice(paths)}))
               for fd in spec.sigma for _ in range(3)]
    rng.shuffle(queries)
    return queries


def _answers(spec, queries):
    """What ``xnf serve`` computes per request on a cached spec."""
    verdicts = {str(query): spec.decide(query).value for query in queries}
    violations = sorted(str(fd) for fd in spec.xnf_violations())
    return verdicts, violations


def test_threads_sharing_one_cached_spec_agree_with_one_thread():
    """Threads share one fresh spec, as the serve spec cache shares it,
    and intern its paths concurrently under a tiny switch interval;
    several rounds, each on a new spec, give races more chances."""
    orders = [_queries(scaled_university_spec(3), seed)
              for seed in range(THREADS)]
    expected = [_answers(scaled_university_spec(3), queries)
                for queries in orders]
    for _round in range(ROUNDS):
        shared = scaled_university_spec(3)
        results = _run_threads(
            [lambda queries=queries: _answers(shared, queries)
             for queries in orders])
        assert results == expected
        table = shared.dtd.path_table
        assert len(set(table.steps)) == len(table.steps), \
            "a path received two ids"
        assert all(table.intern(table.path(pid)) == pid
                   for pid in range(len(table)))


def _run_threads(jobs) -> list:
    """Run each job on its own thread, all released at once, and return
    their results; fails on an error or a join that times out."""
    results: list = [None] * len(jobs)
    errors: list[BaseException] = []
    barrier = threading.Barrier(len(jobs))

    def work(index: int) -> None:
        try:
            barrier.wait()
            results[index] = jobs[index]()
        except BaseException as error:  # surfaced by the assertions
            errors.append(error)

    threads = [threading.Thread(target=work, args=(index,), daemon=True)
               for index in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(JOIN_TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not [thread for thread in threads if thread.is_alive()]
    assert not errors, errors
    return results
