"""Unit tests for the Figure 4 decomposition algorithm."""

import pytest

from repro.datasets.generators import scaled_university_spec
from repro.errors import NormalizationError, UnsupportedFeatureError
from repro.dtd.parser import parse_dtd
from repro.fd.model import FD
from repro.normalize import algorithm
from repro.normalize.algorithm import normalize
from repro.normalize.transforms import NewElementNames, TransformStep
from repro.xnf.check import is_in_xnf


class TestPaperRuns:
    def test_university_reaches_example_11b(self, uni_spec):
        """The algorithm reproduces the paper's revised DTD exactly."""
        result = normalize(
            uni_spec.dtd, uni_spec.sigma,
            naming=lambda i, fd: NewElementNames(tau="info",
                                                 taus=["number"]))
        assert len(result.steps) == 1
        assert result.steps[0].kind == "create"
        dtd = result.dtd
        assert dtd.content("courses").to_dtd() == "(course*, info*)"
        assert dtd.content("info").to_dtd() == "(number*, name)"
        assert dtd.content("student").to_dtd() == "grade"
        assert dtd.content("name").to_dtd() == "(#PCDATA)"
        assert dtd.attrs("number") == {"@sno"}
        assert is_in_xnf(dtd, result.sigma)

    def test_dblp_moves_year(self, dblp):
        """Step (2) fires: issue -> S is implied, so the attribute
        moves instead of creating an element type."""
        result = normalize(dblp.dtd, dblp.sigma)
        assert len(result.steps) == 1
        assert result.steps[0].kind == "move"
        assert "@year" in result.dtd.attrs("issue")
        assert "@year" not in result.dtd.attrs("inproceedings")
        assert result.sigma == [dblp.sigma[0]]
        assert is_in_xnf(result.dtd, result.sigma)

    def test_already_normalized_is_noop(self, uni_spec):
        result = normalize(uni_spec.dtd, uni_spec.sigma[:2])
        assert result.steps == []
        assert result.dtd == uni_spec.dtd


class TestCombinedAnomalies:
    def test_two_anomalies_two_steps(self):
        """A schema with both a university-style and a DBLP-style
        anomaly normalizes in two steps."""
        dtd = parse_dtd("""
            <!ELEMENT db (course*)>
            <!ELEMENT course (student*)>
            <!ATTLIST course cno CDATA #REQUIRED>
            <!ELEMENT student (paper*)>
            <!ATTLIST student sno CDATA #REQUIRED
                              sname CDATA #REQUIRED>
            <!ELEMENT paper EMPTY>
            <!ATTLIST paper pno CDATA #REQUIRED
                            cyear CDATA #REQUIRED>
        """)
        sigma = [
            FD.parse("db.course.@cno -> db.course"),
            # university-style: sno determines the student name
            FD.parse("db.course.student.@sno -> db.course.student.@sname"),
            # DBLP-style: all papers of a course share cyear
            FD.parse("db.course -> db.course.student.paper.@cyear"),
        ]
        result = normalize(dtd, sigma)
        kinds = sorted(step.kind for step in result.steps)
        assert kinds == ["create", "move"]
        assert is_in_xnf(result.dtd, result.sigma)

    def test_attribute_two_cycle_normalizes(self):
        """``@a -> @b`` and ``@b -> @a``: each FD is a minimality
        candidate of the other, and the descent must not loop."""
        dtd = parse_dtd("""
            <!ELEMENT db (row*)>
            <!ELEMENT row EMPTY>
            <!ATTLIST row a CDATA #REQUIRED b CDATA #REQUIRED>
        """)
        sigma = [FD.parse("db.row.@a -> db.row.@b"),
                 FD.parse("db.row.@b -> db.row.@a")]
        result = normalize(dtd, sigma)
        assert [step.kind for step in result.steps] == ["create"]
        assert is_in_xnf(result.dtd, result.sigma)

    def test_progress_assertion_active(self, uni_spec):
        result = normalize(uni_spec.dtd, uni_spec.sigma,
                           check_progress=True)
        assert is_in_xnf(result.dtd, result.sigma)


class TestProgressCheckFires:
    """A step that leaves (D, Σ) unchanged makes no Proposition 6
    progress, and the runtime check must say so — in round 1, whose
    ``before`` is computed in the round, and in a later round, whose
    ``before`` is the previous round's progress-check ``after``."""

    @pytest.mark.parametrize("planted_round", [0, 1])
    def test_identity_step_raises(self, monkeypatch, planted_round):
        real = algorithm._apply_one

        def apply_one(dtd, sigma, oracle, anomalous, naming, step_index,
                      engine):
            if step_index == planted_round:
                return TransformStep(
                    kind="move", fd=anomalous[0], dtd=dtd,
                    sigma=list(sigma), description="identity",
                    renaming={})
            return real(dtd, sigma, oracle, anomalous, naming,
                        step_index, engine)

        monkeypatch.setattr(algorithm, "_apply_one", apply_one)
        spec = scaled_university_spec(3)
        with pytest.raises(NormalizationError,
                           match="Proposition 6 progress violated"):
            spec.normalize()

    def test_check_runs_once_per_applied_step(self, monkeypatch):
        compared = []
        real = algorithm.progress_measure

        def measure(paths):
            compared.append(paths)
            return real(paths)

        monkeypatch.setattr(algorithm, "progress_measure", measure)
        result = scaled_university_spec(3).normalize()
        assert len(compared) == 2 * len(result.steps) == 6


class TestPreprocessing:
    def test_two_element_lhs_rejected(self, uni_spec):
        bad = FD.parse("{courses, courses.course} -> "
                       "courses.course.title.S")
        with pytest.raises(UnsupportedFeatureError):
            normalize(uni_spec.dtd, uni_spec.sigma + [bad])

    def test_attribute_only_lhs_gets_root(self, uni_spec):
        """FD3 has no element path on the left; the algorithm adds the
        root, matching the paper's reading of the example."""
        result = normalize(
            uni_spec.dtd, uni_spec.sigma,
            naming=lambda i, fd: NewElementNames(tau="info",
                                                 taus=["number"]))
        step = result.steps[0]
        assert step.kind == "create"
        # the new element hangs off the root
        assert "info" in step.dtd.child_element_types("courses")


class TestResultObject:
    def test_migrate_composes(self, uni_spec, uni_doc):
        from repro.xmltree.conformance import conforms
        result = normalize(uni_spec.dtd, uni_spec.sigma)
        migrated = result.migrate(uni_doc)
        assert conforms(migrated, result.dtd)

    def test_step_descriptions(self, dblp):
        result = normalize(dblp.dtd, dblp.sigma)
        assert any("move" in d for d in result.step_descriptions)


class TestIdempotence:
    def test_normalize_twice_is_noop(self, uni_spec):
        first = normalize(uni_spec.dtd, uni_spec.sigma)
        second = normalize(first.dtd, first.sigma)
        assert second.steps == []
        assert second.dtd == first.dtd

    def test_normalize_twice_dblp(self, dblp):
        first = normalize(dblp.dtd, dblp.sigma)
        second = normalize(first.dtd, first.sigma)
        assert second.steps == []
