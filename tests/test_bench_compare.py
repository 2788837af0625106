"""Comparator and gate tests (repro.bench.compare + the CLI paths).

Satellite contract: a counter regression beyond tolerance fails the
gate (exit 1), improvements pass, and structural problems — missing
benchmarks, schema version mismatch, unreadable files — are clear
errors with exit code 2, never tracebacks.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import compare
from repro.bench.schema import (BenchReportError, SCHEMA_NAME,
                                SCHEMA_VERSION, envelope)
from repro.cli import main


def bench_main(argv):
    return main(["bench", *argv])


def make_payload(counters=None, *, time_s=0.01, claim=None,
                 name="grp.bench"):
    payload = envelope(suite="quick", repeat=1)
    payload["benchmarks"][name] = {
        "group": name.split(".", 1)[0], "param": "n",
        "points": [{"value": 4, "time_s": time_s,
                    "counters": dict(counters or {"chase.steps": 100})}],
        "claim": claim,
    }
    return payload


class TestCompare:
    def test_identical_reports_pass(self):
        base = make_payload()
        findings = compare.compare_payloads(base, copy.deepcopy(base))
        assert findings == []
        assert compare.gate(findings) == 0

    def test_counter_regression_beyond_tolerance_gates(self):
        base = make_payload({"chase.steps": 100})
        curr = make_payload({"chase.steps": 120})
        findings = compare.compare_payloads(base, curr, tolerance=0.05)
        assert [f.severity for f in findings] == ["regression"]
        assert "chase.steps" in findings[0].detail
        assert compare.gate(findings) == 1

    def test_counter_growth_within_tolerance_passes(self):
        base = make_payload({"chase.steps": 100})
        curr = make_payload({"chase.steps": 104})
        findings = compare.compare_payloads(base, curr, tolerance=0.05)
        assert compare.gate(findings) == 0

    def test_improvement_passes_with_note(self):
        base = make_payload({"chase.steps": 100})
        curr = make_payload({"chase.steps": 60})
        findings = compare.compare_payloads(base, curr, tolerance=0.05)
        assert [f.severity for f in findings] == ["note"]
        assert compare.gate(findings) == 0

    def test_new_counter_appearing_gates(self):
        base = make_payload({"chase.steps": 100})
        curr = make_payload({"chase.steps": 100,
                             "chase.branches.explored": 50})
        findings = compare.compare_payloads(base, curr, tolerance=0.05)
        assert compare.gate(findings) == 1

    def test_wall_time_is_advisory_only(self):
        base = make_payload(time_s=0.01)
        curr = make_payload(time_s=0.05)  # 5x slower
        findings = compare.compare_payloads(base, curr, tolerance=0.05)
        assert [f.severity for f in findings] == ["advisory"]
        assert compare.gate(findings) == 0

    def test_missing_benchmark_is_structural_error(self):
        base = make_payload()
        curr = make_payload(name="grp.other")
        with pytest.raises(BenchReportError,
                           match="missing baseline benchmark"):
            compare.compare_payloads(base, curr)

    def test_new_benchmark_is_a_note(self):
        base = make_payload()
        curr = copy.deepcopy(base)
        curr["benchmarks"]["grp.fresh"] = \
            make_payload(name="grp.fresh")["benchmarks"]["grp.fresh"]
        findings = compare.compare_payloads(base, curr)
        assert [(f.severity, f.benchmark) for f in findings] == \
               [("note", "grp.fresh")]

    def test_disappeared_series_point_gates(self):
        base = make_payload()
        curr = copy.deepcopy(base)
        curr["benchmarks"]["grp.bench"]["points"][0]["value"] = 8
        findings = compare.compare_payloads(base, curr)
        assert any(f.severity == "regression"
                   and "disappeared" in f.detail for f in findings)

    def test_claim_flip_to_fail_gates(self):
        passing = {"statement": "Theorem 3", "bound": "polynomial",
                   "counter": "closure.iterations",
                   "kind": "polynomial", "slope": 1.0,
                   "time_slope": 1.1, "max_slope": 3.0, "passed": True}
        failing = dict(passing, slope=4.2, passed=False)
        base = make_payload(claim=passing)
        curr = make_payload(claim=failing)
        findings = compare.compare_payloads(base, curr)
        assert any(f.severity == "regression"
                   and "now FAILS" in f.detail for f in findings)


class TestSchemaValidation:
    def test_version_mismatch_is_clear_error(self, tmp_path):
        payload = make_payload()
        payload["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "future.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchReportError, match="schema version"):
            compare.load_report(path)

    def test_wrong_schema_name_rejected(self, tmp_path):
        payload = make_payload()
        payload["schema"] = "something.else"
        path = tmp_path / "alien.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(BenchReportError):
            compare.load_report(path)

    def test_unreadable_file_is_clear_error(self, tmp_path):
        with pytest.raises(BenchReportError, match="cannot read"):
            compare.load_report(tmp_path / "does-not-exist.json")

    def test_invalid_json_is_clear_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(BenchReportError, match="not valid JSON"):
            compare.load_report(path)

    def test_valid_payload_roundtrips(self, tmp_path):
        payload = make_payload()
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(payload))
        loaded = compare.load_report(path)
        assert loaded["schema"] == SCHEMA_NAME
        assert "grp.bench" in loaded["benchmarks"]


class TestCLI:
    def _write(self, tmp_path, name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_compare_exit_zero_on_match(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", make_payload())
        curr = self._write(tmp_path, "curr.json", make_payload())
        assert bench_main(["compare", base, curr]) == 0
        assert "OK: no counter regressions" in capsys.readouterr().out

    def test_compare_exit_one_on_regression(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json",
                           make_payload({"chase.steps": 100}))
        curr = self._write(tmp_path, "curr.json",
                           make_payload({"chase.steps": 200}))
        assert bench_main(["compare", base, curr]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_compare_tolerance_flag_is_percent(self, tmp_path):
        base = self._write(tmp_path, "base.json",
                           make_payload({"chase.steps": 100}))
        curr = self._write(tmp_path, "curr.json",
                           make_payload({"chase.steps": 120}))
        assert bench_main(["compare", base, curr,
                           "--tolerance", "25"]) == 0

    def test_compare_exit_two_on_missing_file(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", make_payload())
        code = bench_main(["compare", base,
                           str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_exit_two_on_version_mismatch(self, tmp_path,
                                                  capsys):
        base = self._write(tmp_path, "base.json", make_payload())
        future = make_payload()
        future["schema_version"] = SCHEMA_VERSION + 1
        curr = self._write(tmp_path, "future.json", future)
        code = bench_main(["compare", base, curr])
        assert code == 2
        err = capsys.readouterr().err
        assert "schema version" in err
        assert "Traceback" not in err

    def test_compare_exit_two_on_missing_benchmark(self, tmp_path,
                                                   capsys):
        base = self._write(tmp_path, "base.json", make_payload())
        curr = self._write(tmp_path, "curr.json",
                           make_payload(name="grp.other"))
        code = bench_main(["compare", base, curr])
        assert code == 2
        assert "missing baseline benchmark" in capsys.readouterr().err

    def test_report_renders_a_file(self, tmp_path, capsys):
        path = self._write(tmp_path, "r.json", make_payload())
        assert bench_main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "repro.bench report" in out
        assert "grp.bench" in out

    def test_report_renders_a_point_without_time_as_a_dash(
            self, tmp_path, capsys):
        payload = make_payload()
        del payload["benchmarks"]["grp.bench"]["points"][0]["time_s"]
        path = self._write(tmp_path, "r.json", payload)
        assert bench_main(["report", path]) == 0
        assert " time=-  ops=100" in capsys.readouterr().out
