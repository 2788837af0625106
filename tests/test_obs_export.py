"""Unit tests for the Prometheus exporter (repro.obs.export)."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import export
from repro.obs.export import (
    MetricsExporter,
    format_value,
    metric_name,
    prometheus_text,
)

METRIC_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"           # metric name
    r'(\{quantile="0\.\d+"\})?'            # optional summary label
    r" (NaN|[+-]Inf|-?\d+(\.\d+)?([eE][+-]?\d+)?)$")
COMMENT_LINE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|summary)$")


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def assert_parse_valid(text: str) -> None:
    """Every line must be a TYPE comment or a sample line."""
    for line in text.splitlines():
        assert METRIC_LINE.match(line) or COMMENT_LINE.match(line), \
            f"not valid exposition format: {line!r}"


class TestMetricName:
    def test_dots_fold_to_underscores(self):
        assert metric_name("implication.cache.hit") \
            == "implication_cache_hit"

    def test_suffix_appends(self):
        assert metric_name("runtime.tasks", "_total") \
            == "runtime_tasks_total"

    def test_invalid_chars_folded(self):
        assert metric_name("a-b c/d") == "a_b_c_d"

    def test_leading_digit_guarded(self):
        assert metric_name("9lives") == "_9lives"

    def test_empty_name_guarded(self):
        assert metric_name("") == "_"


class TestFormatValue:
    def test_int_stays_int(self):
        assert format_value(42) == "42"

    def test_bool_is_numeric(self):
        assert format_value(True) == "1"
        assert format_value(False) == "0"

    def test_float_repr(self):
        assert format_value(0.1) == "0.1"

    def test_non_finite_spellings(self):
        assert format_value(float("nan")) == "NaN"
        assert format_value(float("inf")) == "+Inf"
        assert format_value(float("-inf")) == "-Inf"


class TestPrometheusText:
    def test_empty_snapshot_renders_empty(self):
        assert prometheus_text(obs.snapshot()) == ""

    def test_counter_family(self):
        obs.enable()
        obs.inc("implication.cache.hit", 3)
        text = prometheus_text(obs.snapshot())
        assert "# TYPE implication_cache_hit_total counter" in text
        assert "implication_cache_hit_total 3" in text
        assert_parse_valid(text)

    def test_gauge_family(self):
        obs.enable()
        obs.set_gauge("runtime.breaker.open", 2)
        text = prometheus_text(obs.snapshot())
        assert "# TYPE runtime_breaker_open gauge" in text
        assert "runtime_breaker_open 2" in text

    def test_timer_gets_seconds_suffix(self):
        obs.enable()
        with obs.timer("closure.time"):
            pass
        text = prometheus_text(obs.snapshot())
        assert "# TYPE closure_time_seconds summary" in text
        assert 'closure_time_seconds{quantile="0.5"}' in text
        assert "closure_time_seconds_sum" in text
        assert "closure_time_seconds_count 1" in text
        assert_parse_valid(text)

    def test_histogram_has_no_unit_suffix(self):
        obs.enable()
        obs.observe("chase.tableau.nodes", 17)
        text = prometheus_text(obs.snapshot())
        assert "# TYPE chase_tableau_nodes summary" in text
        assert "chase_tableau_nodes_seconds" not in text
        assert "chase_tableau_nodes_count 1" in text

    def test_single_sample_quantiles_collapse(self):
        obs.enable()
        obs.observe("h", 7.0)
        text = prometheus_text(obs.snapshot())
        for quantile in ("0.5", "0.95", "0.99"):
            assert f'h{{quantile="{quantile}"}} 7' in text

    def test_min_max_companion_gauges(self):
        obs.enable()
        for value in (1, 9):
            obs.observe("h", value)
        text = prometheus_text(obs.snapshot())
        assert "# TYPE h_min gauge" in text
        assert "h_min 1" in text
        assert "h_max 9" in text

    def test_families_key_sorted(self):
        obs.enable()
        obs.inc("zeta.ops")
        obs.inc("alpha.ops")
        obs.set_gauge("mid.level", 1.0)
        text = prometheus_text(obs.snapshot())
        families = [line.split()[2] for line in text.splitlines()
                    if line.startswith("# TYPE")]
        assert families == sorted(families)

    def test_pre_v2_snapshot_timers_default_to_seconds(self):
        # A v1-shaped snapshot (no unit fields) still renders: timers
        # fall back to the seconds suffix, histograms to none.
        snapshot = {
            "counters": {}, "gauges": {},
            "histograms": {"h": {"count": 1, "total": 2.0, "min": 2.0,
                                 "max": 2.0, "mean": 2.0, "p50": 2.0,
                                 "p95": 2.0, "p99": 2.0}},
            "timers": {"t": {"count": 1, "total": 0.5, "min": 0.5,
                             "max": 0.5, "mean": 0.5, "p50": 0.5,
                             "p95": 0.5, "p99": 0.5}},
        }
        text = prometheus_text(snapshot)
        assert "# TYPE t_seconds summary" in text
        assert "# TYPE h summary" in text

    def test_byte_identical_across_insertion_orders(self):
        stats = {"count": 2, "total": 3.0, "min": 1.0, "max": 2.0,
                 "mean": 1.5, "p50": 1.0, "p95": 2.0, "p99": 2.0,
                 "unit": "1"}
        forward = {"counters": {"a": 1, "b": 2},
                   "gauges": {"g": 1.0},
                   "histograms": {"h": dict(stats)}, "timers": {}}
        backward = {"counters": {"b": 2, "a": 1},
                    "gauges": {"g": 1.0},
                    "histograms": {"h": dict(reversed(stats.items()))},
                    "timers": {}}
        assert prometheus_text(forward) == prometheus_text(backward)


class TestExporter:
    def _get(self, url: str):
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.read().decode("utf-8"), \
                response.headers

    def test_metrics_endpoint_serves_live_snapshot(self):
        obs.enable()
        obs.inc("runtime.tasks", 5)
        with MetricsExporter(port=0) as exporter:
            status, body, headers = self._get(exporter.url("/metrics"))
        assert status == 200
        assert headers["Content-Type"] == export.CONTENT_TYPE
        assert "runtime_tasks_total 5" in body
        assert_parse_valid(body)

    def test_scrapes_counter_self_observation(self):
        obs.enable()
        with MetricsExporter(port=0) as exporter:
            self._get(exporter.url("/metrics"))
            _, body, _ = self._get(exporter.url("/metrics"))
        # The counter increments before rendering, so the second
        # scrape sees both itself and the first one.
        assert "obs_export_scrapes_total 2" in body

    def test_healthz(self):
        with MetricsExporter(port=0) as exporter:
            status, body, _ = self._get(exporter.url("/healthz"))
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["uptime_s"] >= 0

    def test_unknown_path_404(self):
        with MetricsExporter(port=0) as exporter:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(exporter.url("/nope"))
        assert excinfo.value.code == 404

    def test_keep_alive_and_post_refused(self):
        """One listener for serve and the exporter: HTTP/1.1 keep-alive,
        and a POST is a 405 that closes the connection (the exporter
        never reads a body)."""
        import http.client
        with MetricsExporter(port=0) as exporter:
            conn = http.client.HTTPConnection(exporter.host,
                                              exporter.port, timeout=5)
            try:
                for _ in range(2):
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    assert (response.status, response.version,
                            response.will_close) == (200, 11, False)
                conn.request("POST", "/metrics", body=b"{}")
                response = conn.getresponse()
                response.read()
                assert (response.status, response.will_close) \
                    == (405, True)
            finally:
                conn.close()

    def test_port_property_requires_start(self):
        exporter = MetricsExporter(port=0)
        with pytest.raises(RuntimeError):
            exporter.port

    def test_double_start_rejected(self):
        with MetricsExporter(port=0) as exporter:
            with pytest.raises(RuntimeError):
                exporter.start()

    def test_stop_is_idempotent(self):
        exporter = MetricsExporter(port=0).start()
        exporter.stop()
        exporter.stop()
