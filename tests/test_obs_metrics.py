"""Unit tests for the metrics registry (repro.obs.metrics)."""

from __future__ import annotations

import random
import threading

import pytest

from repro import obs
from repro.obs import metrics


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts disabled and empty, and leaves no residue."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestEnableDisable:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()

    def test_enable_flips_module_flag(self):
        obs.enable()
        assert metrics.enabled is True
        obs.disable()
        assert metrics.enabled is False


class TestDisabledNoOp:
    def test_inc_is_noop_while_disabled(self):
        obs.inc("some.counter")
        obs.set_gauge("some.gauge", 7.0)
        obs.observe("some.histogram", 1.0)
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}
        assert snap["timers"] == {}

    def test_timer_is_noop_while_disabled(self):
        with obs.timer("some.timer"):
            pass
        assert obs.snapshot()["timers"] == {}


class TestCounters:
    def test_inc_accumulates(self):
        obs.enable()
        obs.inc("c")
        obs.inc("c", 4)
        assert obs.counter_value("c") == 5
        assert obs.snapshot()["counters"] == {"c": 5}

    def test_unknown_counter_reads_zero(self):
        assert obs.counter_value("never.touched") == 0

    def test_thread_safety(self):
        obs.enable()

        def work():
            for _ in range(1000):
                obs.inc("threads")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert obs.counter_value("threads") == 8000


class TestGaugesAndHistograms:
    def test_gauge_keeps_last_value(self):
        obs.enable()
        obs.set_gauge("g", 1.0)
        obs.set_gauge("g", 2.5)
        assert obs.snapshot()["gauges"] == {"g": 2.5}

    def test_histogram_summary(self):
        obs.enable()
        for value in (1, 2, 3):
            obs.observe("h", value)
        stats = obs.snapshot()["histograms"]["h"]
        assert stats["count"] == 3
        assert stats["total"] == 6
        assert stats["min"] == 1
        assert stats["max"] == 3
        assert stats["mean"] == pytest.approx(2.0)

    def test_timer_records_duration(self):
        obs.enable()
        with obs.timer("t"):
            pass
        stats = obs.snapshot()["timers"]["t"]
        assert stats["count"] == 1
        assert stats["total"] >= 0.0

    def test_histogram_percentiles_exact_when_small(self):
        obs.enable()
        for value in range(1, 101):
            obs.observe("h", value)
        stats = obs.snapshot()["histograms"]["h"]
        assert stats["p50"] == 50
        assert stats["p95"] == 95
        assert stats["p99"] == 99

    def test_single_observation_percentiles(self):
        obs.enable()
        obs.observe("h", 7.0)
        stats = obs.snapshot()["histograms"]["h"]
        assert stats["p50"] == stats["p95"] == stats["p99"] == 7.0

    def test_percentiles_survive_decimation(self):
        # Push well past the sample cap; the decimated reservoir must
        # still put the percentiles in the right region.
        obs.enable()
        n = 40_000
        for value in range(n):
            obs.observe("big", value)
        stats = obs.snapshot()["histograms"]["big"]
        assert stats["count"] == n
        assert stats["min"] == 0
        assert stats["max"] == n - 1
        assert abs(stats["p50"] - n / 2) < n * 0.05
        assert abs(stats["p95"] - n * 0.95) < n * 0.05

    def test_packed_samples_match_a_list_backed_reference(self):
        """Packing changes the bytes per sample, not the results: a
        seeded stream past the cap summarizes, dumps and merges exactly
        as the same histogram keeping its samples in a list."""
        rng = random.Random(2002)
        reference = metrics._Histogram()
        reference.samples = []
        obs.enable()
        for _ in range(50_000):
            value = rng.lognormvariate(0.0, 1.0)
            obs.observe("h", value)
            reference.observe(value)
        assert metrics._histograms["h"].samples.itemsize == 8
        assert reference.stride > 1  # decimated at least once
        assert obs.snapshot()["histograms"]["h"] == reference.as_dict()
        dumped = metrics.dump_raw()["histograms"]["h"]
        assert dumped == {"count": reference.count,
                          "total": reference.total,
                          "min": reference.min, "max": reference.max,
                          "samples": reference.samples,
                          "stride": reference.stride}

        obs.reset()
        merged = metrics._Histogram()
        merged.samples = []
        for _ in range(2):  # past the cap again: decimates in the merge
            metrics.merge_raw({"histograms": {"h": dumped}})
            metrics._merge_histogram(merged, dumped)
        assert merged.stride > reference.stride
        assert obs.snapshot()["histograms"]["h"] == merged.as_dict()


class TestSnapshotReset:
    def test_snapshot_is_a_copy(self):
        obs.enable()
        obs.inc("c")
        snap = obs.snapshot()
        snap["counters"]["c"] = 999
        assert obs.counter_value("c") == 1

    def test_reset_clears_but_keeps_enabled(self):
        obs.enable()
        obs.inc("c")
        obs.observe("h", 1.0)
        obs.reset()
        assert obs.is_enabled()
        snap = obs.snapshot()
        assert snap["counters"] == {}
        assert snap["histograms"] == {}


class TestRender:
    def test_table_lists_all_sections(self):
        obs.enable()
        obs.inc("implication.cache.hit", 3)
        obs.inc("implication.cache.miss", 1)
        obs.observe("h", 2.0)
        with obs.timer("t"):
            pass
        table = obs.render.metrics_table(obs.snapshot())
        assert "implication.cache.hit " in table
        assert "-- histograms --" in table
        # The timers section names its storage unit (satellite fix for
        # the seconds-vs-ms ambiguity).
        assert "-- timers (stored: seconds, shown: ms) --" in table
        assert "implication.cache.hit_rate" in table
        assert "75.0%" in table

    def test_snapshot_schema_and_units(self):
        obs.enable()
        obs.observe("h", 2.0)
        with obs.timer("t"):
            pass
        snap = obs.snapshot()
        assert snap["schema"] == "repro.obs.snapshot"
        assert snap["schema_version"] == 2
        assert snap["histograms"]["h"]["unit"] == "1"
        assert snap["timers"]["t"]["unit"] == "seconds"

    def test_empty_table(self):
        table = obs.render.metrics_table(obs.snapshot())
        assert "no metrics recorded" in table
