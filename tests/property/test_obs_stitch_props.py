"""Property tests for trace stitching.

:func:`repro.obs.trace.ingest_records` must preserve span counts and
parent/child containment for arbitrary well-formed shipments.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro import obs
from repro.obs import trace


@pytest.fixture(autouse=True)
def clean_obs():
    obs.disable()
    obs.reset()
    obs.clear_sinks()
    yield
    obs.disable()
    obs.reset()
    obs.clear_sinks()


@st.composite
def span_forests(draw):
    """A worker-style shipment: a forest of span records with
    worker-local ids, children listed before their parents (the order
    a buffering sink sees spans finish)."""
    count = draw(st.integers(min_value=1, max_value=12))
    records = []
    for span_id in range(1, count + 1):
        parent = None
        if span_id > 1:
            parent = draw(st.none()
                          | st.integers(min_value=1,
                                        max_value=span_id - 1))
        start = draw(st.floats(min_value=0.0, max_value=10.0,
                               allow_nan=False))
        duration = draw(st.floats(min_value=0.0, max_value=50.0,
                                  allow_nan=False))
        records.append({"id": span_id, "parent": parent,
                        "depth": 0, "name": f"span-{span_id}",
                        "start": start, "duration_ms": duration,
                        "attrs": {}})
    # Children finish before parents: ship deepest-first.
    return list(reversed(records))


class TestIngestProperties:
    @settings(max_examples=50, deadline=None)
    @given(records=span_forests())
    def test_count_structure_and_rebase(self, records):
        obs.disable()  # reset between hypothesis examples
        obs.enable()
        obs.clear_sinks()
        sink = obs.InMemorySink()
        obs.add_sink(sink)
        with obs.span("anchor") as anchor:
            ingested = trace.ingest_records(records, worker=1)
        assert ingested == len(records)

        by_name = {span_.name: span_ for span_ in sink.spans
                   if span_.name != "anchor"}
        assert len(by_name) == len(records)
        for record in records:
            rebuilt = by_name[f"span-{record['id']}"]
            # No rebase: perf_counter is system-wide, so a forked
            # worker's starts are already on this process's clock.
            assert rebuilt.start == record["start"]
            assert rebuilt.duration * 1e3 \
                == pytest.approx(record["duration_ms"], abs=1e-6)
            assert rebuilt.worker == 1
            # Shipment-local parent links survive; shipment tops hang
            # off the anchor.
            parent = record["parent"]
            if parent is None:
                assert rebuilt.parent_id == anchor.span_id
                assert rebuilt.depth == anchor.depth + 1
            else:
                assert rebuilt.parent_id \
                    == by_name[f"span-{parent}"].span_id
                assert rebuilt.depth \
                    == by_name[f"span-{parent}"].depth + 1

    @settings(max_examples=25, deadline=None)
    @given(records=span_forests())
    def test_ids_never_collide_with_local_spans(self, records):
        obs.disable()
        obs.enable()
        obs.clear_sinks()
        sink = obs.InMemorySink()
        obs.add_sink(sink)
        with obs.span("anchor"):
            trace.ingest_records(records, worker=0)
            with obs.span("local-after"):
                pass
        ids = [span_.span_id for span_ in sink.spans]
        assert len(ids) == len(set(ids))
