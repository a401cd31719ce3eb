"""Trace collection tests."""

import pytest

from repro.sim.trace import Trace, TraceEvent


class TestTrace:
    def test_record_and_busy_time(self):
        t = Trace()
        t.record("chip0", "compute", 0.0, 2.0, "compute")
        t.record("chip0", "allreduce", 2.0, 1.0, "comm")
        t.record("chip1", "compute", 0.0, 3.0, "compute")
        assert t.busy_time("chip0") == pytest.approx(3.0)
        assert t.busy_time("chip1") == pytest.approx(3.0)

    def test_busy_time_overlapping_spans_counted_once(self):
        t = Trace()
        t.record("chip0", "outer", 0.0, 4.0)
        t.record("chip0", "inner", 1.0, 2.0)
        t.record("chip0", "straddle", 3.5, 2.0)
        assert t.busy_time("chip0") == pytest.approx(5.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            Trace().record("a", "x", 0.0, -1.0)

    def test_span(self):
        t = Trace()
        t.record("a", "x", 1.0, 2.0)
        t.record("b", "y", 0.5, 1.0)
        assert t.span() == (0.5, 3.0)

    def test_empty_span(self):
        assert Trace().span() == (0.0, 0.0)

    def test_utilization(self):
        t = Trace()
        t.record("a", "x", 0.0, 1.0)
        t.record("b", "y", 0.0, 4.0)
        assert t.utilization("a") == pytest.approx(0.25)
        assert t.utilization("b") == pytest.approx(1.0)

    def test_actors_sorted(self):
        t = Trace()
        t.record("b", "x", 0, 1)
        t.record("a", "x", 0, 1)
        assert t.actors() == ["a", "b"]

    def test_chrome_trace_format(self):
        t = Trace()
        t.record("chip0", "step", 0.001, 0.002, "compute")
        meta, event = t.to_chrome_trace()
        assert meta["ph"] == "M"
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1000.0)
        assert event["dur"] == pytest.approx(2000.0)
        assert event["tid"] == "chip0"
        assert event["args"] == {"actor": "chip0", "category": "compute"}

    def test_merge_and_source_pids(self):
        sim = Trace()
        sim.record("torus", "rs", 0.0, 1.0, "comm")
        measured = Trace()
        measured.record("trainer", "rs", 0.0, 1.5, "comm", source="measured")
        merged = Trace().merge(sim, source="sim").merge(measured)
        assert merged.sources() == ["measured", "sim"]
        spans = [e for e in merged.to_chrome_trace() if e["ph"] == "X"]
        assert len({e["pid"] for e in spans}) == 2

    def test_event_end(self):
        e = TraceEvent("a", "x", 1.0, 2.0)
        assert e.end == pytest.approx(3.0)
