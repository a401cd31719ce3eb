"""Critical-path analyzer tests: exact attribution partitioning, the
bottleneck chain walk, and per-actor slack — on synthetic traces and on
real DES overlap schedules."""

from __future__ import annotations

import pytest

from repro.core.overlap import simulate_overlap_schedule
from repro.sim.trace import Trace
from repro.telemetry.critical_path import (
    BUCKETS,
    Attribution,
    analyze,
    attribute,
    critical_path,
    device_slack,
    format_result,
)


def _trace(*events) -> Trace:
    """events: (actor, name, start, duration, category) tuples."""
    t = Trace()
    for actor, name, start, dur, cat in events:
        t.record(actor, name, start, dur, category=cat)
    return t


class TestAttribution:
    def test_buckets_partition_window_exactly(self):
        t = _trace(
            ("mxu", "fwd", 0.0, 2.0, "compute"),
            ("ici", "ar0", 1.0, 2.5, "comm"),
            ("host", "fill", 4.0, 1.0, "input"),
        )
        att = attribute(t, window=(0.0, 6.0))
        assert att.buckets["compute"] == pytest.approx(1.0)
        assert att.buckets["hidden_comm"] == pytest.approx(1.0)
        assert att.buckets["exposed_comm"] == pytest.approx(1.5)
        assert att.buckets["input_stall"] == pytest.approx(1.0)
        assert att.buckets["idle"] == pytest.approx(1.5)
        assert att.total == pytest.approx(att.window_seconds, rel=0, abs=0)

    def test_each_bucket_classifies(self):
        t = _trace(
            ("mxu", "fwd", 0.0, 1.0, "compute"),
            ("ici", "ar", 0.5, 1.0, "comm"),
            ("host", "batch", 2.0, 1.0, "input"),
            ("ctrl", "sync", 3.0, 1.0, "barrier"),
            ("??", "mystery", 4.0, 1.0, "weird_category"),
        )
        att = attribute(t, window=(0.0, 6.0))
        assert att.buckets["compute"] == pytest.approx(0.5)
        assert att.buckets["hidden_comm"] == pytest.approx(0.5)
        assert att.buckets["exposed_comm"] == pytest.approx(0.5)
        assert att.buckets["input_stall"] == pytest.approx(1.0)
        assert att.buckets["barrier_wait"] == pytest.approx(1.0)
        assert att.buckets["other"] == pytest.approx(1.0)
        assert att.buckets["idle"] == pytest.approx(1.5)  # 1.5-2.0 plus 5.0-6.0
        assert set(att.buckets) == set(BUCKETS)

    def test_update_counts_as_compute_and_containers_excluded(self):
        t = _trace(
            ("mxu", "train_step", 0.0, 3.0, "step"),  # container: ignored
            ("mxu", "opt", 0.0, 1.0, "update"),
        )
        att = attribute(t, window=(0.0, 3.0))
        assert att.buckets["compute"] == pytest.approx(1.0)
        assert att.buckets["idle"] == pytest.approx(2.0)

    def test_events_clamped_to_window(self):
        t = _trace(("mxu", "fwd", -1.0, 4.0, "compute"))
        att = attribute(t, window=(0.0, 2.0))
        assert att.buckets["compute"] == pytest.approx(2.0)
        assert att.total == pytest.approx(2.0)

    def test_empty_trace(self):
        att = attribute(Trace())
        assert att.total == 0.0
        att = attribute(Trace(), window=(0.0, 5.0))
        assert att.buckets["idle"] == pytest.approx(5.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            attribute(Trace(), window=(1.0, 0.0))

    def test_source_filter(self):
        t = Trace()
        t.record("mxu", "a", 0.0, 1.0, category="compute", source="sim")
        t.record("mxu", "b", 0.0, 2.0, category="compute", source="measured")
        att = attribute(t, window=(0.0, 2.0), source="sim")
        assert att.buckets["compute"] == pytest.approx(1.0)

    def test_fraction(self):
        att = Attribution({"compute": 1.0, "idle": 3.0}, (0.0, 4.0))
        assert att.fraction("compute") == pytest.approx(0.25)


class TestDesTraces:
    @pytest.mark.parametrize(
        "ready,comm,compute_end",
        [
            ([0.0], [1.0], 2.0),                       # fully hidden
            ([0.0, 0.5, 1.0], [0.8, 0.8, 0.8], 1.2),   # queued, partly exposed
            ([0.0, 1.0, 2.0, 3.0], [0.1] * 4, 4.0),    # tiny collectives
            ([2.0], [5.0], 2.0),                       # fully exposed tail
        ],
    )
    def test_buckets_sum_to_step_time(self, ready, comm, compute_end):
        ov = simulate_overlap_schedule(ready, comm, compute_end)
        att = attribute(ov.trace)
        assert att.total == pytest.approx(att.window_seconds, rel=1e-9)
        assert att.window_seconds == pytest.approx(ov.step_seconds, rel=1e-9)

    def test_exposed_matches_overlap_result(self):
        ov = simulate_overlap_schedule(
            [0.0, 0.4, 0.9, 1.1], [0.5, 0.6, 0.2, 0.7], 1.3
        )
        att = attribute(ov.trace)
        assert att.buckets["exposed_comm"] == pytest.approx(
            ov.exposed_comm_seconds, abs=1e-12
        )
        assert att.buckets["hidden_comm"] == pytest.approx(
            ov.hidden_comm_seconds, abs=1e-12
        )


class TestCriticalPath:
    def test_chain_follows_latest_predecessor(self):
        t = _trace(
            ("mxu", "fwd", 0.0, 1.0, "compute"),
            ("mxu", "bwd", 1.0, 1.0, "compute"),
            ("ici", "ar", 2.0, 2.0, "comm"),
        )
        path = critical_path(t)
        assert [s.event.name for s in path] == ["fwd", "bwd", "ar"]
        assert all(s.wait_s == 0.0 for s in path)

    def test_wait_gap_surfaces(self):
        t = _trace(
            ("mxu", "fwd", 0.0, 1.0, "compute"),
            ("ici", "ar", 2.5, 1.0, "comm"),
        )
        path = critical_path(t)
        assert [s.event.name for s in path] == ["fwd", "ar"]
        assert path[-1].wait_s == pytest.approx(1.5)

    def test_same_actor_contact_preferred(self):
        t = _trace(
            ("ici", "ar0", 0.0, 1.0, "comm"),
            ("mxu", "bwd", 0.0, 1.0, "compute"),
            ("ici", "ar1", 1.0, 1.0, "comm"),
        )
        path = critical_path(t)
        # Both end at ar1.start; the serialized ici channel wins the tie.
        assert [s.event.name for s in path] == ["ar0", "ar1"]

    def test_path_time_bounded_by_makespan(self):
        ov = simulate_overlap_schedule(
            [0.0, 0.3, 0.7], [0.5, 0.5, 0.5], 1.0
        )
        result = analyze(ov.trace)
        path_seconds = sum(s.event.duration + s.wait_s for s in result.path)
        assert path_seconds <= result.makespan + 1e-12
        assert result.path[-1].event.end == pytest.approx(result.makespan)

    def test_empty(self):
        assert critical_path(Trace()) == ()

    def test_zero_duration_ties_terminate(self):
        # Two zero-duration events at one timestamp satisfy each other's
        # predecessor condition (end <= start + eps); the walk must not
        # ping-pong between them forever.
        t = _trace(
            ("a", "tick", 1.0, 0.0, "compute"),
            ("b", "tock", 1.0, 0.0, "compute"),
        )
        path = critical_path(t)
        assert 1 <= len(path) <= 2
        assert path[-1].event.start == 1.0

    def test_zero_duration_ties_inside_longer_chain(self):
        # Zero-duration markers between real spans must not trap the walk
        # or break the chain through them.
        t = _trace(
            ("mxu", "fwd", 0.0, 1.0, "compute"),
            ("ctrl", "mark0", 1.0, 0.0, "barrier"),
            ("ctrl", "mark1", 1.0, 0.0, "barrier"),
            ("ici", "ar", 1.0, 2.0, "comm"),
        )
        path = critical_path(t)
        assert path[-1].event.name == "ar"
        assert len(path) <= 4
        # An event appears at most once on the chain.
        names = [s.event.name for s in path]
        assert len(names) == len(set(names))


class TestSlack:
    def test_slack_identifies_idle_actor(self):
        t = _trace(
            ("mxu", "fwd", 0.0, 4.0, "compute"),
            ("ici", "ar", 3.0, 1.0, "comm"),
        )
        slack = device_slack(t)
        assert slack["mxu"] == pytest.approx(0.0)
        assert slack["ici"] == pytest.approx(3.0)

    def test_empty(self):
        assert device_slack(Trace()) == {}


class TestAnalyzeAndFormat:
    def test_to_json_round_trips(self):
        import json

        ov = simulate_overlap_schedule([0.0, 0.5], [0.4, 0.9], 1.0)
        result = analyze(ov.trace)
        blob = json.loads(json.dumps(result.to_json()))
        assert blob["makespan_seconds"] == pytest.approx(ov.step_seconds)
        total = sum(blob["attribution"]["buckets"].values())
        assert total == pytest.approx(blob["attribution"]["window_seconds"], rel=1e-9)
        assert blob["critical_path"]
        assert "slack" in blob

    def test_format_renders(self):
        ov = simulate_overlap_schedule([0.0], [2.0], 1.0)
        text = format_result(analyze(ov.trace))
        assert "exposed_comm" in text
        assert "critical path" in text
        assert "per-actor slack" in text
