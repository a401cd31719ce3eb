"""Telemetry subsystem tests: registry, tracer, report, and the
instrumented trainer/runtime hot paths."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from repro import telemetry
from repro.sim.trace import Trace
from repro.telemetry import registry as registry_module
from repro.telemetry.registry import (
    DEFAULT_TIME_BUCKETS,
    DeltaReader,
    MetricsRegistry,
    series_deltas,
)
from repro.telemetry.tracer import TRACE_CAPACITY, Tracer


def _deltas(m: MetricsRegistry, reader: DeltaReader) -> dict[str, float]:
    """``reader``'s deltas since its last call, by series in registry order."""
    return series_deltas(m.scalar_deltas(reader))


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    """Each test starts from empty global metrics/trace and enabled state."""
    monkeypatch.setattr(telemetry, "enabled", True)
    telemetry.reset()
    yield
    telemetry.reset()


class TestRegistry:
    def test_counter_label_fanout(self):
        m = MetricsRegistry()
        m.counter("collective_bytes", op="reduce_scatter", axis="y").inc(100)
        m.counter("collective_bytes", op="reduce_scatter", axis="x").inc(40)
        m.counter("collective_bytes", axis="y", op="reduce_scatter").inc(1)
        assert m.value("collective_bytes", op="reduce_scatter", axis="y") == 101
        assert m.value("collective_bytes", op="reduce_scatter", axis="x") == 40
        assert m.total("collective_bytes") == 141
        snap = m.snapshot()
        assert len(snap["collective_bytes"]["values"]) == 2

    def test_label_order_is_canonical(self):
        m = MetricsRegistry()
        a = m.counter("c", x="1", y="2")
        b = m.counter("c", y="2", x="1")
        assert a is b

    def test_counter_rejects_negative(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            m.counter("c").inc(-1)

    def test_kind_mismatch_rejected(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        with pytest.raises(ValueError):
            m.gauge("c")

    def test_gauge(self):
        m = MetricsRegistry()
        g = m.gauge("hbm", device="0,0")
        g.set(5.0)
        g.inc(2.0)
        g.inc(-1.0)
        assert m.value("hbm", device="0,0") == 6.0

    def test_label_cardinality_guard(self):
        m = MetricsRegistry(max_children=3)
        for i in range(3):
            m.counter("bytes", device=str(i)).inc(1)
        # Saturated: new label sets collapse into the shared overflow child.
        m.counter("bytes", device="3").inc(5)
        m.counter("bytes", device="4").inc(7)
        assert m.value("bytes", overflow="true") == 12
        assert m.value(
            "telemetry_label_overflow", metric="bytes"
        ) == 2
        # Established children keep working past saturation.
        m.counter("bytes", device="1").inc(10)
        assert m.value("bytes", device="1") == 11
        # The family never grows past max_children + the overflow child.
        snap = m.snapshot()
        assert len(snap["bytes"]["values"]) <= 3 + 1

    def test_label_guard_spares_unlabeled_child(self):
        m = MetricsRegistry(max_children=1)
        m.counter("c", x="a").inc()
        # The unlabeled child is the family's identity series, never routed
        # to overflow.
        m.counter("c").inc(3)
        assert m.value("c") == 3

    def test_label_guard_overflow_counter_does_not_recurse(self):
        m = MetricsRegistry(max_children=1)
        for i in range(5):
            m.counter("c", x=str(i)).inc()
        # telemetry_label_overflow itself saturates without re-counting.
        assert m.total("telemetry_label_overflow") == 4

    def test_scalar_children_snapshot(self):
        m = MetricsRegistry()
        m.counter("bytes", op="ar").inc(7)
        m.gauge("loss").set(0.25)
        m.histogram("lat").observe(1.0)  # histograms excluded
        children = m.scalar_children()
        assert ("bytes", (("op", "ar"),), 7.0) in children
        assert ("loss", (), 0.25) in children
        assert all(name != "lat" for name, _, _ in children)

    def test_scalar_deltas_first_call_then_only_changes(self):
        m = MetricsRegistry()
        m.counter("bytes", op="ar", axis="y").inc(7)
        m.gauge("loss").set(0.25)
        m.counter("untouched")  # created, never written: no delta
        m.histogram("lat").observe(1.0)  # histograms excluded
        reader = DeltaReader()
        assert _deltas(m, reader) == {"bytes{axis=y,op=ar}": 7.0, "loss": 0.25}
        assert _deltas(m, reader) == {}
        m.gauge("loss").set(0.25)  # written, but to the same value
        m.counter("bytes", op="ar", axis="y").inc(2)
        m.gauge("depth").inc(-3)
        assert _deltas(m, reader) == {"bytes{axis=y,op=ar}": 2.0, "depth": -3.0}

    def test_idle_scalar_deltas_skip_the_lock(self):
        """A reader with nothing written since its last call (the usual
        accounting-mode step) is answered before the lock is taken."""
        m = MetricsRegistry()
        reader = DeltaReader()
        m.counter("c").inc()
        assert _deltas(m, reader) == {"c": 1.0}

        class Untouchable:
            def __enter__(self):
                raise AssertionError("an idle drain took the lock")

            def __exit__(self, *exc):
                return None

        lock, m._lock = m._lock, Untouchable()
        assert m.scalar_deltas(reader) == []
        m._lock = lock
        m.counter("c").inc(2)
        assert _deltas(m, reader) == {"c": 2.0}

    def test_scalar_deltas_keys_in_creation_order(self):
        """Key order is the registry's iteration order (family, then child),
        not the order of the writes."""
        m = MetricsRegistry()
        for name, labels in (("a", {"d": "0"}), ("b", {}), ("a", {"d": "1"})):
            m.counter(name, **labels)
        reader = DeltaReader()
        m.scalar_deltas(reader)
        m.counter("a", d="1").inc()
        m.counter("b").inc()
        m.counter("a", d="0").inc()
        assert list(_deltas(m, reader)) == ["a{d=0}", "a{d=1}", "b"]

    def test_scalar_deltas_are_per_reader(self):
        m = MetricsRegistry()
        first, second = DeltaReader(), DeltaReader()
        m.counter("c").inc(5)
        assert _deltas(m, first) == {"c": 5.0}
        m.counter("c").inc(1)
        m.gauge("g").set(2.0)
        # ``first`` drained the write marks twice; ``second`` still sees
        # everything since its own (first) call, ``first`` only the rest.
        assert _deltas(m, first) == {"c": 1.0, "g": 2.0}
        assert _deltas(m, second) == {"c": 6.0, "g": 2.0}
        m.counter("c").inc(3)
        assert _deltas(m, second) == {"c": 3.0}
        assert _deltas(m, first) == {"c": 3.0}

    def test_scalar_deltas_after_reset_start_from_zero(self):
        """A child re-created after reset() is a new series: its delta is
        its value, never the difference to the dropped child's."""
        m = MetricsRegistry()
        reader = DeltaReader()
        stale = m.counter("c")
        stale.inc(5)
        assert _deltas(m, reader) == {"c": 5.0}
        m.reset()
        m.counter("c").inc(1)
        stale.inc(10)  # a child the registry dropped is no longer reported
        assert _deltas(m, reader) == {"c": 1.0}

    def test_histogram_bucket_edges(self):
        m = MetricsRegistry()
        h = m.histogram("lat", buckets=[1.0, 10.0, 100.0])
        # le semantics: a value equal to an upper bound lands in that bucket.
        h.observe(0.5)    # <= 1.0
        h.observe(1.0)    # <= 1.0 (edge)
        h.observe(1.0001) # <= 10.0
        h.observe(10.0)   # <= 10.0 (edge)
        h.observe(100.0)  # <= 100.0 (edge)
        h.observe(1e6)    # +inf overflow
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.sum == pytest.approx(0.5 + 1.0 + 1.0001 + 10.0 + 100.0 + 1e6)
        assert h.mean == pytest.approx(h.sum / 6)

    def test_histogram_default_buckets(self):
        m = MetricsRegistry()
        h = m.histogram("t")
        assert h.buckets == DEFAULT_TIME_BUCKETS

    def test_histogram_bucket_respec_rejected(self):
        m = MetricsRegistry()
        m.histogram("t", buckets=[1.0, 2.0])
        with pytest.raises(ValueError):
            m.histogram("t", buckets=[1.0, 3.0])
        with pytest.raises(ValueError):
            m.histogram("u", buckets=[2.0, 1.0])

    def test_snapshot_json_round_trip(self):
        m = MetricsRegistry()
        m.counter("bytes", op="ag").inc(7)
        m.histogram("s", buckets=[1.0]).observe(0.5)
        decoded = json.loads(m.to_json())
        assert decoded["bytes"]["type"] == "counter"
        assert decoded["bytes"]["values"][0] == {"labels": {"op": "ag"}, "value": 7.0}
        assert decoded["s"]["values"][0]["counts"] == [1, 0]

    def test_reset(self):
        m = MetricsRegistry()
        m.counter("c").inc(3)
        m.reset()
        assert m.value("c") == 0.0
        assert m.snapshot() == {}

    def test_cached_lookup_returns_the_canonical_child(self):
        """Repeated calls hit the interned raw call; any spelling of the
        same label set still reaches the one child."""
        m = MetricsRegistry()
        child = m.counter("c", x="3", y="2")
        assert m.counter("c", x="3", y="2") is child
        assert ("counter", "c", ("x", "3"), ("y", "2")) in registry_module._ids
        assert m.counter("c", y="2", x="3") is child
        assert m.counter("c", x=3, y="2") is child
        assert m.counter("c", x=3, y="2") is child
        # Equal values that stringify differently stay different series.
        assert m.counter("f", on=1) is not m.counter("f", on=True)
        assert m.counter("f", on="1") is m.counter("f", on=1)

    def test_reset_forgets_cached_children(self):
        m = MetricsRegistry()
        stale = m.counter("c", x="1")
        assert m.counter("c", x="1") is stale
        m.reset()
        fresh = m.counter("c", x="1")
        assert fresh is not stale
        fresh.inc(2)
        assert m.value("c", x="1") == 2

    def test_clashes_still_raise_after_caching(self):
        m = MetricsRegistry()
        for _ in range(2):
            m.counter("c", x="1")
            m.gauge("g")
            m.histogram("h", buckets=[1.0, 2.0])
            m.histogram("h")
        with pytest.raises(ValueError):
            m.gauge("c", x="1")
        with pytest.raises(ValueError):
            m.counter("g")
        with pytest.raises(ValueError):
            m.histogram("h", buckets=[1.0, 3.0])
        assert m.histogram("h", buckets=[1.0, 2.0]) is m.histogram("h")

    def test_unhashable_label_value_takes_the_canonical_path(self):
        m = MetricsRegistry()
        child = m.counter("c", shape=[2, 2])
        assert m.counter("c", shape=[2, 2]) is child
        assert m.counter("c", shape="[2, 2]") is child
        child.inc(3)
        assert m.value("c", shape=[2, 2]) == 3

    def test_overflowed_label_set_counts_on_every_call(self):
        """An overflowed set is never remembered: each lookup adds to
        telemetry_label_overflow, as every lookup always did."""
        m = MetricsRegistry(max_children=2)
        m.counter("bytes", device="0")
        m.counter("bytes", device="1")
        for _ in range(3):
            m.counter("bytes", device="2").inc()
        assert m.value("telemetry_label_overflow", metric="bytes") == 3
        assert m.value("bytes", overflow="true") == 3
        assert m.counter("bytes", device="1") is m.counter("bytes", device="1")

    def test_a_saturated_family_interns_no_overflowed_label_set(self):
        """Past ``max_children`` a new label set finds the overflow child
        but gets no series id: the id would skip the guard counter."""
        m = MetricsRegistry(max_children=2)
        for device in ("0", "1", "2", "3"):
            m.counter("saturated_bytes", device=device).inc()
        interned = registry_module._ids
        assert ("counter", "saturated_bytes", ("device", "1")) in interned
        assert ("counter", "saturated_bytes", ("device", "2")) not in interned
        assert ("counter", "saturated_bytes", ("device", "3")) not in interned
        m.counter("saturated_bytes", device="2").inc()
        assert m.value("telemetry_label_overflow", metric="saturated_bytes") == 3
        assert m.value("saturated_bytes", overflow="true") == 3

    def test_collector_runs_at_snapshot(self):
        m = MetricsRegistry()
        m.register_collector(lambda reg: reg.gauge("pulled").set(42.0))
        snap = m.snapshot()
        assert snap["pulled"]["values"][0]["value"] == 42.0


class TestTracer:
    def _fake_clock(self, times):
        it = iter(times)
        return lambda: next(it)

    def test_span_records_event(self):
        clock = self._fake_clock([0.0, 1.0, 3.5])
        tr = Tracer(clock=clock, actor="dev0")
        with tr.span("all_reduce", category="comm"):
            pass
        (e,) = tr.trace.events
        assert (e.actor, e.name, e.category) == ("dev0", "all_reduce", "comm")
        assert e.start == pytest.approx(1.0)
        assert e.duration == pytest.approx(2.5)
        assert e.source == "measured"

    def test_nesting(self):
        clock = self._fake_clock([0.0, 1.0, 2.0, 3.0, 4.0])
        tr = Tracer(clock=clock)
        with tr.span("step", category="step"):
            assert tr.depth == 1
            with tr.span("collective", category="comm"):
                assert tr.depth == 2
        assert tr.depth == 0
        inner, outer = tr.trace.events  # children close (record) first
        assert inner.name == "collective"
        assert outer.name == "step"
        # Child interval nested within the parent interval.
        assert outer.start <= inner.start
        assert inner.end <= outer.end

    def test_disabled_span_is_noop(self):
        tr = Tracer()
        with telemetry.disabled():
            span = tr.span("x")
            with span:
                pass
        assert tr.trace.events == []
        assert tr.span("x") is not span  # live span once re-enabled

    def test_disabled_context_manager_restores(self):
        assert telemetry.enabled
        with telemetry.disabled():
            assert not telemetry.enabled
        assert telemetry.enabled

    def test_reset_restarts_epoch(self):
        clock = self._fake_clock([0.0, 10.0, 11.0, 12.0])
        tr = Tracer(clock=clock)
        tr.reset()  # epoch -> 10.0
        with tr.span("a"):
            pass
        (e,) = tr.trace.events
        assert e.start == pytest.approx(1.0)


    def test_span_list_is_bounded_to_the_newest(self):
        """A long-lived tracer keeps its newest spans; sinks see them all."""
        ticks = itertools.count()
        tr = Tracer(clock=lambda: float(next(ticks)))
        seen = []
        tr.add_sink(seen.extend)
        total = 3 * TRACE_CAPACITY
        for i in range(total):
            with tr.span(f"s{i}"):
                pass
            assert len(tr.trace.events) <= 2 * TRACE_CAPACITY
        events = tr.trace.events
        assert TRACE_CAPACITY <= len(events) <= 2 * TRACE_CAPACITY
        assert [e.name for e in events] == [
            f"s{i}" for i in range(total - len(events), total)
        ]
        assert len(seen) == total
        assert seen[-len(events):] == events
        tr.reset()
        assert tr.trace.events == []


class TestTraceMergeAndExport:
    def test_merge_retags_source(self):
        sim = Trace()
        sim.record("torus", "rs", 0.0, 1.0, "comm")
        measured = Trace()
        measured.record("trainer", "rs", 0.0, 1.2, "comm", source="measured")
        merged = Trace().merge(measured).merge(sim, source="sim")
        assert merged.sources() == ["measured", "sim"]
        assert len(merged.events) == 2
        # merge without retag keeps original sources
        again = Trace().merge(merged)
        assert again.sources() == ["measured", "sim"]

    def test_busy_time_clamps_overlap(self):
        t = Trace()
        t.record("a", "parent", 0.0, 4.0)
        t.record("a", "child", 1.0, 2.0)   # fully inside parent
        t.record("a", "tail", 3.0, 3.0)    # partial overlap
        t.record("a", "late", 10.0, 1.0)   # disjoint
        assert t.busy_time("a") == pytest.approx(7.0)  # [0,6] + [10,11]
        assert t.busy_time("b") == 0.0

    def test_utilization_never_exceeds_one(self):
        t = Trace()
        t.record("a", "x", 0.0, 2.0)
        t.record("a", "y", 0.0, 2.0)
        assert t.utilization("a") == pytest.approx(1.0)

    def test_chrome_trace_round_trip(self):
        t = Trace()
        t.record("chip0", "step", 0.001, 0.002, "compute", source="measured")
        t.record("torus", "rs", 0.0, 0.004, "comm", source="sim")
        events = json.loads(json.dumps(t.to_chrome_trace()))
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert {m["args"]["name"] for m in meta} == {"measured", "sim"}
        pid_of = {m["args"]["name"]: m["pid"] for m in meta}
        by_name = {e["name"]: e for e in spans}
        assert by_name["step"]["pid"] == pid_of["measured"]
        assert by_name["rs"]["pid"] == pid_of["sim"]
        assert by_name["step"]["args"] == {"actor": "chip0", "category": "compute"}
        assert by_name["step"]["ts"] == pytest.approx(1000.0)
        assert by_name["step"]["dur"] == pytest.approx(2000.0)

    def test_chrome_trace_default_source_lane(self):
        t = Trace()
        t.record("a", "x", 0.0, 1.0)
        events = t.to_chrome_trace()
        assert events[0]["ph"] == "M"
        assert events[0]["args"]["name"] == "trace"
        assert events[1]["pid"] == 0


class TestInstrumentedTrainers:
    def _train(self, trainer_cls, **kw):
        from repro.models.mlp import MLP
        from repro.optim.sgd import SGDMomentum

        rng = np.random.default_rng(0)
        model = MLP([8, 16, 4])
        trainer = trainer_cls(model, SGDMomentum(0.05), **kw)
        trainer.init(rng)
        x = rng.standard_normal((16, 8))
        labels = rng.integers(0, 4, size=16)

        def batches():
            while True:
                yield x, labels

        trainer.train(batches(), steps=2)
        return trainer

    def test_data_parallel_span_categories_and_bytes(self):
        from repro.core.data_parallel import DataParallelTrainer
        from repro.runtime.collectives import padded_chunk_layout

        trainer = self._train(DataParallelTrainer, dp_x=2, dp_y=2)
        cats = {e.category for e in telemetry.tracer.trace.events}
        assert {"step", "input", "compute", "comm", "update"} <= cats
        names = {e.name for e in telemetry.tracer.trace.events}
        assert {"train_step", "split", "forward_backward", "collective",
                "update", "two_phase_all_reduce"} <= names
        m = telemetry.metrics
        assert m.value("train_steps", trainer="DataParallelTrainer") == 2
        # Exact traffic for the known mesh/bucket size: 2x2 grid, f64 wire.
        size = trainer._plan.buckets[0].size
        _, y_chunk = padded_chunk_layout(2, size)
        _, x_chunk = padded_chunk_layout(2, y_chunk)
        steps = 2
        expected_y = steps * 2 * 1 * (2 * y_chunk) * 8
        expected_x = steps * 2 * 1 * (2 * x_chunk) * 8
        assert m.value(
            "collective_bytes", op="reduce_scatter", axis="y", policy="f64"
        ) == expected_y
        assert m.value(
            "collective_bytes", op="reduce_scatter", axis="x", policy="f64"
        ) == expected_x
        assert m.value("collective_bytes", op="all_gather", axis="x", policy="f64") > 0
        hist = m.histogram("step_seconds", trainer="DataParallelTrainer")
        assert hist.count == 2
        assert hist.sum > 0

    def test_wus_trainer_snapshot(self):
        """Acceptance: a WUS run yields nonzero collective_bytes,
        bucket_flatten_seconds, and per-step histograms."""
        from repro.core.weight_update_sharding import WeightUpdateShardedTrainer

        self._train(WeightUpdateShardedTrainer, num_replicas=8)
        m = telemetry.metrics
        assert m.total("collective_bytes") > 0
        assert m.value("bucket_flatten_seconds") > 0
        assert m.value("bucket_segment_cache_hits") > 0
        hist = m.histogram("step_seconds", trainer="WeightUpdateShardedTrainer")
        assert hist.count == 2
        names = {e.name for e in telemetry.tracer.trace.events}
        assert {"train_step", "wus_update", "sharded_update",
                "ring_reduce_scatter", "ring_all_gather"} <= names

    def test_disabled_training_records_nothing(self):
        from repro.core.data_parallel import DataParallelTrainer

        with telemetry.disabled():
            self._train(DataParallelTrainer, dp_x=2, dp_y=1)
        # Only the pull-style cache gauges (snapshot-time collectors) may
        # appear; no per-call metric was recorded.
        families = {
            name for name in telemetry.metrics.snapshot()
            if not name.startswith(
                ("padding_layout_cache", "scratch_pool_cache")
            )
        }
        assert families == set()
        assert telemetry.tracer.trace.events == []


class TestInstrumentedRuntime:
    def test_mesh_traffic_and_allreduce_span(self):
        from repro.runtime.mesh import VirtualMesh

        mesh = VirtualMesh(2, 2)
        mesh.put("w", (0, 0), np.ones(4, dtype=np.float32))
        mesh.put_replicated("g", np.ones(8, dtype=np.float32))
        mesh.all_reduce("g")
        m = telemetry.metrics
        assert m.value("mesh_put_bytes", device=(0, 0)) >= 16
        assert m.value("mesh_put_bytes", device="replicated") == 4 * 8 * 4
        assert m.total("mesh_get_bytes") > 0
        assert m.value("mesh_allreduce_launches", schedule="2d") == 1
        assert "mesh_all_reduce" in {e.name for e in telemetry.tracer.trace.events}

    def test_sim_schedule_phase_attribution(self):
        from repro.comm.schedule import simulate_ring_reduce_scatter
        from repro.hardware.rings import y_ring
        from repro.hardware.topology import TorusMesh

        mesh = TorusMesh(1, 4, wrap_y=True)
        modeled = simulate_ring_reduce_scatter(mesh, y_ring(mesh, 0), 1e6)
        m = telemetry.metrics
        assert m.value("sim_phase_modeled_seconds", phase="reduce_scatter") == (
            pytest.approx(modeled)
        )
        assert m.value("sim_phase_wall_seconds", phase="reduce_scatter") > 0
        assert m.value("sim_phase_runs", phase="reduce_scatter") == 1

    def test_input_pipeline_stall_counters(self):
        from repro.input_pipeline.host import simulate_host_pipeline
        from repro.input_pipeline.stages import PipelineStage

        slow = PipelineStage("slow", lambda rng: 1.0)
        result = simulate_host_pipeline(
            [slow], batch_per_host=2, device_step_seconds=1e-3,
            steps=3, workers=1, prefetch_batches=1.0,
        )
        m = telemetry.metrics
        assert m.value("input_prefetch_stall_seconds") == pytest.approx(
            result.stall_seconds
        )
        assert m.value("input_device_steps") == 3
        assert m.value("input_stall_fraction") == pytest.approx(
            result.stall_fraction
        )

    def test_padding_cache_collector(self):
        from repro.runtime.collectives import ring_all_reduce

        ring_all_reduce([np.ones(10), np.ones(10)])
        snap = telemetry.metrics.snapshot()
        assert "padding_layout_cache_size" in snap
        assert snap["padding_layout_cache_size"]["values"][0]["value"] >= 1


class TestReport:
    def test_breakdown_and_chrome_merge(self, tmp_path):
        from repro.telemetry import report

        sim_trace = report.demo_run(x_size=4, y_size=2, steps=2)
        text = report.step_breakdown()
        assert "train_step" in text
        assert "collective_bytes" in text
        out = tmp_path / "trace.json"
        report.write_chrome_trace(str(out), sim_trace=sim_trace)
        data = json.loads(out.read_text())
        events = data["traceEvents"]
        lanes = {e["args"]["name"] for e in events if e["ph"] == "M"}
        assert lanes == {"measured", "sim"}
        assert any(e["ph"] == "C" for e in events)
        assert any(e["ph"] == "X" and e["name"] == "train_step" for e in events)

    def test_cli_main(self, tmp_path, capsys):
        from repro.telemetry import report

        trace_out = tmp_path / "t.json"
        metrics_out = tmp_path / "m.json"
        rc = report.main([
            "--mesh", "2x2", "--steps", "1",
            "--trace-out", str(trace_out),
            "--metrics-out", str(metrics_out),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "telemetry report" in captured.out
        assert trace_out.exists()
        snap = json.loads(metrics_out.read_text())
        assert snap["collective_bytes"]["type"] == "counter"

    def test_cli_notes_missing_failure_counters_and_exits_zero(
        self, tmp_path, capsys
    ):
        """A run with no chaos/control-plane activity degrades gracefully:
        the report says so instead of erroring, and still exits 0."""
        from repro.telemetry import report

        rc = report.main([
            "--mesh", "2x2", "--steps", "1",
            "--trace-out", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "no resilience_* or controlplane_* counters" in captured.out

    def test_cli_notes_missing_service_counters_and_exits_zero(
        self, tmp_path, capsys
    ):
        """A run with no simulation-service activity gets the same
        graceful note (exit 0) the control-plane counters get."""
        from repro.telemetry import report

        rc = report.main([
            "--mesh", "2x2", "--steps", "1",
            "--trace-out", str(tmp_path / "t.json"),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "no service_* counters" in captured.out
        assert "repro-service load" in captured.out

    def test_breakdown_lists_whatever_the_registry_holds(self):
        """The report has no per-subsystem name list: a cluster run's
        counters and a family under a never-seen prefix both appear."""
        from repro.cluster import ClusterConfig, JobSpec, run_cluster
        from repro.telemetry import report

        specs = [
            JobSpec(name=name, slice_shape=(1, 1), target_steps=2)
            for name in ("a", "b")
        ]
        run_cluster(specs, ClusterConfig(mesh_shape=(2, 1)))
        telemetry.metrics.counter("brandnew_widgets", shape="round").inc(3)
        telemetry.metrics.histogram("brandnew_latency_seconds").observe(0.1)
        lines = report.step_breakdown().splitlines()
        listed = {line.split()[0]: line.split()[-1] for line in lines if line}
        assert listed["cluster_steps{tenant=a}"] == "2"
        assert listed["cluster_steps{tenant=b}"] == "2"
        assert listed["cluster_free_chips"] == "2"
        assert listed["brandnew_widgets{shape=round}"] == "3"
        assert not any(name.startswith("brandnew_latency") for name in listed)
        families = [
            line.split()[0].split("{")[0]
            for line in lines[lines.index("counters") + 2:]
        ]
        assert families == sorted(families)

    def test_breakdown_lists_service_counters_when_present(self):
        """service_* counters recorded by a live service land in the
        headline-counter block of the step breakdown."""
        from repro.service import ServiceConfig, SimJob, SimulationService
        from repro.telemetry import report

        config = ServiceConfig(concurrency=1, queue_depth=4, cache_entries=4)
        with SimulationService(config) as svc:
            svc.submit(SimJob("steptime", {"chips": 64})).result()
            svc.submit(SimJob("steptime", {"chips": 64})).result()  # hit
        text = report.step_breakdown()
        assert "service_submitted" in text
        assert "service_cache_hits" in text
