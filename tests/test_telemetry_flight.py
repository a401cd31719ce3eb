"""Flight recorder tests: ring bounds, concurrent writers, postmortem
bundles, and the end-to-end chip-death acceptance path."""

from __future__ import annotations

import gc
import itertools
import json
import sys
import threading
import time
import weakref

import pytest

from repro import telemetry
from repro.telemetry.flight import (
    DEFAULT_CAPACITY,
    POSTMORTEM_SCHEMA,
    FlightRecorder,
    on_terminal_failure,
)
from repro.telemetry.registry import DeltaReader, MetricsRegistry, _ScalarChild
from repro.telemetry.tracer import Tracer


def _delta_payloads(rec: FlightRecorder) -> list[dict]:
    return [r.data["deltas"] for r in rec.records if r.kind == "counters"]


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.enable()
    telemetry.reset()
    yield
    telemetry.enable()
    telemetry.reset()


class TestRingBounds:
    def test_ring_never_exceeds_capacity(self):
        rec = FlightRecorder(capacity=8)
        for i in range(100):
            rec.record("span", f"op{i}", i=i)
            assert len(rec) <= 8
        records = rec.records
        assert len(records) == 8
        # Oldest dropped, newest kept, order preserved.
        assert [r.data["i"] for r in records] == list(range(92, 100))

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_capacity_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_CAPACITY", "17")
        assert FlightRecorder().capacity == 17
        monkeypatch.setenv("REPRO_FLIGHT_CAPACITY", "garbage")
        assert FlightRecorder().capacity == DEFAULT_CAPACITY

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_clear_resets_ring_and_epoch(self):
        rec = FlightRecorder(capacity=4)
        rec.record("span", "a")
        rec.dump(reason="test")
        rec.clear()
        assert len(rec) == 0
        # dump_count survives clear() — availability tables diff it.
        assert rec.dump_count == 1

    def test_memory_is_bounded_by_capacity(self):
        """The ring holds at most ``capacity`` records no matter the volume,
        and records carry only small scalar payloads."""
        rec = FlightRecorder(capacity=32)
        for i in range(10_000):
            rec.record("counters", "delta", value=float(i))
        assert len(rec.records) == 32
        for r in rec.records:
            assert set(r.data) == {"value"}


class TestConcurrentWriters:
    def test_threads_recording_directly(self):
        rec = FlightRecorder(capacity=64)
        n_threads, n_each = 8, 500

        def writer(tid: int):
            for i in range(n_each):
                rec.record("span", f"t{tid}", i=i)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = rec.records
        assert len(records) == 64
        # Every surviving record is intact (no torn writes).
        for r in records:
            assert r.kind == "span" and r.name.startswith("t")
            assert 0 <= r.data["i"] < n_each

    def test_tracer_sink_under_concurrent_spans(self):
        """Concurrent measured spans flow through the sink without
        corrupting the ring; per-thread span stacks stay consistent."""
        tracer = Tracer()
        rec = FlightRecorder(capacity=128)
        tracer.add_sink(rec.on_trace_event)
        n_threads, n_each = 6, 40

        def worker(tid: int):
            for i in range(n_each):
                with tracer.span(f"outer{tid}", category="compute"):
                    with tracer.span(f"inner{tid}", category="comm"):
                        pass

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.trace.events) == n_threads * n_each * 2
        records = rec.records
        assert len(records) == 128
        for r in records:
            assert r.kind == "span"
            assert r.data["duration"] >= 0.0


class TestDisabled:
    def test_record_is_noop_when_disabled(self):
        rec = FlightRecorder(capacity=8)
        telemetry.disable()
        rec.record("span", "a")
        rec.record_fault(RuntimeError("x"))
        rec.record_counter_deltas()
        assert len(rec) == 0

    def test_on_terminal_failure_disabled_writes_nothing(self, tmp_path):
        rec = FlightRecorder(capacity=8, dump_dir=str(tmp_path))
        telemetry.disable()
        assert on_terminal_failure(RuntimeError("boom"), recorder=rec) is None
        assert rec.last_postmortem is None
        assert list(tmp_path.iterdir()) == []

    def test_repro_telemetry_0_disables_process_recorder(self):
        """The process recorder's writes are gated on the same flag
        ``REPRO_TELEMETRY=0`` clears at import."""
        telemetry.flight_recorder.clear()
        telemetry.disable()
        telemetry.flight_recorder.record("span", "a")
        telemetry.tracer.span("x").__enter__()
        assert len(telemetry.flight_recorder) == 0


class TestPostmortem:
    def test_bundle_contents(self):
        rec = FlightRecorder(capacity=16)
        rec.record("span", "fwd", duration=1.0)
        err = RuntimeError("chip died")
        rec.record_fault(err, origin="test", step=3)
        bundle = rec.postmortem_bundle("test", exc=err)
        assert bundle["schema"] == POSTMORTEM_SCHEMA
        assert bundle["fault"]["type"] == "RuntimeError"
        assert bundle["num_records"] == 2
        assert bundle["records"][0]["name"] == "fwd"
        assert "counters" in bundle
        json.dumps(bundle)  # JSON-ready all the way down

    def test_dump_memory_only_by_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rec = FlightRecorder(capacity=4)
        rec.record("span", "a")
        assert rec.dump(reason="r") is None
        assert rec.last_postmortem["reason"] == "r"
        assert rec.last_postmortem_seconds >= 0.0
        assert list(tmp_path.iterdir()) == []

    def test_dump_writes_file_when_dir_set(self, tmp_path):
        rec = FlightRecorder(capacity=4, dump_dir=str(tmp_path))
        rec.record("fault", "X")
        path = rec.dump(reason="crash")
        assert path is not None
        with open(path) as f:
            bundle = json.load(f)
        assert bundle["reason"] == "crash"
        assert bundle["num_records"] == 1

    def test_dump_write_failure_is_best_effort(self, tmp_path):
        # dump_dir exists as a *file*, so the write path raises OSError.
        # The terminal failure being reported must still propagate at the
        # call sites, so dump() swallows the error, keeps the bundle in
        # memory, and returns None.
        blocker = tmp_path / "postmortems"
        blocker.write_text("not a directory")
        rec = FlightRecorder(capacity=4, dump_dir=str(blocker))
        rec.record("fault", "X")
        assert rec.dump(reason="crash") is None
        assert rec.last_postmortem["reason"] == "crash"
        assert rec.dump_count == 1

    def test_on_terminal_failure_survives_broken_dump_dir(self, tmp_path):
        blocker = tmp_path / "postmortems"
        blocker.write_text("not a directory")
        rec = FlightRecorder(capacity=8, dump_dir=str(blocker))
        err = RuntimeError("chip died")
        # Must not replace the terminal failure with an OSError.
        assert on_terminal_failure(err, origin="test", recorder=rec) is None
        assert rec.last_postmortem["fault"]["type"] == "RuntimeError"

    def test_on_terminal_failure_dedups_per_exception(self):
        rec = FlightRecorder(capacity=8)
        err = RuntimeError("boom")
        on_terminal_failure(err, origin="layer1", recorder=rec)
        on_terminal_failure(err, origin="layer2", recorder=rec)
        assert rec.dump_count == 1
        assert [r.kind for r in rec.records].count("fault") == 1

    def test_dump_counter_metric(self):
        rec = FlightRecorder(capacity=8)
        rec.dump(reason="why")
        assert telemetry.metrics.value("flight_postmortems", reason="why") == 1


class TestCounterDeltas:
    def test_only_changes_recorded(self):
        rec = FlightRecorder(capacity=16)
        telemetry.metrics.counter("steps_total").inc(3)
        rec.record_counter_deltas()
        telemetry.metrics.counter("steps_total").inc(2)
        telemetry.metrics.gauge("loss").set(0.5)
        rec.record_counter_deltas()
        rec.record_counter_deltas()  # nothing moved: no record
        deltas = [r for r in rec.records if r.kind == "counters"]
        assert len(deltas) == 2
        assert deltas[0].data["deltas"]["steps_total"] == 3
        assert deltas[1].data["deltas"]["steps_total"] == 2
        assert deltas[1].data["deltas"]["loss"] == 0.5

    def test_deltas_under_concurrent_metric_creation(self):
        """New families/children appearing mid-iteration must not raise
        'dictionary changed size during iteration' — the recorder reads a
        lock-protected registry snapshot."""
        rec = FlightRecorder(capacity=64)
        stop = threading.Event()

        def creator():
            i = 0
            while not stop.is_set():
                telemetry.metrics.counter("churn_family_%d" % (i % 7), device=str(i)).inc()
                i += 1

        t = threading.Thread(target=creator)
        t.start()
        try:
            for _ in range(300):
                rec.record_counter_deltas()
        finally:
            stop.set()
            t.join()


    def test_two_recorders_see_the_same_deltas_independently(self):
        """A private recorder beside the process-wide one: neither steals
        the other's deltas, however their calls interleave."""
        process, private = telemetry.flight_recorder, FlightRecorder(capacity=16)
        telemetry.metrics.counter("steps_total", job="a").inc(3)
        process.record_counter_deltas()
        telemetry.metrics.counter("steps_total", job="a").inc(2)
        telemetry.metrics.gauge("loss").set(0.5)
        process.record_counter_deltas()
        private.record_counter_deltas()
        telemetry.metrics.counter("steps_total", job="a").inc(1)
        private.record_counter_deltas()
        process.record_counter_deltas()

        assert _delta_payloads(process) == [
            {"steps_total{job=a}": 3.0},
            {"steps_total{job=a}": 2.0, "loss": 0.5},
            {"steps_total{job=a}": 1.0},
        ]
        assert _delta_payloads(private) == [
            {"steps_total{job=a}": 5.0, "loss": 0.5},
            {"steps_total{job=a}": 1.0},
        ]

    def test_untouched_children_are_not_revisited(self, monkeypatch):
        """Per-step cost follows the writes, not the registry size: after
        the first call only written children are visited (counted as reads
        of ``child.value``), and the rebuild-everything walk is never used."""
        rec = FlightRecorder(capacity=16)
        for i in range(700):
            telemetry.metrics.counter("per_device_bytes", device=str(i)).inc(i + 1)
        rec.record_counter_deltas()
        assert len(_delta_payloads(rec)[-1]) == 700

        def rebuilt(self):
            raise AssertionError("scalar_children() is off the per-step path")

        reads = []
        slot = _ScalarChild.value  # the __slots__ descriptor

        class CountingValue:
            def __get__(self, obj, owner=None):
                reads.append(obj)
                return slot.__get__(obj, owner)

            def __set__(self, obj, value):
                slot.__set__(obj, value)

        written = [
            telemetry.metrics.counter("per_device_bytes", device=str(i))
            for i in (3, 141, 699)
        ]
        for child in written:
            child.inc(8)
        monkeypatch.setattr(MetricsRegistry, "scalar_children", rebuilt)
        monkeypatch.setattr(_ScalarChild, "value", CountingValue())
        rec.record_counter_deltas()
        assert sorted(map(id, reads)) == sorted(map(id, written))
        del reads[:]
        rec.record_counter_deltas()  # nothing written: nothing visited
        assert reads == []
        assert _delta_payloads(rec)[1:] == [
            {f"per_device_bytes{{device={i}}}": 8.0 for i in (3, 141, 699)}
        ]

    def test_first_call_after_clear_reports_from_zero(self):
        rec = FlightRecorder(capacity=16)
        telemetry.metrics.counter("steps_total").inc(3)
        telemetry.metrics.counter("idle")  # zero-valued: never a delta
        rec.record_counter_deltas()
        rec.clear()
        telemetry.metrics.counter("steps_total").inc(1)
        rec.record_counter_deltas()
        assert _delta_payloads(rec) == [{"steps_total": 4.0}]

    def test_counter_recreated_after_registry_reset(self):
        """Regression: last-seen values were keyed by a string that outlived
        the child, so a monotone counter showed a delta of -4 here."""
        rec = FlightRecorder(capacity=16)
        telemetry.metrics.counter("c").inc(5)
        rec.record_counter_deltas()
        telemetry.metrics.reset()
        telemetry.metrics.counter("c").inc(1)
        rec.record_counter_deltas()
        assert _delta_payloads(rec) == [{"c": 5.0}, {"c": 1.0}]

    def test_collected_recorder_leaves_the_registry(self):
        registry = MetricsRegistry()
        rec = FlightRecorder(capacity=4)
        registry.counter("c").inc()
        rec.record_counter_deltas(registry)
        assert len(registry._readers) == 1
        gone = weakref.ref(rec)
        del rec
        gc.collect()
        assert gone() is None
        assert len(registry._readers) == 0

    def test_no_increment_lost_under_concurrent_writers(self):
        """Writers mark children without a lock while the recorder drains
        the marks: for every child the recorded deltas must sum exactly to
        its value at the recorder's latest call.

        A lost mark is repaired by the child's next write, so one counter
        hammered forever would hide it.  Each writer therefore owns many
        counters (``+=`` itself is only atomic per thread), writes each in a
        burst of two and moves on, checking the stop flag per child: a mark
        lost during the last lap stays lost.  More threads than cores, and
        a poller that yields so every call interleaves with the writers.
        """
        registry = MetricsRegistry()
        rec = FlightRecorder(capacity=1_000)
        stop = threading.Event()
        owned = [
            [registry.counter(f"burst_{w}", slot=str(i)) for i in range(4000)]
            for w in range(3)
        ]

        def burst_writer(mine):
            for child in itertools.cycle(mine):
                if stop.is_set():
                    return
                child.inc()
                child.inc()

        def hammer():
            child = registry.counter("hammered")
            while not stop.is_set():
                child.inc()

        def creator():
            for i in itertools.count():
                if stop.is_set():
                    return
                registry.gauge("churn", device=str(i % 3000)).inc()

        threads = [threading.Thread(target=burst_writer, args=(m,)) for m in owned]
        threads += [threading.Thread(target=hammer), threading.Thread(target=creator)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for _ in range(60):
                rec.record_counter_deltas(registry)
                time.sleep(0)  # let the writers in between every two calls
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        rec.record_counter_deltas(registry)  # the recorder's latest call
        sums: dict[str, float] = {}
        for deltas in _delta_payloads(rec):
            for series, delta in deltas.items():
                sums[series] = sums.get(series, 0.0) + delta
        # A new reader's first call is every non-zero child's value.
        final = registry.scalar_deltas(DeltaReader())
        assert final["hammered"] > 0 and len(final) > 12_000
        assert sums == final


class TestChipDeathAcceptance:
    def test_extermination_produces_postmortem(self):
        """Seed-deterministic chip-death run: the bundle must hold the fault
        event, the >= 64 preceding spans, and the final counter snapshot."""
        from repro.experiments.availability import postmortem_demo

        table = postmortem_demo(seed=7)
        (row,) = table.rows
        assert row[0] == "DeviceLostError"
        bundle = telemetry.flight_recorder.last_postmortem
        assert bundle is not None
        assert bundle["schema"] == POSTMORTEM_SCHEMA
        assert bundle["fault"]["type"] == "DeviceLostError"
        kinds = [r["kind"] for r in bundle["records"]]
        assert kinds.count("span") >= 64
        assert kinds.count("fault") == 1
        assert bundle["counters"]  # final registry snapshot travels along
        assert bundle["num_records"] <= telemetry.flight_recorder.capacity

    def test_demo_is_seed_deterministic(self):
        from repro.experiments.availability import postmortem_demo

        a = postmortem_demo(seed=7)
        first = telemetry.flight_recorder.last_postmortem["num_records"]
        telemetry.reset()
        b = postmortem_demo(seed=7)
        second = telemetry.flight_recorder.last_postmortem["num_records"]
        assert a.rows[0][:5] == b.rows[0][:5]
        assert first == second
