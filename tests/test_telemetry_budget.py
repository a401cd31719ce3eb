"""What one training step records, counted.

DESIGN §7 states the per-step telemetry budget as counts, which do not
depend on the machine: the spans a step emits, the registry calls it makes,
the histogram observations, the sink calls its spans take, and the flight
ring's writes and records.  Every strategy records one way: its sites tally
into the step's record by interned series, and the step makes one ``add``,
one ``collective_seconds`` observation per launch and one ``step_seconds``
observation through their interned ids (and, with overlap, the two
``overlap_*`` gauges), one sink call and two ring writes — its spans, kept
as clock marks, and its step record, kept by reference with its counter
amounts.  A step over the service chaos executor's 2x2 mesh (one bucket,
four replicas) is held to it in detail, and so are an accounting-mode
chaos step and a heartbeat simulation.
"""

from __future__ import annotations

import collections
import importlib
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.controlplane.group import HostGroup, MultiClientGroup
from repro.controlplane.heartbeat import HeartbeatDetector
from repro.core.trainer import TrainerConfig, make_trainer
from repro.models.mlp import MLP
from repro.optim.sgd import SGDMomentum
from repro.resilience.chaos import ChaosConfig, run_chaos
from repro.resilience.faults import FaultPlan
from repro.runtime.bucket import GradientBucket
from repro.runtime.collectives import TwoPhaseAllReduce, ring_all_reduce
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.step import StepRecord
from repro.telemetry.tracer import Tracer

tracer_module = importlib.import_module("repro.telemetry.tracer")
step_module = importlib.import_module("repro.telemetry.step")
registry_module = importlib.import_module("repro.telemetry.registry")

#: Spans of one step: split, forward_backward, ring_reduce_scatter,
#: sharded_update, ring_all_gather, wus_update, train_step.
SPANS = 7
#: Registry calls of one step: one ``add`` of the step's counter set; its
#: histograms are observed through the children their interned ids index.
REGISTRY_CALLS = {"add": 1}
#: Histogram observations of one step: one per launch (``collective_seconds``)
#: plus the step's ``step_seconds``.
OBSERVATIONS = 3
#: Ring writes of one step: its spans, then its step record and deltas.
RING_WRITES = 2
#: Flight records of one step: its spans, its step record, its deltas.
FLIGHT_ENTRIES = SPANS + 2

#: Every strategy, on an MLP [8, 16, 4] (one column/row pair, four
#: tensors): its config, the spans of one step and the histogram
#: observations (launches + ``step_seconds``).
STRATEGIES = {
    # split, forward_backward, update, train_step.
    "single": (dict(strategy="single"), 4, 1),
    # + ring_all_reduce inside bucket_all_reduce, in the collective phase.
    "dp_ring_4x1": (dict(strategy="data_parallel", mesh_shape=(4, 1)), 7, 2),
    # + a reduce_scatter_y per mesh column (inside forward_backward), then
    # reduce_scatter_x, all_gather_grid and two_phase_all_reduce; the Y, X
    # and gather launches observe their seconds, the xy launch does not.
    "dp_2d_2x2": (dict(strategy="data_parallel", mesh_shape=(2, 2)), 10, 4),
    # Three buckets of the above, plus the overlap_model span.
    "dp_2x2_3_buckets_overlap": (
        dict(strategy="data_parallel", mesh_shape=(2, 2), num_buckets=3, overlap=True),
        21, 10,
    ),
    "wus_2x2": (dict(strategy="wus", mesh_shape=(2, 2)), SPANS, 3),
    # Per replica, a forward and a backward all-reduce over the model
    # group; then one peer all-reduce per tensor per model core (8).
    "hybrid_2x1_mp2": (dict(strategy="hybrid", mesh_shape=(2, 1), mp_size=2), 17, 13),
}


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    monkeypatch.setattr(telemetry, "enabled", True)
    telemetry.reset()
    yield
    telemetry.reset()


def _trainer(**config):
    return make_trainer(TrainerConfig(
        model=MLP([8, 16, 4]), optimizer=SGDMomentum(0.05), seed=4, **config
    ))


def _wus_trainer(mesh_shape=(2, 2)):
    return _trainer(strategy="wus", mesh_shape=mesh_shape)


def _batch():
    rng = np.random.default_rng(0)
    return rng.standard_normal((12, 8)), rng.integers(0, 4, size=12)


def _count_registry_calls(monkeypatch) -> collections.Counter:
    calls: collections.Counter = collections.Counter()
    registry = telemetry.metrics
    for name in ("counter", "gauge", "histogram", "add"):
        method = getattr(registry, name)

        def counted(*args, _method=method, _name=name, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(registry, name, counted)
    return calls


def _count_sink_calls(monkeypatch) -> collections.Counter:
    calls: collections.Counter = collections.Counter()

    def counting(sink):
        def counted(events):
            calls["sink"] += 1
            return sink(events)

        return counted

    tracer = telemetry.tracer
    monkeypatch.setattr(tracer, "_sinks", [counting(s) for s in tracer._sinks])
    return calls


def _observations() -> int:
    """Histogram observations so far, over every histogram child."""
    return sum(
        entry["count"]
        for family in telemetry.metrics.snapshot().values()
        if family["type"] == "histogram"
        for entry in family["values"]
    )


class _CountingRing(collections.deque):
    """The flight ring, counting its writes."""

    writes = 0

    def append(self, entry) -> None:
        self.writes += 1
        super().append(entry)

    def extend(self, entries) -> None:
        self.writes += 1
        super().extend(entries)


def _count_ring_writes(monkeypatch) -> _CountingRing:
    recorder = telemetry.flight_recorder
    ring = _CountingRing(recorder._records, maxlen=recorder._records.maxlen)
    monkeypatch.setattr(recorder, "_records", ring)
    return ring


def _second_step_records(monkeypatch, trainer) -> tuple[int, dict, int, int, int, int]:
    """A trainer's second step's spans, registry calls, histogram
    observations, sink calls, ring writes and flight records (the first
    looks the step's series up once)."""
    x, y = _batch()
    trainer.step(x, y)
    observations = _observations()
    registry_calls = _count_registry_calls(monkeypatch)
    sink_calls = _count_sink_calls(monkeypatch)
    ring = _count_ring_writes(monkeypatch)
    spans = len(telemetry.tracer.trace.events)
    entries = len(telemetry.flight_recorder)
    trainer.step(x, y)
    return (
        len(telemetry.tracer.trace.events) - spans, dict(registry_calls),
        _observations() - observations, sink_calls["sink"], ring.writes,
        len(telemetry.flight_recorder) - entries,
    )


def test_a_wus_step_records_within_its_budget(monkeypatch):
    # One sink call: the step's spans reach the sinks at once.
    assert _second_step_records(monkeypatch, _wus_trainer()) == (
        SPANS, REGISTRY_CALLS, OBSERVATIONS, 1, RING_WRITES, FLIGHT_ENTRIES
    )


def test_the_budget_holds_at_every_survivor_count(monkeypatch):
    """On one replica the gather launches nothing and records nothing."""
    for replicas, histograms in ((3, 3), (2, 3), (1, 2)):
        trainer = _wus_trainer((replicas, 1))
        x, y = _batch()
        trainer.step(x, y)
        observations = _observations()
        with monkeypatch.context() as patch:
            calls = _count_registry_calls(patch)
            spans = len(telemetry.tracer.trace.events)
            trainer.step(x, y)
        assert dict(calls) == REGISTRY_CALLS
        assert _observations() - observations == histograms
        assert len(telemetry.tracer.trace.events) - spans == SPANS


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_records_within_its_budget(monkeypatch, strategy):
    config, spans, histograms = STRATEGIES[strategy]
    overlap_gauges = {"gauge": 2} if config.get("overlap") else {}
    registry_calls = {**REGISTRY_CALLS, **overlap_gauges}
    assert _second_step_records(monkeypatch, _trainer(**config)) == (
        spans, registry_calls, histograms, 1, RING_WRITES, spans + 2
    )


def _counters() -> dict:
    return {
        (name, tuple(sorted(labels))): value
        for name, labels, value in telemetry.metrics.scalar_children()
        if not name.endswith("_seconds") and name != "overlap_efficiency"
    }


def test_the_tally_writes_what_the_sites_would_have(monkeypatch):
    """Each strategy's step counters equal what the same launches write
    outside a step: with the step's record never entered, every site
    writes its own series straight to the registry."""
    x, y = _batch()
    for strategy, (config, _, _) in STRATEGIES.items():
        telemetry.reset()
        trainer = _trainer(**config)
        for _ in range(3):
            trainer.step(x, y)
        tallied = _counters()
        telemetry.reset()
        with monkeypatch.context() as patch:
            patch.setattr(telemetry.StepRecord, "__enter__", lambda record: record)
            untallied = _trainer(**config)
            for _ in range(3):
                untallied.step(x, y)
        assert _counters() == tallied, strategy
        assert strategy == "single" or telemetry.metrics.total("collective_launches") > 0


def test_a_raising_step_keeps_what_its_sites_counted():
    """A step that raises after its collective writes the collective's
    counts and spans, but no step of its own."""
    trainer = _trainer(strategy="data_parallel", mesh_shape=(4, 1))
    x, y = _batch()

    def fail(*args, **kwargs):
        raise RuntimeError("update failed")

    trainer.optimizer.update = fail
    with pytest.raises(RuntimeError, match="update failed"):
        trainer.step(x, y)
    m = telemetry.metrics
    assert m.value("collective_launches", op="all_reduce", axis="ring") == 1
    assert m.value("collective_ring_steps", op="all_reduce", axis="ring") == 6
    assert m.value("bucket_unflatten_calls") == 1
    assert m.total("train_steps") == 0
    names = [event.name for event in telemetry.tracer.trace.events]
    assert names == [
        "split", "forward_backward", "ring_all_reduce", "bucket_all_reduce",
        "collective", "update", "train_step",
    ]


def test_a_private_tracer_keeps_its_spans_inside_a_step():
    """Only the process tracer's spans wait for the step: a span another
    tracer records inside a step stays in that tracer."""
    trainer = _wus_trainer()
    private = Tracer()
    loss_and_grad = trainer.model.loss_and_grad

    def traced(*args, **kwargs):
        with private.span("private", category="compute"):
            return loss_and_grad(*args, **kwargs)

    trainer.model.loss_and_grad = traced
    trainer.step(*_batch())
    assert [event.name for event in private.trace.events] == ["private"]
    assert "private" not in {event.name for event in telemetry.tracer.trace.events}
    assert len(telemetry.tracer.trace.events) == SPANS


def test_concurrent_tallied_steps_keep_their_own_records():
    """Each thread's step tallies only its own launches: with more trainer
    threads than cores and a short switch interval, every counter and span
    adds up to the steps taken, none lost or counted twice."""
    threads, steps = 6, 40
    trainers = [_wus_trainer() for _ in range(threads)]
    x, y = _batch()
    errors = []

    def run(trainer):
        try:
            for _ in range(steps):
                trainer.step(x, y)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    telemetry.reset()
    spans = len(telemetry.tracer.trace.events)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=run, args=(t,)) for t in trainers]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers) and not errors
    total = threads * steps
    m = telemetry.metrics
    trainer = "WeightUpdateShardedTrainer"
    assert m.value("train_steps", trainer=trainer) == total
    assert m.value("bucket_flatten_calls") == total
    assert m.value("bucket_segment_cache_hits") == 4 * total
    for op in ("reduce_scatter", "all_gather"):
        assert m.value("collective_launches", op=op, axis="ring") == total
        assert m.value("collective_ring_steps", op=op, axis="ring") == 3 * total
    assert len(telemetry.tracer.trace.events) - spans == SPANS * total


def _count_calls(monkeypatch, calls: collections.Counter, owner, name: str) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_repeated_step_tallies_into_its_slots_and_builds_nothing(monkeypatch):
    """Inside a step a tally adds at a slot the trainer's previous step
    made: no registry call, no series interned, no new slot.  The step
    drains no counter deltas and builds no trace event: its deltas are its
    amounts, and its spans stay clock marks until someone reads them."""
    trainer = _wus_trainer()
    x, y = _batch()
    trainer.step(x, y)
    calls: collections.Counter = collections.Counter()
    _count_calls(monkeypatch, calls, StepRecord, "slot")
    _count_calls(monkeypatch, calls, step_module, "series")
    _count_calls(monkeypatch, calls, MetricsRegistry, "scalar_deltas")
    _count_calls(monkeypatch, calls, tracer_module, "_event")
    registry_calls = _count_registry_calls(monkeypatch)
    trainer.step(x, y)
    assert dict(registry_calls) == REGISTRY_CALLS
    assert dict(calls) == {}
    assert telemetry.metrics.value("bucket_flatten_calls") == 2
    # Read, the step's spans and deltas are what it recorded.
    assert len(telemetry.tracer.trace.events) == 2 * SPANS
    counters = [r for r in telemetry.flight_recorder.records if r.kind == "counters"]
    assert counters[-1].data["deltas"]["bucket_flatten_calls"] == 1.0


def test_a_rebuilt_trainer_resolves_no_label_key(monkeypatch):
    """A chaos restore or a cluster rebuild builds a trainer of a config
    the process has stepped before: its series are interned and their
    children in the registry, so building and stepping it works out no
    canonical label key."""
    x, y = _batch()
    for strategy, (config, _, _) in STRATEGIES.items():
        _trainer(**config).step(x, y)
        calls: collections.Counter = collections.Counter()
        with monkeypatch.context() as patch:
            _count_calls(patch, calls, registry_module, "_label_key")
            _trainer(**config).step(x, y)
        assert dict(calls) == {}, strategy


def test_a_collective_outside_a_step_makes_no_registry_lookup(monkeypatch):
    """Outside a trainer step a launch writes its counters and seconds to
    the children its interned series index: after the first launch a
    standalone ring or 2-D all-reduce, and a checkpoint's segment lookup,
    call no ``metrics.counter`` / ``histogram``."""
    rng = np.random.default_rng(0)
    ring = [rng.standard_normal(6) for _ in range(4)]
    grid = rng.standard_normal((4, 6))
    bucket = GradientBucket({"w": np.zeros((3, 4)), "b": np.zeros(5)})

    def launch():
        ring_all_reduce(ring)
        two_phase = TwoPhaseAllReduce((2, 2), (6,), "f32")
        two_phase.reduce_columns(grid)
        two_phase.all_reduce()
        bucket.tensor_segments(4)

    launch()
    launches = telemetry.metrics.total("collective_launches")
    with monkeypatch.context() as patch:
        calls = _count_registry_calls(patch)
        launch()
    assert dict(calls) == {}
    assert telemetry.metrics.total("collective_launches") == 2 * launches > 0
    assert telemetry.metrics.value("bucket_segment_cache_hits") == 4


def test_an_accounting_step_is_one_ring_write_and_no_drain(monkeypatch):
    """An accounting-mode chaos step appends its modeled step record in one
    ring write, and drains no counters when nothing was written since the
    previous step: only the recorder's first drain visits the registry."""
    steps = 40
    calls: collections.Counter = collections.Counter()
    _count_calls(monkeypatch, calls, MetricsRegistry, "scalar_deltas")
    ring = _count_ring_writes(monkeypatch)
    run_chaos(FaultPlan(), ChaosConfig(mesh_shape=(2, 2), target_steps=steps))
    records = telemetry.flight_recorder.records
    modeled = [r for r in records if r.name == "modeled_step"]
    assert len(modeled) == steps
    assert calls["scalar_deltas"] == 1
    assert ring.writes == len(records)


def _heartbeat_registry_calls(monkeypatch, horizon_s: float) -> tuple[dict, float]:
    detector = HeartbeatDetector(1.0, 0.5, 2)
    topology = MultiClientGroup(HostGroup((4, 4), chips_per_host=2))
    with monkeypatch.context() as patch:
        calls = _count_registry_calls(patch)
        detector.simulate(topology, {3: horizon_s / 2}, horizon_s=horizon_s)
    return dict(calls), telemetry.metrics.value("controlplane_heartbeats_sent")


def test_a_heartbeat_simulation_writes_per_run_not_per_heartbeat(monkeypatch):
    """The heartbeat DES counts beats sent, missed and false suspicions as
    it runs and writes each counter once: its registry calls do not grow
    with the number of heartbeats."""
    short, sent_short = _heartbeat_registry_calls(monkeypatch, 10.0)
    telemetry.reset()
    long, sent_long = _heartbeat_registry_calls(monkeypatch, 80.0)
    assert sent_long > 4 * sent_short > 0
    assert long == short
    assert short["counter"] <= 4
