"""What one training step records, counted.

DESIGN §7 states the per-step telemetry budget of a weight-update-sharded
step as counts, which do not depend on the machine: the spans it emits,
the registry calls it makes and the flight-recorder entries it appends.
A step over the service chaos executor's 2x2 mesh (one bucket, four
replicas) is held to it here.
"""

from __future__ import annotations

import collections
import sys
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.core.trainer import TrainerConfig, make_trainer
from repro.models.mlp import MLP
from repro.optim.sgd import SGDMomentum

#: Spans of one step: split, forward_backward, ring_reduce_scatter,
#: sharded_update, ring_all_gather, wus_update, train_step.
SPANS = 7
#: Registry calls of one step: one ``add`` of the step's counter set, and
#: one histogram observation per launch (``collective_seconds``) plus the
#: step's ``step_seconds``.
REGISTRY_CALLS = {"add": 1, "histogram": 3}
#: Flight entries of one step: its spans, its step record, its deltas.
FLIGHT_ENTRIES = SPANS + 2


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    monkeypatch.setattr(telemetry, "enabled", True)
    telemetry.reset()
    yield
    telemetry.reset()


def _wus_trainer(mesh_shape=(2, 2)):
    return make_trainer(TrainerConfig(
        model=MLP([8, 16, 4]), optimizer=SGDMomentum(0.05), strategy="wus",
        mesh_shape=mesh_shape, seed=4,
    ))


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


def test_a_wus_step_records_within_its_budget(monkeypatch):
    trainer = _wus_trainer()
    x, y = _batch()
    trainer.step(x, y)  # looks the step's series up once per registry
    registry_calls = _count_registry_calls(monkeypatch)
    sink_calls = _count_sink_calls(monkeypatch)
    spans = len(telemetry.tracer.trace.events)
    entries = len(telemetry.flight_recorder)
    trainer.step(x, y)
    assert len(telemetry.tracer.trace.events) - spans == SPANS
    assert dict(registry_calls) == REGISTRY_CALLS
    assert sink_calls["sink"] == 1  # the step's spans reach the sinks at once
    assert len(telemetry.flight_recorder) - entries == FLIGHT_ENTRIES


def test_the_budget_holds_at_every_survivor_count(monkeypatch):
    """On one replica the gather launches nothing and records nothing."""
    for replicas, histograms in ((3, 3), (2, 3), (1, 2)):
        trainer = _wus_trainer((replicas, 1))
        x, y = _batch()
        trainer.step(x, y)
        with monkeypatch.context() as patch:
            calls = _count_registry_calls(patch)
            spans = len(telemetry.tracer.trace.events)
            trainer.step(x, y)
        assert dict(calls) == {"add": 1, "histogram": histograms}
        assert len(telemetry.tracer.trace.events) - spans == SPANS


def test_the_tally_writes_what_the_sites_would_have():
    """The step's one counter call writes exactly the series and amounts
    the collectives, the bucket and the trainer would each have written."""
    trainer = _wus_trainer()
    x, y = _batch()
    trainer.step(x, y)
    tallied = {
        (name, tuple(sorted(labels))): value
        for name, labels, value in telemetry.metrics.scalar_children()
        if not name.endswith("_seconds")
    }
    # The same step's counts, taken with the trainer's tally removed: every
    # site then records its own series, as outside a trainer.
    telemetry.reset()
    untallied = _wus_trainer()
    untallied._tallies_launches = False
    untallied._launch_counts = lambda: ()
    untallied.step(x, y)
    recorded = {
        (name, tuple(sorted(labels))): value
        for name, labels, value in telemetry.metrics.scalar_children()
        if not name.endswith("_seconds")
    }
    assert tallied == recorded


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
