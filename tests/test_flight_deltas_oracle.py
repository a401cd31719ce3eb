"""Deferred counter deltas against an eager oracle.

The process flight recorder keeps a trainer step's counter amounts by
reference and drains the registry at a step only when something was
written outside the step's ``add``; a bundle works the deltas out when it
is read.  This oracle shares no code with that drain: at the same points —
every step boundary and every explicit drain — it diffs consecutive
``MetricsRegistry.scalar_children()`` snapshots, so it sees every write,
a step's ``add`` included.  Under any interleaving of tallied
steps, direct counter and gauge writes between steps (some to a series a
step also writes), flight records written mid-step (which flush the step's
counts so far) and bundles, each bundle's ``counters`` records must equal
the oracle's newest ones — also once the ring has wrapped.

Every clock the steps read is a counter, so every amount, phase seconds
included, is an integer and the two ways of working out a delta agree
exactly.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core import data_parallel, trainer as trainer_module, weight_update_sharding
from repro.core.trainer import TrainerConfig, make_trainer
from repro.models.mlp import MLP
from repro.optim.sgd import SGDMomentum
from repro.runtime import bucket, collectives
from repro.telemetry.flight import FlightRecorder

#: A ring small enough that a few steps wrap it.
CAPACITY = 24

#: Direct writes between steps: ``(kind, name, labels)``; the first two
#: are series the steps write too.
WRITES = (
    ("counter", "bucket_flatten_calls", {}),
    ("counter", "train_steps", {"trainer": "WeightUpdateShardedTrainer"}),
    ("counter", "oracle_restarts", {}),
    ("gauge", "oracle_depth", {}),
)

ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("step"), st.booleans()),
        st.tuples(st.just("write"), st.integers(0, len(WRITES) - 1), st.integers(0, 3)),
        st.tuples(st.just("drain"), st.just(0)),
        st.tuples(st.just("bundle"), st.just(0)),
    ),
    min_size=1,
    max_size=30,
)


class SnapshotDiff(list):
    """The eager oracle: each entry is ``{series: delta}`` between two
    consecutive registry snapshots, in the registry's iteration order."""

    def __init__(self) -> None:
        super().__init__()
        self.last: dict[tuple, float] = {}

    def clear(self) -> None:
        """Start over from an empty registry."""
        super().clear()
        self.last = {}

    def take(self) -> None:
        """Append what changed since the previous snapshot, if anything."""
        deltas = {}
        for name, labels, value in telemetry.metrics.scalar_children():
            previous = self.last.get((name, labels), 0.0)
            if value != previous:
                pairs = ",".join(f"{k}={v}" for k, v in labels)
                deltas[f"{name}{{{pairs}}}" if pairs else name] = value - previous
                self.last[(name, labels)] = value
        if deltas:
            self.append(deltas)


@pytest.fixture
def recorder(monkeypatch):
    """A small process recorder, integer clocks, and the eager oracle's
    deltas, diffed wherever the recorder records a step or a drain."""
    ticks = itertools.count(1)

    def clock() -> float:
        return float(next(ticks))

    for module in (trainer_module, weight_update_sharding, data_parallel, bucket, collectives):
        monkeypatch.setattr(module, "_perf", clock)
    monkeypatch.setattr(telemetry, "enabled", True)
    telemetry.reset()
    small = FlightRecorder(capacity=CAPACITY)
    monkeypatch.setattr(telemetry, "flight_recorder", small)
    monkeypatch.setattr(telemetry.tracer, "_sinks", [small.on_trace_events])
    oracle = SnapshotDiff()

    def eager(method):
        def drained(*args, **kwargs):
            method(*args, **kwargs)
            oracle.take()

        return drained

    monkeypatch.setattr(small, "on_step", eager(small.on_step))
    monkeypatch.setattr(small, "record_counter_deltas", eager(small.record_counter_deltas))
    yield small, oracle
    telemetry.reset()


def _trainer():
    trainer = make_trainer(TrainerConfig(
        model=MLP([4, 6, 2]), optimizer=SGDMomentum(0.05), strategy="wus",
        mesh_shape=(2, 1), seed=1,
    ))
    loss_and_grad = trainer.model.loss_and_grad
    trainer.mid_step_record = False

    def recording(*args, **kwargs):
        if trainer.mid_step_record:
            telemetry.flight_recorder.record("oracle", "mid_step")
        return loss_and_grad(*args, **kwargs)

    trainer.model.loss_and_grad = recording
    return trainer


def _check(recorder: FlightRecorder, oracle: list[dict]) -> None:
    bundle = recorder.postmortem_bundle("oracle")
    shown = [r["data"]["deltas"] for r in bundle["records"] if r["kind"] == "counters"]
    assert shown == oracle[len(oracle) - len(shown):]


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(actions=ACTIONS)
def test_bundles_show_what_an_eager_drain_would(recorder, actions):
    small, oracle = recorder
    telemetry.reset()
    oracle.clear()
    trainer = _trainer()
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((4, 4)), rng.integers(0, 2, size=4)
    for action, *args in actions:
        if action == "step":
            trainer.mid_step_record = args[0]
            trainer.step(x, y)
        elif action == "write":
            kind, name, labels = WRITES[args[0]]
            if kind == "counter":
                telemetry.metrics.counter(name, **labels).inc(args[1])
            else:
                telemetry.metrics.gauge(name, **labels).set(args[1])
        elif action == "drain":
            small.record_counter_deltas()
        else:
            _check(small, oracle)
    _check(small, oracle)


def test_a_wrapped_ring_still_shows_the_newest_deltas(recorder):
    """More entries than the ring holds: the bundle shows the newest
    ``capacity`` records, and its counter records are the oracle's newest."""
    small, oracle = recorder
    trainer = _trainer()
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((4, 4)), rng.integers(0, 2, size=4)
    for step in range(3 * CAPACITY):
        if step % 5 == 0:
            telemetry.metrics.counter("bucket_flatten_calls").inc(2)
        trainer.step(x, y)
    assert len(small._records) == CAPACITY
    bundle = small.postmortem_bundle("oracle")
    assert bundle["num_records"] == CAPACITY
    _check(small, oracle)
    assert len(oracle) == 3 * CAPACITY
