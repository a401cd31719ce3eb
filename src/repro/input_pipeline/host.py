"""Discrete-event simulation of one host's input pipeline.

Worker threads run the preprocessing stages and push examples into a
bounded prefetch buffer (a :class:`~repro.sim.resources.Store`); the device
consumer pops a batch every step.  The quantity of interest is the **stall
fraction**: how much of the device's time is spent waiting on the host —
what the paper eliminates for ResNet-50 by removing JPEG decode and
enlarging the prefetch buffer.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from repro import telemetry as _telemetry
from repro.input_pipeline.stages import PipelineStage
from repro.refuse import count, positive
from repro.sim.engine import Simulator
from repro.sim.resources import Store

logger = logging.getLogger("repro.input_pipeline")


@dataclass(frozen=True)
class HostPipelineResult:
    """Outcome of a host-pipeline simulation."""

    steps: int
    device_step_seconds: float
    total_seconds: float
    stall_seconds: float

    @property
    def ideal_seconds(self) -> float:
        return self.steps * self.device_step_seconds

    @property
    def stall_fraction(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return self.stall_seconds / self.total_seconds

    @property
    def slowdown(self) -> float:
        """total / ideal (1.0 = input pipeline fully hidden)."""
        if self.ideal_seconds <= 0:
            return 1.0
        return self.total_seconds / self.ideal_seconds


def simulate_host_pipeline(
    stages: list[PipelineStage],
    *,
    batch_per_host: int,
    device_step_seconds: float,
    steps: int,
    workers: int = 32,
    prefetch_batches: float = 2.0,
    seed: int = 0,
) -> HostPipelineResult:
    """Simulate ``steps`` device steps fed by one host.

    ``prefetch_batches`` bounds the buffer in units of batches; the paper's
    uncompressed-image optimization works *because* the cheap pipeline can
    fill a large buffer and ride out expensive examples.
    """
    count("batch_per_host", batch_per_host)
    count("steps", steps)
    positive("device_step_seconds", device_step_seconds)
    sim = Simulator()
    rng = np.random.default_rng(seed)
    buffer = Store(sim, capacity=max(1, int(prefetch_batches * batch_per_host)))
    total_examples = steps * batch_per_host
    stall = {"seconds": 0.0, "done_at": 0.0}

    def worker_producer(worker_share: int):
        produced = 0
        while produced < worker_share:
            cost = sum(stage.sample_cost(rng) for stage in stages)
            yield sim.timeout(cost)
            yield buffer.put(1)
            produced += 1

    # Spread production across workers deterministically.
    share = total_examples // workers
    remainder = total_examples % workers
    for w in range(workers):
        n = share + (1 if w < remainder else 0)
        if n:
            sim.process(worker_producer(n), name=f"worker{w}")

    def device():
        for _ in range(steps):
            wait_start = sim.now
            for _ in range(batch_per_host):
                yield buffer.get()
            stall["seconds"] += sim.now - wait_start
            yield sim.timeout(device_step_seconds)
        stall["done_at"] = sim.now

    sim.process(device(), name="device")
    sim.run()
    result = HostPipelineResult(
        steps=steps,
        device_step_seconds=device_step_seconds,
        total_seconds=stall["done_at"],
        stall_seconds=stall["seconds"],
    )
    if _telemetry.enabled:
        m = _telemetry.metrics
        m.counter("input_prefetch_stall_seconds").inc(result.stall_seconds)
        m.counter("input_device_steps").inc(steps)
        m.counter("input_examples").inc(total_examples)
        m.gauge("input_stall_fraction").set(result.stall_fraction)
        if result.stall_fraction > 0.01:
            logger.debug(
                "host pipeline stalled %.1f%% of %d steps "
                "(prefetch=%.1f batches, workers=%d)",
                100.0 * result.stall_fraction, steps, prefetch_batches, workers,
            )
    return result
