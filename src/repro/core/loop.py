"""Train/eval tight-loop simulation (Sections 3.4 and 4.6).

The paper's benchmarks run training and evaluation in a tight loop on the
accelerators; two host interactions can poison it:

* the input pipeline failing to keep the prefetch buffer ahead of the
  device (Section 3.5), and
* per-eval-step host round trips — DLRM's inference step is so short that
  transferring predictions to the host each step is "an unacceptable
  overhead", fixed by accumulating multiple eval steps on device and
  transferring once (Section 4.6).

:func:`simulate_train_eval_loop` runs the loop on the discrete-event
simulator with a host producer, a bounded prefetch buffer, and an eval
schedule, emitting a :class:`~repro.sim.trace.Trace` for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.refuse import count, positive
from repro.sim.engine import Simulator
from repro.sim.resources import Store
from repro.sim.trace import Trace


@dataclass(frozen=True)
class LoopResult:
    """Timing summary of a simulated train/eval loop."""

    total_seconds: float
    train_seconds: float
    eval_seconds: float
    host_sync_seconds: float
    stall_seconds: float
    trace: Trace

    @property
    def eval_overhead_fraction(self) -> float:
        if self.total_seconds <= 0:
            return 0.0
        return (self.eval_seconds + self.host_sync_seconds) / self.total_seconds


def simulate_train_eval_loop(
    *,
    train_steps: int,
    device_step_seconds: float,
    infeed_seconds_per_batch: float,
    eval_interval_steps: int,
    eval_steps_per_pass: int,
    eval_step_seconds: float,
    host_roundtrip_seconds: float,
    accumulate_eval_on_device: bool = True,
    prefetch_batches: int = 4,
) -> LoopResult:
    """Simulate ``train_steps`` of training with periodic eval passes.

    ``accumulate_eval_on_device`` selects between one host round trip per
    eval *pass* (the paper's optimization) and one per eval *step* (the
    naive implementation).
    """
    count("train_steps", train_steps)
    count("eval_interval_steps", eval_interval_steps)
    count("eval_steps_per_pass", eval_steps_per_pass, minimum=0)
    positive("device_step_seconds", device_step_seconds)
    positive("eval_step_seconds", eval_step_seconds)
    sim = Simulator()
    trace = Trace()
    buffer = Store(sim, capacity=max(1, prefetch_batches))
    totals = {"train": 0.0, "eval": 0.0, "host": 0.0, "stall": 0.0, "end": 0.0}

    def host():
        for i in range(train_steps):
            start = sim.now
            yield sim.timeout(infeed_seconds_per_batch)
            trace.record("host", f"batch{i}", start, sim.now - start, "infeed")
            yield buffer.put(i)

    def device():
        for step in range(train_steps):
            wait_start = sim.now
            yield buffer.get()
            totals["stall"] += sim.now - wait_start
            start = sim.now
            yield sim.timeout(device_step_seconds)
            totals["train"] += sim.now - start
            trace.record("device", f"train{step}", start, sim.now - start, "train")
            if (step + 1) % eval_interval_steps == 0 and eval_steps_per_pass:
                yield from _eval_pass(step)
        totals["end"] = sim.now

    def _eval_pass(step):
        for es in range(eval_steps_per_pass):
            start = sim.now
            yield sim.timeout(eval_step_seconds)
            totals["eval"] += sim.now - start
            trace.record("device", f"eval{step}.{es}", start, sim.now - start, "eval")
            if not accumulate_eval_on_device:
                start = sim.now
                yield sim.timeout(host_roundtrip_seconds)
                totals["host"] += sim.now - start
                trace.record("device", "host_sync", start, sim.now - start, "host")
        if accumulate_eval_on_device:
            start = sim.now
            yield sim.timeout(host_roundtrip_seconds)
            totals["host"] += sim.now - start
            trace.record("device", "host_sync", start, sim.now - start, "host")

    sim.process(host(), name="host")
    sim.process(device(), name="device")
    sim.run()
    return LoopResult(
        total_seconds=totals["end"],
        train_seconds=totals["train"],
        eval_seconds=totals["eval"],
        host_sync_seconds=totals["host"],
        stall_seconds=totals["stall"],
        trace=trace,
    )


def dlrm_eval_accumulation_ablation(
    *,
    train_steps: int = 400,
    eval_interval_steps: int = 100,
    eval_steps_per_pass: int = 40,
    device_step_seconds: float = 1.4e-3,
    eval_step_seconds: float = 5.0e-4,
    host_roundtrip_seconds: float = 2.0e-3,
) -> tuple[LoopResult, LoopResult]:
    """The Section 4.6 claim: accumulate eval steps on device.

    Returns ``(per_step_transfer, accumulated)`` loop results with DLRM-like
    timings (ms-scale steps, PCIe+gather round trips larger than an eval
    step).
    """
    common = dict(
        train_steps=train_steps,
        device_step_seconds=device_step_seconds,
        infeed_seconds_per_batch=device_step_seconds * 0.5,
        eval_interval_steps=eval_interval_steps,
        eval_steps_per_pass=eval_steps_per_pass,
        eval_step_seconds=eval_step_seconds,
        host_roundtrip_seconds=host_roundtrip_seconds,
    )
    naive = simulate_train_eval_loop(accumulate_eval_on_device=False, **common)
    optimized = simulate_train_eval_loop(accumulate_eval_on_device=True, **common)
    return naive, optimized
