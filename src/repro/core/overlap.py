"""Backprop-overlapped bucketed gradient collectives (the overlap engine).

The paper's multipod step time is dominated by the 2-D hierarchical
gradient summation (Section 3.3); at 4096 chips the standard way to keep
scaling is to hide that communication behind the backward pass, as in
Horovod's tensor fusion and PyTorch DDP's gradient buckets.  This module
models that schedule:

* the backward pass is a timeline of per-layer slices (derived from each
  model's cost spec — FLOPs fractions stand in for both backward time and
  gradient bytes produced, a documented proxy);
* gradients are grouped into buckets; each bucket's collective launches
  as soon as its last gradient is produced;
* all collectives share one serialized reduce network, modeled as a
  :class:`~repro.sim.resources.Channel` with FIFO admission, so a bucket
  whose predecessor is still on the wire queues behind it.

The output is :class:`OverlapResult`: overlap-aware step time, the
**exposed** communication (the tail that sticks out past the end of
backprop), and the overlap efficiency.  Two invariants hold by
construction and are pinned by the tests:

* ``step_seconds <= serial_step_seconds`` — a FIFO link that starts each
  transfer no later than "after backprop finishes" can never finish
  later than the serial schedule;
* equality holds exactly when there is nothing to hide: communication is
  zero, or every bucket only becomes ready at the very end of the
  backward pass (the single-bucket case).

The engine only models *time*; the arithmetic of the functional trainers
is untouched by ``overlap=True`` (same collectives, same order), which is
why overlap mode is bit-identical to eager mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.sim.engine import Simulator
from repro.sim.resources import Channel
from repro.sim.trace import Trace

#: Share of forward+backward compute spent in the backward pass.  The
#: backward pass does roughly twice the forward work (grad wrt activations
#: and wrt weights), hence 2/3 of the fused forward_backward time.
DEFAULT_BACKWARD_FRACTION = 2.0 / 3.0

#: Backward-timeline granularity when a model spec carries no per-layer
#: profile: the pass is split into this many equal slices.
DEFAULT_SEGMENTS = 8


@dataclass(frozen=True)
class OverlapResult:
    """Timing of one backprop-overlapped step.

    ``bucket_ready_s[i]`` is when bucket ``i``'s last gradient is produced
    (launch order — bucket 0 holds the deepest layers and is ready first);
    ``bucket_comm_s[i]`` its collective's occupancy on the reduce network.
    ``exposed_comm_seconds`` is the communication tail past the end of
    compute — the only part of the all-reduce a serial model should still
    charge the step for.
    """

    num_buckets: int
    compute_seconds: float
    comm_seconds: float
    step_seconds: float
    exposed_comm_seconds: float
    bucket_bytes: tuple[float, ...]
    bucket_ready_s: tuple[float, ...]
    bucket_comm_s: tuple[float, ...]
    trace: Trace

    @property
    def hidden_comm_seconds(self) -> float:
        """Communication overlapped with (hidden behind) the backward pass."""
        return self.comm_seconds - self.exposed_comm_seconds

    @property
    def serial_step_seconds(self) -> float:
        """The no-overlap schedule: compute, then every collective in turn."""
        return self.compute_seconds + self.comm_seconds

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of communication hidden; 1.0 when there is none to hide."""
        if self.comm_seconds <= 0.0:
            return 1.0
        return self.hidden_comm_seconds / self.comm_seconds


def simulate_overlap_schedule(
    bucket_ready_s: Sequence[float],
    bucket_comm_s: Sequence[float],
    compute_end_s: float,
    *,
    bucket_bytes: Sequence[float] | None = None,
) -> OverlapResult:
    """Run the bucket collectives against the backward timeline on the DES.

    Each bucket launches at its ready time onto a single serialized
    reduce-network :class:`Channel` (unit bandwidth, so a transfer of
    ``t`` occupies exactly the modeled collective seconds ``t``); FIFO
    admission makes a late bucket queue behind an earlier long one.  Ready
    times later than ``compute_end_s`` are clamped to it — a gradient
    cannot appear after the backward pass that produces it has ended.
    """
    if len(bucket_ready_s) != len(bucket_comm_s):
        raise ValueError("ready and comm lists must have equal length")
    if compute_end_s < 0.0:
        raise ValueError("compute_end_s must be non-negative")
    ready = [min(max(0.0, r), compute_end_s) for r in bucket_ready_s]
    comm = [float(c) for c in bucket_comm_s]
    if any(c < 0.0 for c in comm):
        raise ValueError("bucket comm times must be non-negative")
    nbytes = (
        tuple(float(b) for b in bucket_bytes)
        if bucket_bytes is not None
        else tuple(0.0 for _ in comm)
    )
    if len(nbytes) != len(comm):
        raise ValueError("bucket_bytes must match the bucket count")

    sim = Simulator()
    trace = Trace()
    trace.record("mxu", "forward_backward", 0.0, compute_end_s, "compute")
    link = Channel(
        sim, bandwidth=1.0, name="reduce_network", trace=trace, actor="ici"
    )
    finish = [0.0] * len(comm)

    def bucket_process(i: int):
        if ready[i] > 0.0:
            yield sim.timeout(ready[i])
        if comm[i] > 0.0:
            yield from link.transfer(comm[i], label=f"bucket{i}")
        finish[i] = sim.now

    for i in range(len(comm)):
        sim.process(bucket_process(i), name=f"bucket{i}")
    sim.run()

    comm_total = sum(comm)
    comm_end = max(finish, default=0.0)
    step = max(compute_end_s, comm_end)
    # The tail cannot logically exceed the total wire time; the upper clamp
    # only absorbs float round-off from summing simulated event times.
    exposed = min(max(0.0, comm_end - compute_end_s), comm_total)
    return OverlapResult(
        num_buckets=len(comm),
        compute_seconds=compute_end_s,
        comm_seconds=comm_total,
        step_seconds=step,
        exposed_comm_seconds=exposed,
        bucket_bytes=nbytes,
        bucket_ready_s=tuple(ready),
        bucket_comm_s=tuple(comm),
        trace=trace,
    )


def layer_backward_fractions(spec) -> tuple[float, ...]:
    """Backward-order slice fractions of a model's backward pass.

    Uses the cost spec's per-layer FLOPs profile, reversed (backprop visits
    the last layer first) and normalized; FLOPs share is the proxy for both
    a slice's backward *time* and its share of produced gradient *bytes*
    (the specs carry no per-layer parameter counts).  Specs without a layer
    profile fall back to :data:`DEFAULT_SEGMENTS` uniform slices.
    """
    layers = getattr(spec, "layers", ())
    fractions = [layer.flops_fraction for layer in layers if layer.flops_fraction > 0]
    if not fractions:
        return tuple(1.0 / DEFAULT_SEGMENTS for _ in range(DEFAULT_SEGMENTS))
    total = sum(fractions)
    return tuple(f / total for f in reversed(fractions))


def bucket_ready_times(
    fractions: Sequence[float],
    backward_seconds: float,
    head_seconds: float,
    num_buckets: int,
) -> list[float]:
    """Ready time of each equal-byte bucket along the backward timeline.

    Gradient bytes are produced proportionally to the slice fractions; the
    cumulative byte curve is piecewise linear in time, and bucket ``k`` is
    ready when the cumulative share reaches ``(k + 1) / num_buckets``.
    ``head_seconds`` (the forward pass) offsets the whole timeline.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    total = sum(fractions)
    if total <= 0.0:
        raise ValueError("fractions must sum to a positive value")
    ready = []
    targets = [(k + 1) / num_buckets for k in range(num_buckets)]
    cum_frac = 0.0
    cum_time = 0.0
    t_idx = 0
    for frac in fractions:
        slice_time = backward_seconds * (frac / total)
        while t_idx < num_buckets and targets[t_idx] <= cum_frac + frac / total + 1e-15:
            # Linear interpolation inside this slice.
            within = targets[t_idx] - cum_frac
            share = min(1.0, within / (frac / total)) if frac > 0 else 1.0
            ready.append(head_seconds + cum_time + share * slice_time)
            t_idx += 1
        cum_frac += frac / total
        cum_time += slice_time
    while t_idx < num_buckets:  # float-roundoff stragglers land at the end
        ready.append(head_seconds + backward_seconds)
        t_idx += 1
    return ready


def analytic_overlap(
    *,
    fractions: Sequence[float],
    compute_seconds: float,
    grad_bytes: float,
    num_buckets: int,
    comm_alpha: float,
    comm_bytes_per_second: float,
    backward_fraction: float = DEFAULT_BACKWARD_FRACTION,
) -> OverlapResult:
    """Overlap-aware step time from the alpha-beta collective model.

    ``comm_alpha`` is the fixed per-launch cost of one fused all-reduce
    (latency chains of every ring phase); ``comm_bytes_per_second`` its
    inverse slope — both from
    :func:`repro.comm.allreduce.allreduce_launch_params`, so a single
    bucket costs *exactly* what the unbucketed cost model charges.  The
    gradient stream is split into ``num_buckets`` equal-byte windows: more
    buckets expose less tail but pay ``alpha`` once per launch — the
    bucket-size trade-off curve.
    """
    if num_buckets < 1:
        raise ValueError("num_buckets must be >= 1")
    if not 0.0 < backward_fraction <= 1.0:
        raise ValueError("backward_fraction must be in (0, 1]")
    if grad_bytes < 0.0:
        raise ValueError("grad_bytes must be non-negative")
    backward = compute_seconds * backward_fraction
    head = compute_seconds - backward
    per_bucket_bytes = grad_bytes / num_buckets
    comm = [
        comm_alpha + (per_bucket_bytes / comm_bytes_per_second
                      if math.isfinite(comm_bytes_per_second) else 0.0)
        for _ in range(num_buckets)
    ]
    ready = bucket_ready_times(fractions, backward, head, num_buckets)
    result = simulate_overlap_schedule(
        ready, comm, compute_seconds,
        bucket_bytes=[per_bucket_bytes] * num_buckets,
    )
    # Annotate the compute timeline with the per-layer backward slices so the
    # merged chrome trace shows what each collective overlapped with.
    total = sum(fractions)
    t = head
    for i, frac in enumerate(fractions):
        dur = backward * (frac / total)
        result.trace.record("mxu", f"backward_slice{i}", t, dur, "compute")
        t += dur
    return result


def measured_overlap(
    *,
    forward_backward_seconds: float,
    bucket_ready_fractions: Sequence[float],
    bucket_comm_s: Sequence[float],
    bucket_bytes: Sequence[float] | None = None,
    backward_fraction: float = DEFAULT_BACKWARD_FRACTION,
) -> OverlapResult:
    """Overlap timeline for a *measured* functional-trainer step.

    The trainers execute eagerly (gradients first, then collectives) but
    model what the concurrent schedule would have cost:
    ``bucket_ready_fractions[i]`` is the cumulative share of gradient
    elements produced once bucket ``i`` is complete (element count stands
    in for backward time), and ``bucket_comm_s`` the measured wall seconds
    of each bucket's collective.
    """
    fb = forward_backward_seconds
    backward = fb * backward_fraction
    head = fb - backward
    ready = [head + backward * f for f in bucket_ready_fractions]
    return simulate_overlap_schedule(
        ready, bucket_comm_s, fb, bucket_bytes=bucket_bytes
    )
