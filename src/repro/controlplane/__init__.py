"""Host-level control plane: groups, heartbeats, barriers, guards, policies.

The paper's Section 2 contrast — one TF coordinator driving every worker
versus per-host JAX clients — is a *control-plane* architecture choice,
and it decides how a Multipod job fails, not just how fast it starts.
This package models that layer on top of :mod:`repro.sim` and the
resilience substrates:

* :mod:`~repro.controlplane.group` — :class:`HostGroup` failure domains
  (the shared :func:`~repro.resilience.faults.host_map` rule) and the two
  topologies, :class:`SingleClientCoordinator` (heartbeats fan out from a
  single point of failure) and :class:`MultiClientGroup` (peer lease
  ring, any death observed by survivors);
* :mod:`~repro.controlplane.heartbeat` — :class:`HeartbeatDetector`
  (discrete-event heartbeat protocol + closed-form detection latency)
  and the :class:`OracleDetector` baseline;
* :mod:`~repro.controlplane.barrier` — :class:`Barrier` with timeout and
  straggler attribution (how the cluster scheduler names slow chips);
* :mod:`~repro.controlplane.checkpointing` — step/wall-clock/
  risk-adaptive checkpoint policies;
* :mod:`~repro.controlplane.guard` — :class:`ConsistencyGuard` hash
  desync checks and NaN/Inf tripwires for the silent-corruption class no
  collective raises on.

:func:`repro.resilience.chaos.run_chaos` consumes all of it: pass
``detector=HeartbeatDetector(...)`` to replace oracle detection with a
measured MTTD, ``guard=ConsistencyGuard(...)`` to catch injected
:class:`~repro.resilience.faults.BitFlipFault` SDC, and
``checkpoint_policy=`` to tune the rework/overhead trade-off.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Public name -> the submodule defining it, imported on first use: a
#: process that runs one piece of the control plane (the chaos harness's
#: detector and guard, the scheduler's barrier) loads only that piece.
_EXPORTS = {
    "Barrier": "barrier",
    "BarrierResult": "barrier",
    "resolve_barrier": "barrier",
    "CheckpointPolicy": "checkpointing",
    "RiskAdaptive": "checkpointing",
    "StepInterval": "checkpointing",
    "WallClockInterval": "checkpointing",
    "ControlTopology": "group",
    "HostGroup": "group",
    "JobKilledError": "group",
    "MultiClientGroup": "group",
    "SingleClientCoordinator": "group",
    "ConsistencyGuard": "guard",
    "DesyncEvent": "guard",
    "SilentCorruptionError": "guard",
    "apply_bit_flips": "guard",
    "Detection": "heartbeat",
    "HeartbeatDetector": "heartbeat",
    "OracleDetector": "heartbeat",
}

__all__ = [
    "Barrier",
    "BarrierResult",
    "CheckpointPolicy",
    "ConsistencyGuard",
    "ControlTopology",
    "DesyncEvent",
    "Detection",
    "HeartbeatDetector",
    "HostGroup",
    "JobKilledError",
    "MultiClientGroup",
    "OracleDetector",
    "RiskAdaptive",
    "SilentCorruptionError",
    "SingleClientCoordinator",
    "StepInterval",
    "WallClockInterval",
    "apply_bit_flips",
    "resolve_barrier",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
