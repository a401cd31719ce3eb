"""Fault injection, checkpoint/restore, and elastic degraded-mode training.

The reproduction's execution substrates (the functional
:class:`~repro.runtime.mesh.VirtualMesh`, the discrete-event collective
schedules, the :mod:`repro.core` trainers) assume a healthy fleet; this
subpackage adds the failure surface the paper's 4096-chip lockstep runs
actually face:

* :mod:`repro.resilience.faults` — deterministic seeded
  :class:`~repro.resilience.faults.FaultPlan` (chip/host death, link
  degradation and flaps, stragglers) plus the typed errors
  (:class:`~repro.resilience.faults.DeviceLostError`,
  :class:`~repro.resilience.faults.LinkDownError`) raised by faulted
  substrates;
* :mod:`repro.resilience.checkpoint` — snapshot/restore of the full
  (sharded) param + optimizer state of both trainers, with GSPMD-style
  resharding so a checkpoint restores onto a *different* mesh shape;
* :mod:`repro.resilience.chaos` — the elastic harness: run a trainer under
  a fault plan, checkpoint on an interval, shrink to the surviving replica
  set on device loss, restore and replay, and account goodput (lost steps,
  restarts, restart seconds, MTTR).  Its ``Recovery`` body — checkpoint
  slot, grace-window save, death and restart charges — with
  ``check_plan`` and ``trainer_for`` is what the cluster scheduler charges
  every fault through too.

Only :mod:`.faults` is imported eagerly — it is a leaf module, which lets
low-level modules (``repro.comm.schedule``) import the typed errors
without a cycle; ``checkpoint`` and ``chaos`` load on first attribute
access (:func:`repro._lazy.lazy_exports`).
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.resilience.faults import (
    BitFlipFault,
    ChipFailure,
    Device,
    DeviceLostError,
    FaultPlan,
    LinkDownError,
    LinkFault,
    PreemptionSignal,
    RetryPolicy,
    StragglerFault,
    fail_host,
    host_failure,
    host_map,
)

__all__ = [
    "BitFlipFault",
    "ChipFailure",
    "Device",
    "DeviceLostError",
    "FaultPlan",
    "LinkDownError",
    "LinkFault",
    "PreemptionSignal",
    "RetryPolicy",
    "StragglerFault",
    "fail_host",
    "host_failure",
    "host_map",
    "chaos",
    "checkpoint",
    "faults",
]

__getattr__ = lazy_exports(__name__, {})
