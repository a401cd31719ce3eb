"""What-if executors: the pure functions behind each service job class.

Every executor maps a canonicalized parameter dict to a JSON-ready
result payload, deterministically — same spec, bit-identical payload —
which is what makes the content-addressed cache and the sweep journal
sound.  Executors never touch service state; crashes, retries, and
deadlines live in the worker pool.

Job classes:

``steptime``
    Evaluate a :class:`~repro.core.step_time.StepTimeModel` for one
    calibrated model on one slice: the per-phase breakdown, the step
    time, and (with ``overlap``) the exposed-communication tail.
``chaos``
    A :func:`~repro.resilience.chaos.run_chaos` run under a sampled
    :class:`~repro.resilience.faults.FaultPlan`.  Full mode does real
    numerics on a small WUS trainer; **degraded mode** (what the circuit
    breaker falls back to under overload) reuses the same plan and
    config in accounting-only mode — goodput numbers still flow, the
    numerics are skipped.  Degraded payloads are tagged
    ``"mode": "accounting"`` and are never cached.
``cluster``
    A multi-tenant :mod:`repro.cluster` scenario: the adapter
    (:func:`to_cluster_spec`) turns each admitted tenant dict into a
    cluster :class:`~repro.cluster.jobs.JobSpec`, so the PR-8 scheduler
    consumes jobs straight from the PR-9 service queue.
"""

from __future__ import annotations

import logging

import numpy as np

# Modules, not names: an executor looks each entry point up when it runs
# (tests and tracing replace some), and a forked service worker starts with
# all of them loaded.
from repro import cluster
from repro.controlplane import checkpointing
from repro.core import step_time, strategy, trainer
from repro.experiments import calibration
from repro.models import mlp
from repro.optim import sgd
from repro.resilience import chaos, faults
from repro.service.spec import SimJob

logger = logging.getLogger("repro.service")

#: Job classes with an accounting-only fallback the breaker can route to.
DEGRADABLE_KINDS = frozenset({"chaos"})

#: ``(kind, degraded)`` pairs a service worker hands to its forked process:
#: the jobs that run numerics for tens of milliseconds.  Step-time queries
#: and degraded chaos runs stay on the worker thread, where a sub-millisecond
#: job does not pay the pipe round trip.
FORKED_JOBS = frozenset({("chaos", False), ("cluster", False)})


# --- steptime ----------------------------------------------------------------


def execute_steptime(params: dict) -> dict:
    """One step-time query: ``{model, chips, global_batch, overlap, buckets}``."""
    model_name = params.get("model", "resnet50")
    chips = int(params.get("chips", 256))
    global_batch = int(params.get("global_batch", 8192))
    overlap = bool(params.get("overlap", False))
    buckets = int(params.get("buckets", 1))
    model = step_time.StepTimeModel(
        calibration.spec_for(model_name),
        strategy.ParallelismConfig(num_chips=chips, global_batch=global_batch),
        overlap=overlap,
        overlap_buckets=buckets,
    )
    b = model.breakdown()
    return {
        "model": model_name,
        "chips": chips,
        "global_batch": global_batch,
        "compute_s": b.compute,
        "allreduce_s": b.allreduce,
        "exposed_allreduce_s": b.exposed_allreduce,
        "mp_comm_s": b.mp_comm,
        "weight_update_s": b.weight_update,
        "infeed_s": b.infeed,
        "device_time_s": b.device_time,
        "step_time_s": model.step_time(),
    }


# --- chaos -------------------------------------------------------------------


def _chaos_plan_and_config(params: dict):
    mesh_shape = tuple(params.get("mesh_shape", (2, 2)))
    steps = int(params.get("steps", 50))
    plan = faults.FaultPlan.sample(
        seed=int(params.get("seed", 0)),
        mesh_shape=mesh_shape,
        steps=steps,
        expected_chip_failures=float(params.get("expected_chip_failures", 0.0)),
        expected_stragglers=float(params.get("expected_stragglers", 0.0)),
        expected_preemptions=float(params.get("expected_preemptions", 0.0)),
    )
    config = chaos.ChaosConfig(
        mesh_shape=mesh_shape,
        target_steps=steps,
        checkpoint_interval=int(params.get("checkpoint_interval", 5)),
        chips_per_host=int(params.get("chips_per_host", 2)),
    )
    return plan, config


def execute_chaos(params: dict, degraded: bool = False) -> dict:
    """A chaos run; ``degraded`` swaps real numerics for pure accounting.

    Full mode trains a small WUS MLP through the plan (final loss and a
    loss curve land in the payload); degraded mode runs the identical
    plan/config with ``trainer_factory=None`` over ``state_bytes`` of
    checkpoint payload — the graceful fallback the circuit breaker
    routes chaos jobs to while open.
    """
    plan, config = _chaos_plan_and_config(params)
    if degraded:
        report = chaos.run_chaos(
            plan, config, state_bytes=int(params.get("state_bytes", int(1e9)))
        )
        payload = {"mode": "accounting", "losses": []}
    else:
        trainer_config = trainer.TrainerConfig(
            model=mlp.MLP([8, 16, 4]),
            optimizer=sgd.SGDMomentum(learning_rate=0.05),
            strategy="wus",
            seed=int(params.get("seed", 0)),
        )

        def batch_fn(step: int):
            rng = np.random.default_rng((int(params.get("seed", 0)), step))
            # 12 samples: divisible by every survivor count of a 2x2 mesh.
            return rng.standard_normal((12, 8)), rng.integers(0, 4, size=12)

        report = chaos.run_chaos(
            plan, config, trainer_config=trainer_config, batch_fn=batch_fn
        )
        payload = {
            "mode": "full",
            "losses": [float(v) for v in report.losses],
        }
    payload.update(report.accounting_dict())
    payload["device_failures"] = report.device_failures
    payload["survivors"] = report.survivors
    payload["fault_events"] = plan.num_events
    return payload


# --- cluster (the PR-8 adapter) ----------------------------------------------


def _checkpoint_policy(raw: dict | None):
    """Build a per-tenant ``CheckpointPolicy`` from a JSON description."""
    if not raw:
        return None
    kind = raw.get("policy", "risk_adaptive")
    if kind == "risk_adaptive":
        return checkpointing.RiskAdaptive(
            hazard_per_second=float(raw["hazard_per_second"]),
            checkpoint_seconds=float(raw["checkpoint_seconds"]),
        )
    if kind == "wall_clock":
        return checkpointing.WallClockInterval(float(raw["every_seconds"]))
    if kind == "step":
        return checkpointing.StepInterval(int(raw["every_steps"]))
    raise ValueError(
        f"unknown checkpoint policy {kind!r}; choose from "
        "risk_adaptive, wall_clock, step"
    )


def to_cluster_spec(tenant: dict):
    """Adapt one admitted service tenant dict into a cluster ``JobSpec``.

    This is the bridge between the two layers: the service admits a
    ``cluster`` job whose params carry plain-JSON tenant descriptions,
    and the scheduler consumes real :class:`~repro.cluster.jobs.JobSpec`
    objects.  Only accounting-mode fields cross the boundary (a JSON job
    spec cannot carry a live model object).  A tenant may opt into a
    per-tenant checkpoint policy with
    ``{"checkpoint_policy": {"policy": "risk_adaptive",
    "hazard_per_second": h, "checkpoint_seconds": c}}`` (also
    ``"wall_clock"``/``every_seconds`` and ``"step"``/``every_steps``).
    """
    return cluster.JobSpec(
        checkpoint_policy=_checkpoint_policy(tenant.get("checkpoint_policy")),
        name=str(tenant["name"]),
        slice_shape=tuple(tenant.get("slice_shape", (2, 2))),
        target_steps=int(tenant.get("target_steps", 20)),
        priority=int(tenant.get("priority", 0)),
        arrival_tick=int(tenant.get("arrival_tick", 0)),
        min_chips=int(tenant.get("min_chips", 1)),
        checkpoint_interval=int(tenant.get("checkpoint_interval", 5)),
        state_bytes=int(tenant.get("state_bytes", 0)),
        slo_goodput=float(tenant.get("slo_goodput", 0.0)),
    )


def execute_cluster(params: dict) -> dict:
    """Run a multi-tenant cluster scenario fed from the service queue."""
    tenants = params.get("tenants", ())
    if not tenants:
        raise ValueError("cluster job needs at least one tenant")
    specs = [to_cluster_spec(t) for t in tenants]
    mesh_shape = tuple(params.get("mesh_shape", (4, 4)))
    config = cluster.ClusterConfig(
        mesh_shape=mesh_shape,
        chips_per_host=int(params.get("chips_per_host", 8)),
        max_ticks=int(params.get("max_ticks", 2000)),
        seed=int(params.get("seed", 0)),
    )
    plan = faults.FaultPlan.sample(
        seed=int(params.get("seed", 0)),
        mesh_shape=mesh_shape,
        steps=int(params.get("max_ticks", 2000)),
        expected_chip_failures=float(params.get("expected_chip_failures", 0.0)),
    )
    result = cluster.run_cluster(specs, config, plan=plan)
    return {
        "ticks": result.ticks,
        "completed": result.completed,
        "rejected": result.rejected,
        "preemptions": result.preemptions,
        "utilization": result.utilization,
        "fairness": result.fairness,
        "slo_attainment": result.slo_attainment,
        "tenants": {
            name: report.accounting_dict()
            for name, report in sorted(result.jobs.items())
        },
    }


# --- dispatch ----------------------------------------------------------------

_EXECUTORS = {
    "steptime": lambda params, degraded: execute_steptime(params),
    "chaos": execute_chaos,
    "cluster": lambda params, degraded: execute_cluster(params),
}


def execute(job: SimJob, degraded: bool = False) -> dict:
    """Run one job to a JSON-ready payload (pure; raises on bad specs)."""
    return _EXECUTORS[job.kind](job.params, degraded)
