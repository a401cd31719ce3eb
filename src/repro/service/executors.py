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
import math

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it on first use: load it before a fork)

# Modules, not names: an executor looks each entry point up when it runs
# (tests and tracing replace some), and a forked service worker starts with
# all of them loaded.  ``make_trainer`` imports its strategy classes on call,
# so those are loaded here too: a child never imports on a job.
from repro import cluster
from repro.controlplane import checkpointing
from repro.core import step_time, strategy, trainer
from repro.core import data_parallel, model_parallel, weight_update_sharding  # noqa: F401
from repro.experiments import calibration
from repro.models import mlp
from repro.optim import sgd
from repro.refuse import count, non_negative
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
    """One step-time query: ``{model, chips, global_batch, overlap, buckets}``.

    Every executor passes parameters on as written, never coerced, so one
    simulation has one content key: a string, a fraction or an integral
    float where a count is meant, or an ``overlap`` that is not a bool, is
    refused by name, by the config it reaches, or here (``repro.refuse``)
    where that config checks nothing or names the value otherwise.
    """
    model_name = params.get("model", "resnet50")
    chips = count("chips", params.get("chips", 256))
    global_batch = params.get("global_batch", 8192)
    overlap = params.get("overlap", False)
    if not isinstance(overlap, bool):
        raise TypeError(f"overlap must be true or false, got {overlap!r}")
    buckets = count("buckets", params.get("buckets", 1))
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
        "step_time_s": b.total,
    }


# --- chaos -------------------------------------------------------------------


def _seed(params: dict) -> int:
    return count("seed", params.get("seed", 0), minimum=0)


def _expected(params: dict, name: str) -> float:
    return non_negative(name, params.get(name, 0.0))


def _chaos_plan_and_config(params: dict):
    mesh_shape = tuple(params.get("mesh_shape", (2, 2)))
    steps = params.get("steps", 50)
    plan = faults.FaultPlan.sample(
        seed=_seed(params),
        mesh_shape=mesh_shape,
        steps=steps,
        expected_chip_failures=_expected(params, "expected_chip_failures"),
        expected_stragglers=_expected(params, "expected_stragglers"),
        expected_preemptions=_expected(params, "expected_preemptions"),
    )
    config = chaos.ChaosConfig(
        mesh_shape=mesh_shape,
        target_steps=steps,
        checkpoint_interval=params.get("checkpoint_interval", 5),
        chips_per_host=params.get("chips_per_host", 2),
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
            plan, config, state_bytes=params.get("state_bytes", int(1e9))
        )
        payload = {"mode": "accounting", "losses": []}
    else:
        trainer_config = trainer.TrainerConfig(
            model=mlp.MLP([8, 16, 4]),
            optimizer=sgd.SGDMomentum(learning_rate=0.05),
            strategy="wus",
            seed=plan.seed,
        )

        def batch_fn(step: int):
            rng = np.random.default_rng((plan.seed, step))
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
            hazard_per_second=raw["hazard_per_second"],
            checkpoint_seconds=raw["checkpoint_seconds"],
        )
    if kind == "wall_clock":
        return checkpointing.WallClockInterval(raw["every_seconds"])
    if kind == "step":
        return checkpointing.StepInterval(raw["every_steps"])
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
    name = tenant["name"]
    if not isinstance(name, str):
        raise TypeError(f"tenant name must be a string, got {name!r}")
    return cluster.JobSpec(
        checkpoint_policy=_checkpoint_policy(tenant.get("checkpoint_policy")),
        name=name,
        slice_shape=tuple(tenant.get("slice_shape", (2, 2))),
        target_steps=tenant.get("target_steps", 20),
        # Any integer (``JobSpec`` leaves it unchecked): only the order of
        # priorities matters.
        priority=count("priority", tenant.get("priority", 0), minimum=-math.inf),
        arrival_tick=tenant.get("arrival_tick", 0),
        min_chips=tenant.get("min_chips", 1),
        checkpoint_interval=tenant.get("checkpoint_interval", 5),
        state_bytes=tenant.get("state_bytes", 0),
        slo_goodput=tenant.get("slo_goodput", 0.0),
    )


def execute_cluster(params: dict) -> dict:
    """Run a multi-tenant cluster scenario fed from the service queue."""
    tenants = params.get("tenants", ())
    if not tenants:
        raise ValueError("cluster job needs at least one tenant")
    specs = [to_cluster_spec(t) for t in tenants]
    mesh_shape = tuple(params.get("mesh_shape", (4, 4)))
    seed = _seed(params)
    config = cluster.ClusterConfig(
        mesh_shape=mesh_shape,
        chips_per_host=params.get("chips_per_host", 8),
        max_ticks=params.get("max_ticks", 2000),
        seed=seed,
    )
    plan = faults.FaultPlan.sample(
        seed=seed,
        mesh_shape=mesh_shape,
        steps=config.max_ticks,
        expected_chip_failures=_expected(params, "expected_chip_failures"),
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
