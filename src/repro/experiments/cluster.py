"""Multi-tenant cluster scheduling: contention, elasticity, offered load.

The paper's pods are shared infrastructure — MLPerf-0.6 carved one
Multipod into per-workload rectangular slices.  This driver exercises
:mod:`repro.cluster` three ways:

* :func:`contention_demo` — real-numerics priority preemption on a pod
  with room for one job: the high-priority arrival evicts the
  low-priority tenant through the grace-window checkpoint path (zero
  lost steps), the victim retries admission on the shared
  :class:`~repro.resilience.faults.RetryPolicy` backoff, and every
  tenant's final parameters are bit-identical to a solo replay of its
  recorded timeline;
* :func:`elastic_demo` — a chip-death wave shrinks a running tenant onto
  the survivors, healing regrows it in place, and the numerics again
  replay bit-for-bit;
* :func:`load_sweep` — accounting-only offered-load sweep on a 16x16 pod:
  goodput, Jain fairness, SLO attainment, and utilization as tenant
  count climbs past capacity, with admission rejections appearing only
  under heavy overload.

Everything is pinned to fixed seeds; each run reproduces the same tables.
"""

from __future__ import annotations

import numpy as np

from repro.cluster import (
    ClusterConfig,
    ClusterScheduler,
    JobSpec,
    solo_replay,
)
from repro.core.trainer import TrainerConfig
from repro.experiments.report import Table
from repro.models.mlp import MLP
from repro.optim.adam import Adam
from repro.resilience.faults import FaultPlan, fail_host

#: Accounting-mode tenants restore ~3 GB of state over 10 GB/s.
_STATE_BYTES = int(3e9)
_RESTORE_BW = 10e9


def _trainer_config() -> TrainerConfig:
    return TrainerConfig(
        model=MLP([8, 16, 4]), optimizer=Adam(learning_rate=0.01),
        strategy="wus",
    )


def _batch_fn_factory(job_seed: int):
    """12-sample global batch: divisible by every survivor count of 2x2."""

    def batch(step: int):
        rng = np.random.default_rng((job_seed, step))
        return rng.standard_normal((12, 8)), rng.integers(0, 4, size=12)

    return batch


def _replay_cell(spec: JobSpec, report, seed: int) -> str:
    replay = solo_replay(spec, report, seed)
    if replay is None or report.final_params is None:
        return "n/a"
    identical = all(
        np.array_equal(report.final_params[k], replay[k]) for k in replay
    )
    return "yes" if identical else "NO"


def contention_demo(seed: int = 2021) -> Table:
    """Priority preemption with zero lost steps, on real numerics."""
    trainer_config = _trainer_config()
    specs = [
        JobSpec(
            name="tenant-low", slice_shape=(2, 2), target_steps=12,
            priority=0, checkpoint_interval=4,
            trainer_config=trainer_config,
            batch_fn_factory=_batch_fn_factory,
        ),
        JobSpec(
            name="tenant-high", slice_shape=(2, 2), target_steps=8,
            priority=1, arrival_tick=5, checkpoint_interval=4,
            trainer_config=trainer_config,
            batch_fn_factory=_batch_fn_factory,
        ),
    ]
    config = ClusterConfig(mesh_shape=(2, 2), chips_per_host=2, seed=seed)
    result = ClusterScheduler(specs, config).run()
    table = Table(
        "Cluster contention: strict-priority preemption on a one-slice pod "
        "(2x2 chips, grace-window saves)",
        ["Tenant", "Priority", "State", "Steps", "Lost steps", "Preempted",
         "Retries", "Goodput", "Solo replay identical"],
    )
    for spec in specs:
        report = result.jobs[spec.name]
        table.add_row(
            spec.name, spec.priority, report.state, report.steps_executed,
            report.lost_steps, report.preemptions, report.admission_retries,
            f"{report.goodput:.3f}", _replay_cell(spec, report, seed),
        )
    return table


def elastic_demo(seed: int = 2021) -> Table:
    """Chip-death wave: shrink onto survivors, regrow on heal, replay bit-for-bit.

    One 2x2 tenant trains through two chip deaths at step 6 (announced
    via nothing — the oracle detector prices the detection latency), runs
    degraded on the 2 survivors, and regrows to the full slice once the
    chips heal 8 s later.  A healthy twin tenant on the same pod is
    untouched — its goodput stays 1.0 and its numerics match a solo run.
    """
    trainer_config = _trainer_config()
    specs = [
        JobSpec(
            name="wave-victim", slice_shape=(2, 2), target_steps=16,
            min_chips=2, checkpoint_interval=4,
            trainer_config=trainer_config,
            batch_fn_factory=_batch_fn_factory,
        ),
        JobSpec(
            name="bystander", slice_shape=(2, 2), target_steps=16,
            min_chips=2, checkpoint_interval=4,
            trainer_config=trainer_config,
            batch_fn_factory=_batch_fn_factory,
        ),
    ]
    # A 4x2 pod: admission is name-ordered, so "bystander" lands on columns
    # 0-1 and "wave-victim" on 2-3.  The wave kills host 2 -- column 2, two
    # of the victim's chips -- at tick 6; they heal after 8 s and the
    # victim regrows in place at a checkpoint boundary.
    plan = FaultPlan(
        seed=seed,
        chip_failures=fail_host((4, 2), 2, chips_per_host=2, at_step=6),
    )
    config = ClusterConfig(
        mesh_shape=(4, 2), chips_per_host=2, heal_after_s=8.0, seed=seed,
    )
    result = ClusterScheduler(specs, config, plan=plan).run()
    table = Table(
        "Cluster elasticity: chip-death wave with shrink, heal, and regrow "
        "(4x2 pod, 2 chips die at tick 6, heal after 8 s)",
        ["Tenant", "State", "Steps", "Lost steps", "Shrinks", "Regrows",
         "Final replicas", "Goodput", "Solo replay identical"],
    )
    for spec in specs:
        report = result.jobs[spec.name]
        table.add_row(
            spec.name, report.state, report.steps_executed,
            report.lost_steps, report.shrinks, report.regrows,
            report.replicas, f"{report.goodput:.3f}",
            _replay_cell(spec, report, seed),
        )
    return table


def load_sweep(
    tenant_counts: tuple[int, ...] = (4, 8, 16, 32),
    seed: int = 2021,
) -> Table:
    """Goodput/fairness/SLO vs. offered load, accounting-only on a 16x16 pod.

    Each tenant wants a 4x4 slice (16 fit exactly); arrivals stagger two
    ticks apart, priorities cycle 0/1/2.  Below capacity everyone runs
    immediately; past it, admission backoff queues the overflow behind
    completions and, at heavy overload, the retry budget rejects the
    tail.  Fairness is Jain's index over per-tenant goodput.
    """
    table = Table(
        "Cluster offered load: 16x16 pod, 4x4 slices, staggered arrivals "
        "(accounting mode, 60-step jobs, SLO: goodput >= 0.5)",
        ["Tenants", "Admitted", "Completed", "Rejected", "Preemptions",
         "Retries", "Mean goodput", "Fairness (Jain)", "SLO attained",
         "Utilization"],
    )
    for tenants in tenant_counts:
        specs = [
            JobSpec(
                name=f"tenant-{i:02d}", slice_shape=(4, 4), target_steps=60,
                priority=i % 3, arrival_tick=2 * i, checkpoint_interval=10,
                state_bytes=_STATE_BYTES, slo_goodput=0.5,
            )
            for i in range(tenants)
        ]
        config = ClusterConfig(
            mesh_shape=(16, 16),
            restore_bandwidth_bytes_per_s=_RESTORE_BW,
            max_ticks=2_000,
            seed=seed,
        )
        result = ClusterScheduler(specs, config).run()
        admitted = sum(
            1 for j in result.jobs.values() if j.admissions > 0
        )
        retries = sum(j.admission_retries for j in result.jobs.values())
        table.add_row(
            tenants, admitted, result.completed, result.rejected,
            result.preemptions, retries,
            f"{result.mean_goodput:.3f}", f"{result.fairness:.3f}",
            f"{result.slo_attainment:.2f}", f"{result.utilization:.3f}",
        )
    return table


def run() -> list[Table]:
    return [contention_demo(), elastic_demo(), load_sweep()]
