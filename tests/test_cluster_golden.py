"""The cluster tick loop's bit-identity bar, written down.

``tests/data/golden_cluster.json`` holds what :mod:`repro.cluster` returned
**before** ``ClusterState`` answered first fit from per-column bitmasks and
the scheduler kept its jobs indexed by state.  Those changes move work, not
numbers: every event (with its info dict), tick count, pod float, per-tenant
ledger and timeline, and every final-parameter byte must equal the file.
Floats are compared as ``float.hex()``; ``==`` on the JSON, no tolerance.
The five runs whose tenants shrink or are evicted after a grace-window save
(``evict`` and ``mixed/seed*``) were rewritten when the scheduler stopped
charging that save twice; the file then matched the old scheduler with only
the second charge removed, byte for byte.  The eighteen runs in which a
save lands off a multiple of a tenant's ``checkpoint_interval`` (a
grace-window save, a regrow or a migration) were rewritten when the
scheduler dropped its own ``step % checkpoint_interval`` rule for
``run_chaos``'s ``StepInterval`` (``step - last save >= interval``); every
other run stayed byte for byte.

The scenarios cover the 16x16 capacity-planning pod at 2, 32 and 100
tenants under sampled chip deaths with healing, the 8-tenant 8x8 jobs the
service's ``cluster`` executor runs, sampled host preemptions and
stragglers beside priority preemption and admission rejection, an
elastic-floor eviction, a run cut off by ``max_ticks``, and the
real-numerics ``contention_demo`` / ``elastic_demo``.

It uses nothing but entry points that exist on both sides of the change,
so the earlier commit wrote the file.  Regenerate with ``tests/golden.py
capture`` (see there), only when a change *means* to move a number.
"""

from __future__ import annotations

from unittest import mock

from repro import telemetry
from repro.cluster import (
    ClusterConfig,
    ClusterScheduler,
    JobReport,
    JobSpec,
    RetryPolicy,
    run_cluster,
)
from repro.experiments import cluster as cluster_experiments
from repro.resilience.faults import ChipFailure, FaultPlan, PreemptionSignal, StragglerFault
from repro.service.executors import to_cluster_spec
from tests.golden import assert_matches, digest, encode, load

POD = (16, 16)
SEEDS = (0, 1, 7, 2021)


#: ``JobReport.ledger_dict()`` keys; a ledger is stored as its values in
#: this order (the file carries the names once, under ``"ledger_keys"``).
LEDGER_KEYS = list(JobReport().ledger_dict())


def _ledger(report) -> list[object]:
    ledger = report.ledger_dict()
    assert list(ledger) == LEDGER_KEYS
    return list(ledger.values())


def result_record(result) -> dict[str, object]:
    """Everything a ``ClusterResult`` says, floats as hex."""
    return encode({
        "ticks": result.ticks,
        "total_seconds": result.total_seconds,
        "chip_seconds_capacity": result.chip_seconds_capacity,
        "chip_seconds_used": result.chip_seconds_used,
        "events": result.events,
        "tenants": {
            name: {
                "ledger": _ledger(report),
                "timeline": report.timeline,
                "params": digest(report.final_params, root=None),
            }
            for name, report in sorted(result.jobs.items())
        },
    })


def _pod_tenants(count: int) -> list[JobSpec]:
    """The capacity-planning tenants: 4x4 slices, staggered, three priorities."""
    return [
        JobSpec(
            name=f"tenant-{i:03d}", slice_shape=(4, 4), target_steps=60,
            priority=i % 3, arrival_tick=2 * i, min_chips=8,
            checkpoint_interval=10, state_bytes=int(3e9),
        )
        for i in range(count)
    ]


def _service_tenants() -> list[JobSpec]:
    """The service's ``cluster`` job: eight 4x4 tenants through the adapter."""
    return [
        to_cluster_spec({"name": f"t{i}", "slice_shape": [4, 4], "target_steps": 40})
        for i in range(8)
    ]


def _mixed_tenants() -> list[JobSpec]:
    """Square and oblong slices (both orientations), three priorities,
    late high-priority arrivals, elastic floors from one chip to the slice."""
    shapes = ((2, 2), (4, 2), (2, 4), (1, 3), (3, 3), (2, 1))
    specs = []
    for i in range(14):
        w, h = shapes[i % len(shapes)]
        specs.append(JobSpec(
            name=f"m{i:02d}", slice_shape=(w, h),
            target_steps=20 + 3 * i, priority=(i * 7) % 3,
            arrival_tick=(i * 5) % 17,
            min_chips=w * h if i % 5 == 0 else min(w * h, 1 + i % 3),
            checkpoint_interval=3 + i % 4, state_bytes=int(1e9) * (1 + i % 3),
        ))
    return specs


def scenarios():
    """``(key, specs, config, plan)`` for every accounting-mode run."""
    for tenants in (2, 32, 100):
        for seed in SEEDS:
            config = ClusterConfig(
                mesh_shape=POD, restore_bandwidth_bytes_per_s=10e9,
                heal_after_s=20.0, seed=seed,
            )
            plan = FaultPlan.sample(
                seed, POD, steps=60 + 4 * tenants, expected_chip_failures=6.0
            )
            yield f"pod/{tenants}/seed{seed}", _pod_tenants(tenants), config, plan

    for seed in SEEDS + (11, 12345):
        config = ClusterConfig(mesh_shape=(8, 8), max_ticks=2000, seed=seed)
        plan = FaultPlan.sample(seed, (8, 8), steps=2000, expected_chip_failures=2.0)
        yield f"service/seed{seed}", _service_tenants(), config, plan

    for seed in SEEDS:
        plan = FaultPlan.sample(
            seed, (8, 8), steps=120, expected_chip_failures=4.0,
            expected_stragglers=5.0, expected_preemptions=2.0,
            straggler_slowdown=2.5, chips_per_host=4,
        )
        config = ClusterConfig(
            mesh_shape=(8, 8), chips_per_host=4, heal_after_s=10.0,
            checkpoint_write_seconds=0.25, seed=seed,
            admission_policy=RetryPolicy(
                timeout_s=0.0, max_attempts=4, backoff_s=2.0, jitter_frac=0.25,
            ),
        )
        yield f"mixed/seed{seed}", _mixed_tenants(), config, plan

    # Cut off by the horizon: jobs still running when max_ticks ends the run.
    yield (
        "horizon", _service_tenants(),
        ClusterConfig(mesh_shape=(8, 8), max_ticks=30, seed=3),
        FaultPlan.sample(3, (8, 8), steps=30, expected_chip_failures=3.0),
    )

    # Elastic floor: one survivor of two is below min_chips -> evict, heal,
    # readmit; a host preemption evicts a second tenant through its grace window.
    yield (
        "evict", [
            JobSpec(name="floor", slice_shape=(2, 1), target_steps=10,
                    min_chips=2, checkpoint_interval=2, state_bytes=int(1e9)),
            JobSpec(name="host", slice_shape=(2, 1), target_steps=10,
                    checkpoint_interval=3, state_bytes=int(1e9)),
        ],
        ClusterConfig(mesh_shape=(2, 2), chips_per_host=2, heal_after_s=4.0, seed=1),
        FaultPlan(
            chip_failures=(ChipFailure((0, 0), at_step=3),),
            preemptions=(PreemptionSignal(host=1, at_step=5, grace_s=30.0),),
            stragglers=(StragglerFault((0, 1), start_step=6, duration_steps=4,
                                       slowdown=2.0),),
        ),
    )


def _demo_records(demo, seed: int) -> dict[str, object]:
    """A demo's table rows plus the ``ClusterResult`` it built, caught on
    the way out of ``ClusterScheduler.run``."""
    caught = []

    class Recording(ClusterScheduler):
        def run(self):
            result = super().run()
            caught.append(result)
            return result

    with mock.patch.object(cluster_experiments, "ClusterScheduler", Recording):
        table = demo(seed)
    (result,) = caught
    return {"rows": encode(table.rows), "result": result_record(result)}


def cluster_table() -> dict[str, object]:
    out: dict[str, object] = {"ledger_keys": LEDGER_KEYS}
    with telemetry.disabled():
        for key, specs, config, plan in scenarios():
            out[key] = result_record(run_cluster(specs, config, plan=plan))
        for seed in (0, 5, 2021):
            out[f"contention_demo/seed{seed}"] = _demo_records(
                cluster_experiments.contention_demo, seed
            )
            out[f"elastic_demo/seed{seed}"] = _demo_records(
                cluster_experiments.elastic_demo, seed
            )
    return out


TABLES = {"golden_cluster.json": cluster_table}


def test_cluster_runs_are_bit_identical_to_the_golden_file():
    assert_matches(cluster_table(), load("golden_cluster.json"))


def test_the_golden_scenarios_reach_every_path_of_the_loop():
    """A golden file that never preempts proves nothing about preemption."""
    golden = load("golden_cluster.json")
    keys = golden.pop("ledger_keys")
    records = [record.get("result", record) for record in golden.values()]
    kinds = {event[1] for record in records for event in record["events"]}
    assert kinds == {
        "admit", "admission_retry", "reject", "preempt", "complete",
        "chip_failure", "host_preemption", "heal", "shrink", "evict",
        "regrow", "migrate",
    }
    tenants = [tenant for record in records for tenant in record["tenants"].values()]
    ledgers = [dict(zip(keys, tenant["ledger"])) for tenant in tenants]
    assert any(ledger["state"] == "running" for ledger in ledgers)  # horizon
    for field_name in ("straggler_blames", "straggler_stall_ticks", "grace_saves"):
        assert sum(ledger[field_name] for ledger in ledgers) > 0, field_name
    # Six demos, two real-numerics tenants each.
    assert sum(tenant["params"] is not None for tenant in tenants) == 12
    assert sum(key.startswith("pod/") for key in golden) == 3 * len(SEEDS)

