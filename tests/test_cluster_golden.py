"""The cluster tick loop's bit-identity bar, written down.

``tests/data/golden_cluster.json`` holds what :mod:`repro.cluster` returned
**before** ``ClusterState`` answered first fit from per-column bitmasks and
the scheduler kept its jobs indexed by state.  Those changes move work, not
numbers: every event (with its info dict), tick count, pod float, per-tenant
ledger and timeline, and every final-parameter byte must equal the file.
Floats are compared as ``float.hex()``; ``==`` on the JSON, no tolerance.

The scenarios cover the 16x16 capacity-planning pod at 2, 32 and 100
tenants under sampled chip deaths with healing, the 8-tenant 8x8 jobs the
service's ``cluster`` executor runs, sampled host preemptions and
stragglers beside priority preemption and admission rejection, an
elastic-floor eviction, a run cut off by ``max_ticks``, and the
real-numerics ``contention_demo`` / ``elastic_demo``.

Regenerate (only when a change *means* to move a number, and says so)::

    PYTHONPATH=src python tests/test_cluster_golden.py

It uses nothing but entry points that exist on both sides of the change,
so the same command on a checkout of the earlier commit wrote the file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np

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

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_cluster.json"

POD = (16, 16)
SEEDS = (0, 1, 7, 2021)


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def params_digest(params) -> str | None:
    """SHA-256 over every parameter's name, dtype, shape and bytes."""
    if params is None:
        return None
    digest = hashlib.sha256()
    for name in sorted(params):
        array = np.ascontiguousarray(params[name])
        digest.update(f"{name}|{array.dtype}|{array.shape}|".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


#: ``JobReport.ledger_dict()`` keys; a ledger is stored as its values in
#: this order (the file carries the names once, under ``"ledger_keys"``).
LEDGER_KEYS = list(JobReport().ledger_dict())


def _ledger(report) -> list[object]:
    ledger = report.ledger_dict()
    assert list(ledger) == LEDGER_KEYS
    return _hexed(list(ledger.values()))


def result_record(result) -> dict[str, object]:
    """Everything a ``ClusterResult`` says, floats as hex."""
    return {
        "ticks": result.ticks,
        "total_seconds": result.total_seconds.hex(),
        "chip_seconds_capacity": result.chip_seconds_capacity.hex(),
        "chip_seconds_used": result.chip_seconds_used.hex(),
        "events": [
            [tick, event, tenant, _hexed(info)]
            for tick, event, tenant, info in result.events
        ],
        "tenants": {
            name: {
                "ledger": _ledger(report),
                "timeline": _hexed(report.timeline),
                "params": params_digest(report.final_params),
            }
            for name, report in sorted(result.jobs.items())
        },
    }


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
    return {"rows": _hexed(table.rows), "result": result_record(result)}


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


def _golden() -> dict[str, object]:
    return json.loads(GOLDEN.read_text())


def test_cluster_runs_are_bit_identical_to_the_golden_file():
    golden = _golden()
    found = json.loads(json.dumps(cluster_table()))  # tuples -> lists
    assert found.keys() == golden.keys()
    moved = sorted(key for key in golden if found[key] != golden[key])
    assert not moved, f"{len(moved)} of {len(golden)} runs moved: {moved}"


def test_the_golden_scenarios_reach_every_path_of_the_loop():
    """A golden file that never preempts proves nothing about preemption."""
    golden = _golden()
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


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    rows = ",\n".join(
        f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
        for key, value in sorted(cluster_table().items())
    )
    GOLDEN.write_text("{\n" + rows + "\n}\n")  # one run per line
    print(f"wrote {GOLDEN}")
