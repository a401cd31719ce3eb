"""``cluster_chaos`` — capacity planning: the two hand-rolled simulated-time loops.

``run_cluster`` (the tick loop) and ``run_chaos`` (the step loop) are called
directly, so ``cluster``, ``resilience`` and ``controlplane`` do the work; it
is the exercise workload for ROADMAP's "one simulated-time kernel" item and
the bypass workload for service changes.  Fault-plan and cluster seeds are
drawn per ``(seed, pass)``; the op list is the same every pass.
"""

from __future__ import annotations

import os
import tempfile
from collections import Counter, defaultdict

import numpy as np

from bench import checks
from bench.harness import Op, PassResult, kind_median_ms, pooled_ms
from bench.workloads import Workload, median_time, subseed, survivable_plan
from repro.cluster import (
    ClusterConfig,
    ClusterScheduler,
    ClusterState,
    JobSpec,
    run_cluster,
    solo_replay,
)
from repro.controlplane.group import HostGroup, MultiClientGroup
from repro.controlplane.heartbeat import HeartbeatDetector
from repro.core import TrainerConfig, make_trainer
from repro.experiments.cluster import contention_demo, elastic_demo
from repro.models.mlp import MLP
from repro.optim.adam import Adam
from repro.resilience.chaos import ChaosConfig, run_chaos
from repro.resilience.checkpoint import TrainerCheckpoint
from repro.resilience.faults import FaultPlan

POD = (16, 16)
TENANT_COUNTS = (2, 32, 100)
STATE_BYTES = int(3e9)
ACCT_STEPS = 500
REAL_STEPS = 50
REAL_MESH = (2, 2)
HEARTBEAT_HOSTS = 32


def _tenants(count: int) -> list[JobSpec]:
    return [
        JobSpec(
            name=f"tenant-{i:03d}", slice_shape=(4, 4), target_steps=60,
            priority=i % 3, arrival_tick=2 * i, min_chips=8,
            checkpoint_interval=10, state_bytes=STATE_BYTES,
        )
        for i in range(count)
    ]


def _real_trainer_config() -> TrainerConfig:
    return TrainerConfig(
        model=MLP([8, 16, 4]), optimizer=Adam(learning_rate=0.01),
        strategy="wus", seed=0,
    )


def _batch_fn_factory(job_seed: int):
    """12-sample global batch: divisible by every survivor count of 2x2."""

    def batch(step: int):
        rng = np.random.default_rng((job_seed, step))
        return rng.standard_normal((12, 8)), rng.integers(0, 4, size=12)

    return batch


class ClusterChaos(Workload):
    name = "cluster_chaos"

    def setup(self) -> None:
        #: pass index -> work counted from the ops' results
        self.work: dict[int, Counter] = defaultdict(Counter)
        self.totals: Counter = Counter()
        self.detector = HeartbeatDetector(1.0, 0.5, 2)
        self.topology = MultiClientGroup(HostGroup((16, 16), chips_per_host=8))

    def _count(self, index: int, **amounts: int) -> None:
        self.work[index].update(amounts)
        self.totals.update(amounts)

    def _cluster(self, index: int, tenants: int, seed: int) -> Op:
        specs = _tenants(tenants)
        config = ClusterConfig(
            mesh_shape=POD, restore_bandwidth_bytes_per_s=10e9,
            heal_after_s=20.0, seed=seed,
        )
        plan = FaultPlan.sample(
            seed, POD, steps=60 + 4 * tenants, expected_chip_failures=6.0
        )
        kind = f"cluster_{tenants}"

        def verify(result) -> bool:
            self._count(
                index, **{f"ticks_{tenants}": result.ticks},
                ticks=result.ticks, events=len(result.events),
            )
            return checks.cluster_accounted(result, tenants)

        return Op(kind, lambda: run_cluster(specs, config, plan=plan), verify)

    def _chaos_acct(self, index: int, seed: int) -> Op:
        _, plan = survivable_plan(
            seed, POD, ACCT_STEPS, expected_chip_failures=4.0,
            expected_stragglers=4.0, expected_preemptions=2.0,
        )
        config = ChaosConfig(mesh_shape=POD, target_steps=ACCT_STEPS)
        return Op(
            "chaos_acct",
            lambda: run_chaos(plan, config, state_bytes=STATE_BYTES),
            lambda report: self._verify_chaos(index, report, ACCT_STEPS),
        )

    def _chaos_real(self, index: int, seed: int) -> Op:
        seed, plan = survivable_plan(
            seed, REAL_MESH, REAL_STEPS, expected_chip_failures=0.3,
            expected_stragglers=1.0, chips_per_host=2,
        )
        config = ChaosConfig(
            mesh_shape=REAL_MESH, target_steps=REAL_STEPS, chips_per_host=2
        )
        trainer_config = _real_trainer_config()
        batch_fn = _batch_fn_factory(seed)

        def verify(report) -> bool:
            return (
                self._verify_chaos(index, report, REAL_STEPS)
                and report.final_params is not None
                and bool(np.all(np.isfinite(report.losses)))
            )

        return Op(
            "chaos_real",
            lambda: run_chaos(
                plan, config, trainer_config=trainer_config, batch_fn=batch_fn
            ),
            verify,
        )

    def _verify_chaos(self, index: int, report, target_steps: int) -> bool:
        self._count(index, restarts=report.restarts, lost_steps=report.lost_steps)
        return (
            checks.goodput_consistent(report)
            and report.steps_executed >= target_steps
            # base_step_seconds is 1.0: useful time is exactly the target.
            and report.useful_seconds == float(target_steps)
        )

    def _heartbeat(self, index: int, rng: np.random.Generator) -> Op:
        hosts = rng.choice(HEARTBEAT_HOSTS, size=2, replace=False)
        # Deaths inside a fixed 10 s window keep the simulated horizon, and
        # so the event count, nearly the same for every seed.
        deaths = {int(h): float(t) for h, t in zip(hosts, 50.0 + 10.0 * rng.random(2))}

        def verify(detections) -> bool:
            self._count(index, detections=len(detections))
            return sorted(d.host for d in detections) == sorted(deaths)

        return Op(
            "heartbeat_sim",
            lambda: self.detector.simulate(self.topology, deaths),
            verify,
        )

    def build_pass(self, index: int) -> list[list[Op]]:
        rng = subseed(self.seed, 1, index)
        seeds = iter(rng.integers(0, 2**31 - 1, size=16).tolist())
        ops = [self._cluster(index, n, next(seeds)) for n in TENANT_COUNTS]
        ops += [self._chaos_acct(index, next(seeds)) for _ in range(3)]
        ops += [self._chaos_real(index, next(seeds)) for _ in range(6)]
        ops.append(Op(
            "cluster_contention",
            lambda seed=next(seeds): contention_demo(seed), checks.solo_replays_identical,
        ))
        ops.append(Op(
            "cluster_elastic",
            lambda seed=next(seeds): elastic_demo(seed), checks.solo_replays_identical,
        ))
        ops.append(self._heartbeat(index, rng))
        return [ops]

    def counters(self) -> dict[str, float]:
        t = self.totals
        return {
            "cluster.ticks": t["ticks"],
            "cluster.events": t["events"],
            "resilience.restarts": t["restarts"],
            "resilience.lost_steps": t["lost_steps"],
            "controlplane.detections": t["detections"],
        }

    def layer_metrics(self, passes: list[PassResult]) -> dict[str, float]:
        out = {}
        for n in TENANT_COUNTS:
            ticks = sum(self.work[i][f"ticks_{n}"] for i in range(len(passes)))
            seconds = pooled_ms(passes, f"cluster_{n}").sum() / 1e3
            out[f"cluster.ticks_per_s_{n}"] = ticks / seconds if seconds else 0.0
        out["resilience.chaos_acct_us_per_step"] = (
            1e3 * kind_median_ms(passes, "chaos_acct") / ACCT_STEPS
        )
        out["resilience.chaos_real_ms_per_step"] = (
            kind_median_ms(passes, "chaos_real") / REAL_STEPS
        )
        out["controlplane.heartbeat_sim_ms"] = kind_median_ms(passes, "heartbeat_sim")
        return out

    def probes(self) -> dict[str, float]:
        # One real-numerics tenant alone on a 2x2 pod, then its solo replay.
        spec = JobSpec(
            name="probe", slice_shape=REAL_MESH, target_steps=12,
            checkpoint_interval=4,
            trainer_config=_real_trainer_config().with_(seed=None),
            batch_fn_factory=_batch_fn_factory,
        )
        config = ClusterConfig(mesh_shape=REAL_MESH, chips_per_host=2, seed=self.seed)
        report = ClusterScheduler([spec], config).run().jobs["probe"]
        state = ClusterState(POD)

        def alloc_release() -> None:
            for i in range(16):
                state.allocate(f"j{i}", (4, 4))
            for i in range(16):
                state.release(f"j{i}")

        trainer = make_trainer(
            TrainerConfig(
                model=MLP([64, 256, 256, 16]), optimizer=Adam(learning_rate=0.01),
                strategy="single", seed=0,
            )
        )
        ckpt = trainer.save_checkpoint()
        with tempfile.TemporaryDirectory(prefix="ckpt-", dir=self.scratch) as tmp:
            path = os.path.join(tmp, "ckpt.npz")

            def roundtrip() -> None:
                ckpt.save(path)
                TrainerCheckpoint.load(path)

            roundtrip_s = median_time(roundtrip, 5)
        return {
            "cluster.solo_replay_ms": 1e3 * median_time(
                lambda: solo_replay(spec, report, self.seed), 5
            ),
            "cluster.alloc_us": 1e6 * median_time(alloc_release, 15) / 32,
            "resilience.checkpoint_roundtrip_ms": 1e3 * roundtrip_s,
        }
