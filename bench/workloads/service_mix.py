"""``service_mix`` — what-if queries through ``SimulationService``, 2 clients.

Two closed-loop client threads submit a seed-shuffled mix and wait for each
outcome.  Light jobs make the ``service`` layer itself (hashing, queue
hand-off, cache, token bucket) the p50; heavy jobs make executor time under
the GIL the throughput and p90 — so a process-pool or virtual-clock change
that helps heavy jobs but taxes light ones shows both effects in one table.
Cache reads (hits) sit beside journal writes (the fsync'd sweep).
"""

from __future__ import annotations

import itertools
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

from bench import checks
from bench.harness import Op, PassResult, kind_median_ms
from bench.workloads import Workload, median_time, subseed, survivable_plan
from repro.service import (
    ServiceConfig,
    SimJob,
    SimulationService,
    content_key,
    executors,
    run_sweep,
)

#: kind -> jobs per client per pass
MIX = {
    "steptime_miss": 60,
    "steptime_hit": 25,
    "chaos": 7,
    "cluster": 5,
    "steptime_heavy": 3,
}
HOT_SPECS = 8
SWEEP_JOBS = 64
OUTCOME_TIMEOUT_S = 60.0


def _miss_params(n: int) -> dict:
    # Every batch is divisible by the 256 chips; ``n`` never repeats.
    return {"model": "resnet50", "chips": 256, "global_batch": 2048 + 256 * n}


def _hot_params(i: int) -> dict:
    return {
        "model": "resnet50", "chips": (16, 64, 256, 1024)[i % 4],
        "global_batch": 4096 * (1 + i // 4),
    }


def _heavy_params(n: int) -> dict:
    # Bucket counts stay in a band of equal cost; the tag keeps keys distinct.
    return {
        "model": "bert", "chips": 4096, "global_batch": 8192,
        "overlap": True, "buckets": 4 + n % 60, "tag": n,
    }


def _chaos_params(seed: int) -> dict:
    # The executor samples its fault plan from exactly these parameters.
    expected = {"expected_chip_failures": 0.3, "expected_stragglers": 1.0}
    seed, _ = survivable_plan(seed, (2, 2), 50, expected_preemptions=0.0, **expected)
    return {"mesh_shape": [2, 2], "steps": 50, "seed": seed, **expected}


def _cluster_params(seed: int) -> dict:
    tenants = [
        {"name": f"t{i}", "slice_shape": [4, 4], "target_steps": 40}
        for i in range(8)
    ]
    return {
        "mesh_shape": [8, 8], "tenants": tenants,
        "expected_chip_failures": 2.0, "seed": seed,
    }


class ServiceMix(Workload):
    name = "service_mix"
    clients = 2

    def setup(self) -> None:
        self.service = SimulationService(
            ServiceConfig(
                concurrency=2, queue_depth=64, cache_entries=256,
                rate_capacity=1e9, rate_refill_per_s=1e9,
            )
        ).start()
        self.tmp = Path(tempfile.mkdtemp(prefix="journal-", dir=self.scratch))
        #: Never-repeating job number: every "fresh" spec takes the next one.
        self.fresh = itertools.count()
        self.hot = [SimJob("steptime", _hot_params(i)) for i in range(HOT_SPECS)]
        # The first miss of each hot spec; later hits must return the same.
        self.hot_payloads = [self._run(job, "setup")[1] for job in self.hot]

    def _run(self, job: SimJob, client: str):
        return self.service.submit(job, client=client).outcome(OUTCOME_TIMEOUT_S)

    def _job_op(self, kind: str, job: SimJob, client: str, expect=None) -> Op:
        def verify(outcome) -> bool:
            reason, payload = outcome
            return reason == "ok" and (expect is None or payload == expect)

        return Op(kind, lambda: self._run(job, client), verify)

    def _client_ops(self, client: int, rng) -> list[Op]:
        name = f"client-{client}"
        ops = [
            self._job_op(
                "steptime_miss", SimJob("steptime", _miss_params(next(self.fresh))), name
            )
            for _ in range(MIX["steptime_miss"])
        ]
        for i in rng.integers(0, HOT_SPECS, size=MIX["steptime_hit"]).tolist():
            ops.append(self._job_op("steptime_hit", self.hot[i], name, self.hot_payloads[i]))
        for seed in rng.integers(0, 2**31 - 1, size=MIX["chaos"]).tolist():
            ops.append(self._job_op("chaos", SimJob("chaos", _chaos_params(seed)), name))
        for seed in rng.integers(0, 2**31 - 1, size=MIX["cluster"]).tolist():
            ops.append(self._job_op("cluster", SimJob("cluster", _cluster_params(seed)), name))
        ops += [
            self._job_op(
                "steptime_heavy", SimJob("steptime", _heavy_params(next(self.fresh))), name
            )
            for _ in range(MIX["steptime_heavy"])
        ]
        return [ops[i] for i in rng.permutation(len(ops))]

    def _sweep_ops(self, index: int) -> list[Op]:
        jobs = [
            SimJob("steptime", _miss_params(next(self.fresh)))
            for _ in range(SWEEP_JOBS)
        ]
        journal = self.tmp / f"sweep_{index}.jsonl"

        def sweep():
            return run_sweep(self.service, jobs, journal, client="client-0")

        return [
            Op("sweep", sweep, lambda r: r.executed == SWEEP_JOBS),
            # The same call again: everything comes back from the journal.
            Op("resume", sweep, lambda r: r.executed == 0 and r.reused == SWEEP_JOBS),
        ]

    def build_pass(self, index: int) -> list[list[Op]]:
        clients = [
            self._client_ops(c, subseed(self.seed, 1, index, c))
            for c in range(self.clients)
        ]
        clients[0] += self._sweep_ops(index)
        return clients

    def finish(self, passes: list[PassResult]) -> None:
        every = tuple(MIX) + ("sweep", "resume")
        self.checks["service_accounting"] = (
            checks.service_accounted(self.service.snapshot()), every
        )

    def counters(self) -> dict[str, float]:
        snap = self.service.snapshot()
        return {
            "service.retries": snap["retries"],
            "service.rejected": sum(snap["rejected"].values()),
        }

    def pass0_values(self) -> dict[str, float]:
        snap = self.service.snapshot()
        return {"service.cache_hit_ratio": snap["cache_hits"] / snap["submitted"]}

    def layer_metrics(self, passes: list[PassResult]) -> dict[str, float]:
        out = {f"service.ms_{kind}": kind_median_ms(passes, kind) for kind in MIX}
        out["service.sweep_ms_per_job"] = kind_median_ms(passes, "sweep") / SWEEP_JOBS
        out["service.resume_ms_per_job"] = kind_median_ms(passes, "resume") / SWEEP_JOBS
        return out

    def _chaos_jobs_per_s(self, clients: int, jobs_per_client: int, rng) -> float:
        """Closed-loop chaos-job throughput with ``clients`` client threads."""
        seeds = rng.integers(0, 2**31 - 1, size=(clients, jobs_per_client)).tolist()

        def client(c: int) -> None:
            for seed in seeds[c]:
                self._run(SimJob("chaos", _chaos_params(seed)), f"probe-{c}")

        threads = [threading.Thread(target=client, args=(c,)) for c in range(clients)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(OUTCOME_TIMEOUT_S)
        return clients * jobs_per_client / (time.perf_counter() - t0)

    def probes(self) -> dict[str, float]:
        rng = subseed(self.seed, 2)
        through, direct = [], []
        for _ in range(200):
            job = SimJob("steptime", _miss_params(next(self.fresh)))
            t0 = time.perf_counter()
            self._run(job, "probe")
            through.append(time.perf_counter() - t0)
            twin = SimJob("steptime", _miss_params(next(self.fresh)))
            t0 = time.perf_counter()
            executors.execute(twin)
            direct.append(time.perf_counter() - t0)
        params = _cluster_params(0)
        one = self._chaos_jobs_per_s(1, 8, rng)
        two = self._chaos_jobs_per_s(2, 4, rng)
        return {
            "service.overhead_us": 1e6 * (
                statistics.median(through) - statistics.median(direct)
            ),
            "service.c2_over_c1_jobs_per_s": two / one,
            "service.content_key_us": 1e6 * median_time(
                lambda: content_key("cluster", params), 200
            ),
        }

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.stop()
        tmp = getattr(self, "tmp", None)
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
