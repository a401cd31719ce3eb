"""The five benchmark workloads and the interface the worker drives.

Each workload is a fixed pass (an ordered op list per client) whose shape
never depends on the seed: the seed only generates input values, fault-plan
seeds, payload sizes and the order of the service mix.
"""

from __future__ import annotations

import importlib
import time
from pathlib import Path
from typing import Callable

import numpy as np

from bench.harness import Op, PassResult

#: Pass index of the untimed warm-up pass (timed passes count from 0), so
#: warm-up inputs never repeat inside a timed pass.
WARMUP = -1


def subseed(seed: int, *parts: int) -> np.random.Generator:
    """Generator for one named stream of a run: same seed, same inputs."""
    return np.random.default_rng([seed & 0xFFFFFFFF, *[p & 0xFFFFFFFF for p in parts]])


def median_time(fn: Callable[[], object], repeats: int) -> float:
    """Median seconds of ``repeats`` direct calls (the per-layer probes)."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def runtime_counters() -> dict[str, float]:
    """The ``repro.runtime`` work counters (exact for a fixed op list)."""
    from repro import telemetry

    total = telemetry.metrics.total
    return {
        "runtime.collective_bytes": total("collective_bytes"),
        "runtime.collective_ring_steps": total("collective_ring_steps"),
        "runtime.collective_launches": total("collective_launches"),
    }


def survivable_plan(seed: int, mesh_shape, steps: int, **expected):
    """``(seed, plan)``: the first sampled fault plan that leaves a chip alive.

    No operation of the benchmark may fail by design, so a seed whose plan
    exterminates the fleet is skipped, deterministically, for the next one.
    """
    from repro.resilience.faults import FaultPlan

    chips = mesh_shape[0] * mesh_shape[1]
    while True:
        plan = FaultPlan.sample(seed, tuple(mesh_shape), steps, **expected)
        if len(plan.chip_failures) < chips:
            return seed, plan
        seed += 1


def hit_ratio(hits: float, misses: float) -> float:
    """Useful outcomes over attempts (0 when nothing was attempted)."""
    return hits / (hits + misses) if hits + misses else 0.0


class Workload:
    """What the worker needs from a workload.

    ``checks`` collects named verdicts of output checks that cover whole op
    kinds: ``checks[name] = (ok, kinds)``; a false verdict fails every op
    of the listed kinds.
    """

    name: str = ""
    #: Closed-loop client threads issuing ops.
    clients: int = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        #: Directory (inside the checkout) for the workload's temporary files.
        self.scratch = scratch
        self.checks: dict[str, tuple[bool, tuple[str, ...]]] = {}

    def setup(self) -> None:
        """Build inputs and persistent state (part of ``setup_s``)."""

    def build_pass(self, index: int) -> list[list[Op]]:
        """The op list of every client for pass ``index`` (untimed)."""
        raise NotImplementedError

    def counters(self) -> dict[str, float]:
        """Monotone work counters; the worker reports their delta over pass 0."""
        return {}

    def pass0_values(self) -> dict[str, float]:
        """Values read right after timed pass 0 that repeat exactly for a seed."""
        return {}

    def finish(self, passes: list[PassResult]) -> None:
        """Run the end-of-run output checks into ``self.checks``."""

    def layer_metrics(self, passes: list[PassResult]) -> dict[str, float]:
        """Per-layer numbers derived from the untraced timed passes."""
        return {}

    def probes(self) -> dict[str, float]:
        """Direct per-layer measurements owned by this workload (traced run)."""
        return {}

    def close(self) -> None:
        """Stop threads and remove temporary files."""


#: name -> class name; the module of a workload is ``bench.workloads.<name>``.
WORKLOADS = {
    "train_step": "TrainStep",
    "collective_sweep": "CollectiveSweep",
    "plan_query": "PlanQuery",
    "cluster_chaos": "ClusterChaos",
    "service_mix": "ServiceMix",
}


def load(name: str) -> type[Workload]:
    """Import one workload (and only the ``repro`` layers it uses)."""
    module = importlib.import_module(f"bench.workloads.{name}")
    return getattr(module, WORKLOADS[name])
