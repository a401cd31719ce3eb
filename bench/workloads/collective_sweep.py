"""``collective_sweep`` — ``repro.runtime`` alone: no trainer, optimizer or model.

Integer-valued f32 blocks (values in [-8, 8]) make every sum exact in any
order, so the oracle is ``np.array_equal`` against the column sum.  A kernel
or storage change shows here at full size and in ``train_step`` only in
proportion to the collective share; a trainer-loop or telemetry change must
show no change here.  Largest block is 64 MiB; there is no 4096-device case.
"""

from __future__ import annotations

import numpy as np

from bench import checks
from bench.harness import Op, PassResult, kind_median_ms
from bench.workloads import (
    Workload,
    hit_ratio,
    median_time,
    runtime_counters,
    subseed,
)
from repro import telemetry
from repro.runtime import (
    VirtualMesh,
    ring_all_reduce,
    ring_all_reduce_stacked,
    two_phase_all_reduce_stacked,
)

#: case -> (devices, elements per device, calls per pass)
CASES = {
    "ring_f32_16": (16, 65_536, 40),
    "ring_list_16": (16, 65_536, 40),
    "ring_bf16_64": (64, 65_536, 10),
    "ring_f32_256": (256, 65_536, 20),
    "ring_f32_1024": (1024, 16_384, 10),
    "grid_4x4": (16, 65_536, 40),
    "grid_16x16": (256, 65_536, 20),
    "grid_32x32": (1024, 16_384, 10),
}
GRIDS = {"grid_4x4": (4, 4), "grid_16x16": (16, 16), "grid_32x32": (32, 32)}
#: The bf16 case rounds per hop, so it has no exact-sum oracle.
EXACT_CASES = tuple(c for c in CASES if c != "ring_bf16_64")


class CollectiveSweep(Workload):
    name = "collective_sweep"

    def setup(self) -> None:
        rng = subseed(self.seed, 1)
        # One block per distinct (devices, size); cases sharing a shape share
        # the data ("the same layer used through its other API").
        self.blocks: dict[tuple[int, int], np.ndarray] = {}
        for devices, size, _ in CASES.values():
            if (devices, size) not in self.blocks:
                self.blocks[devices, size] = rng.integers(
                    -8, 9, size=(devices, size)
                ).astype(np.float32)
        self.rows_16 = list(self.blocks[16, 65_536])
        self._check_exact("first")

    def _call(self, case: str):
        devices, size, _ = CASES[case]
        block = self.blocks[devices, size]
        if case == "ring_list_16":
            rows = self.rows_16
            return lambda: ring_all_reduce(rows, "f32")
        if case == "ring_bf16_64":
            return lambda: ring_all_reduce_stacked(block, "bf16")
        if case in GRIDS:
            grid = GRIDS[case]
            return lambda: two_phase_all_reduce_stacked(block, grid, "f32")
        return lambda: ring_all_reduce_stacked(block, "f32")

    def _check_exact(self, when: str) -> None:
        """Untimed oracle call of every f32 case."""
        for case in EXACT_CASES:
            devices, size, _ = CASES[case]
            ok = checks.exact_sum(self.blocks[devices, size], self._call(case)())
            self.checks[f"exact_sum_{case}_{when}"] = (ok, (case,))

    def build_pass(self, index: int) -> list[list[Op]]:
        return [[
            Op(case, self._call(case))
            for case, (_, _, calls) in CASES.items()
            for _ in range(calls)
        ]]

    def finish(self, passes: list[PassResult]) -> None:
        self._check_exact("last")

    def counters(self) -> dict[str, float]:
        return runtime_counters()

    def layer_metrics(self, passes: list[PassResult]) -> dict[str, float]:
        out = {f"runtime.{case}_ms": kind_median_ms(passes, case) for case in CASES}
        telemetry.metrics.snapshot()  # runs the cache-gauge collectors
        value = telemetry.metrics.value
        out["runtime.scratch_pool_hit_ratio"] = hit_ratio(
            value("scratch_pool_cache_hits"), value("scratch_pool_cache_misses")
        )
        out["runtime.padding_layout_hit_ratio"] = hit_ratio(
            value("padding_layout_cache_hits"), value("padding_layout_cache_misses")
        )
        return out

    def probes(self) -> dict[str, float]:
        # The same 16-device data through the VirtualMesh storage API: one
        # put per device, a 4x4 all-reduce, one get per device.
        total = telemetry.metrics.total
        before = total("mesh_put_bytes") + total("mesh_get_bytes")
        mesh = VirtualMesh(4, 4)

        def round_trip() -> None:
            for device, row in zip(mesh.devices(), self.rows_16):
                mesh.put("g", device, row)
            mesh.all_reduce("g")
            for device in mesh.devices():
                mesh.get("g", device)

        seconds = median_time(round_trip, 5)
        moved = total("mesh_put_bytes") + total("mesh_get_bytes") - before
        return {
            "runtime.mesh_put_get_bytes": moved / 5,
            "runtime.mesh_round_trip_16_ms": 1e3 * seconds,
        }
