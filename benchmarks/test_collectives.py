"""Benchmark: functional collective kernels on the virtual mesh.

Every vectorized kernel is benchmarked next to its step-by-step
``_reference_*`` twin (kept in :mod:`repro.runtime.collectives` as the
bit-identity oracle), so a single ``--benchmark-enable`` run produces the
before/after speedup table that ``benchmarks/run_benchmarks.py`` writes to
``BENCH_collectives.json``.  The pod-scale cases guard the scaling claim:
the device-major (stacked) path runs full-mesh all-reduces at 256, 1024
and 4096 devices, each of which must stay under two seconds per call.
The ``_reference_*`` twins are only benchmarked at 16 devices — at 4096
the O(n^2)-Python-steps reference takes minutes per round.

With timing disabled (tier-1's ``--benchmark-disable``, one call per case
as a correctness check) the 1024- and 4096-device blocks carry ``SIZE //
8`` floats per device: drawing the full blocks alone took ~15 s of fixture
set-up, and the device count — what the oracle and the ring schedule
depend on — is unchanged.
"""

import time

import numpy as np
import pytest

from repro.runtime.bucket import GradientBucket
from repro.runtime.collectives import (
    _reference_ring_all_reduce,
    _reference_two_phase_all_reduce,
    ring_all_reduce,
    ring_all_reduce_stacked,
    two_phase_all_reduce,
    two_phase_all_reduce_stacked,
)

SIZE = 1 << 16
DEVICES = 16
BIG_DEVICES = 256
HUGE_DEVICES = 1024
MAX_DEVICES = 4096


@pytest.fixture(scope="module")
def ring_inputs():
    rng = np.random.default_rng(0)
    return [rng.standard_normal(SIZE).astype(np.float32) for _ in range(DEVICES)]


@pytest.fixture(scope="module")
def grid_inputs():
    rng = np.random.default_rng(0)
    return [
        [rng.standard_normal(SIZE).astype(np.float32) for _ in range(4)]
        for _ in range(4)
    ]


@pytest.fixture(scope="module")
def big_ring_block():
    rng = np.random.default_rng(1)
    return rng.standard_normal((BIG_DEVICES, SIZE), dtype=np.float32)


@pytest.fixture(scope="module")
def pod_payload(request):
    """Floats per device of the 1024/4096-device blocks: full when timing."""
    option = request.config.getoption
    timing = option("benchmark_enable") or not option("benchmark_disable")
    return SIZE if timing else SIZE // 8


@pytest.fixture(scope="module")
def huge_ring_block(pod_payload):
    rng = np.random.default_rng(3)
    return rng.standard_normal((HUGE_DEVICES, pod_payload), dtype=np.float32)


@pytest.fixture(scope="module")
def max_ring_block(pod_payload):
    # When timed: 4096 x 64K floats = 1 GiB of gradients, the full-pod
    # configuration.
    rng = np.random.default_rng(4)
    return rng.standard_normal((MAX_DEVICES, pod_payload), dtype=np.float32)


@pytest.fixture(scope="module")
def bucket_trees():
    rng = np.random.default_rng(2)
    shapes = {
        "w0": (128, 256), "b0": (256,), "w1": (256, 96), "b1": (96,),
        "w2": (96, 64), "b2": (64,),
    }
    return [
        {k: rng.standard_normal(v).astype(np.float32) for k, v in shapes.items()}
        for _ in range(DEVICES)
    ]


def _annotate(benchmark, devices, payload):
    benchmark.extra_info["devices"] = devices
    benchmark.extra_info["payload_floats"] = payload


def test_ring_all_reduce_f32(benchmark, ring_inputs):
    _annotate(benchmark, DEVICES, SIZE)
    out = benchmark(ring_all_reduce, ring_inputs, "f32")
    truth = np.sum(ring_inputs, axis=0, dtype=np.float64)
    assert np.allclose(out[0], truth, rtol=1e-4, atol=1e-3)


def test_ring_all_reduce_f32_reference(benchmark, ring_inputs):
    _annotate(benchmark, DEVICES, SIZE)
    out = benchmark(_reference_ring_all_reduce, ring_inputs, "f32")
    truth = np.sum(ring_inputs, axis=0, dtype=np.float64)
    assert np.allclose(out[0], truth, rtol=1e-4, atol=1e-3)


def test_ring_all_reduce_bf16(benchmark, ring_inputs):
    _annotate(benchmark, DEVICES, SIZE)
    out = benchmark(ring_all_reduce, ring_inputs, "bf16")
    truth = np.sum(ring_inputs, axis=0, dtype=np.float64)
    assert np.allclose(out[0], truth, rtol=0.2, atol=0.5)


def test_ring_all_reduce_bf16_reference(benchmark, ring_inputs):
    _annotate(benchmark, DEVICES, SIZE)
    out = benchmark(_reference_ring_all_reduce, ring_inputs, "bf16")
    truth = np.sum(ring_inputs, axis=0, dtype=np.float64)
    assert np.allclose(out[0], truth, rtol=0.2, atol=0.5)


def test_two_phase_all_reduce(benchmark, grid_inputs):
    _annotate(benchmark, DEVICES, SIZE)
    out = benchmark(two_phase_all_reduce, grid_inputs, "f32")
    truth = np.sum([g for col in grid_inputs for g in col], axis=0,
                   dtype=np.float64)
    assert np.allclose(out[0][0], truth, rtol=1e-4, atol=1e-3)


def test_two_phase_all_reduce_reference(benchmark, grid_inputs):
    _annotate(benchmark, DEVICES, SIZE)
    out = benchmark(_reference_two_phase_all_reduce, grid_inputs, "f32")
    truth = np.sum([g for col in grid_inputs for g in col], axis=0,
                   dtype=np.float64)
    assert np.allclose(out[0][0], truth, rtol=1e-4, atol=1e-3)


def test_ring_all_reduce_f32_256dev(benchmark, big_ring_block):
    """Pod-scale ring on the device-major path: 256 devices x 64K floats."""
    _annotate(benchmark, BIG_DEVICES, SIZE)
    out = benchmark(ring_all_reduce_stacked, big_ring_block, "f32")
    truth = np.sum(big_ring_block, axis=0, dtype=np.float64)
    assert np.allclose(out.device_view(0), truth, rtol=1e-3, atol=1e-2)
    start = time.perf_counter()
    ring_all_reduce_stacked(big_ring_block, "f32")
    assert time.perf_counter() - start < 2.0


def test_ring_all_reduce_f32_1024dev(benchmark, huge_ring_block):
    """1024-device full ring, stacked path: must stay under two seconds."""
    _annotate(benchmark, HUGE_DEVICES, huge_ring_block.shape[1])
    out = benchmark(ring_all_reduce_stacked, huge_ring_block, "f32")
    truth = np.sum(huge_ring_block, axis=0, dtype=np.float64)
    assert np.allclose(out.device_view(0), truth, rtol=1e-3, atol=1e-1)
    start = time.perf_counter()
    ring_all_reduce_stacked(huge_ring_block, "f32")
    assert time.perf_counter() - start < 2.0


def test_ring_all_reduce_f32_4096dev(benchmark, max_ring_block):
    """4096-device full ring over 1 GiB of gradients, stacked path."""
    _annotate(benchmark, MAX_DEVICES, max_ring_block.shape[1])
    out = benchmark(ring_all_reduce_stacked, max_ring_block, "f32")
    truth = np.sum(max_ring_block, axis=0, dtype=np.float64)
    assert np.allclose(out.device_view(0), truth, rtol=1e-3, atol=1e-1)
    start = time.perf_counter()
    ring_all_reduce_stacked(max_ring_block, "f32")
    assert time.perf_counter() - start < 2.0


def test_two_phase_all_reduce_1024dev(benchmark, huge_ring_block):
    """32x32 torus two-phase all-reduce on the stacked path."""
    _annotate(benchmark, HUGE_DEVICES, huge_ring_block.shape[1])
    out = benchmark(
        two_phase_all_reduce_stacked, huge_ring_block, (32, 32), "f32"
    )
    truth = np.sum(huge_ring_block, axis=0, dtype=np.float64)
    assert np.allclose(out.device_view(0), truth, rtol=1e-3, atol=1e-1)


def test_two_phase_all_reduce_4096dev(benchmark, max_ring_block):
    """64x64 torus two-phase all-reduce, the paper's full-pod grid shape."""
    _annotate(benchmark, MAX_DEVICES, max_ring_block.shape[1])
    out = benchmark(
        two_phase_all_reduce_stacked, max_ring_block, (64, 64), "f32"
    )
    truth = np.sum(max_ring_block, axis=0, dtype=np.float64)
    assert np.allclose(out.device_view(0), truth, rtol=1e-3, atol=1e-1)
    start = time.perf_counter()
    two_phase_all_reduce_stacked(max_ring_block, (64, 64), "f32")
    assert time.perf_counter() - start < 2.0


def test_bucketed_all_reduce(benchmark, bucket_trees):
    """One fused collective for a whole parameter tree (the trainer path)."""
    bucket = GradientBucket(bucket_trees[0])
    _annotate(benchmark, DEVICES, bucket.size)
    out = benchmark(bucket.all_reduce, bucket_trees, "f32")
    truth = np.sum([t["b0"] for t in bucket_trees], axis=0, dtype=np.float64)
    assert np.allclose(out[0]["b0"], truth, rtol=1e-4, atol=1e-3)
