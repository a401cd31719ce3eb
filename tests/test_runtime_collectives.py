"""Functional collective tests: the numpy ring algorithms vs ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.bfloat16 import BF16_EPS
from repro.runtime.collectives import (
    ShardedValue,
    all_gather_grid,
    reduce_scatter_grid,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
    two_phase_all_reduce,
)


def _device_buffers(rng, n, shape):
    return [rng.standard_normal(shape) for _ in range(n)]


class TestRingReduceScatter:
    def test_shards_sum_to_total(self, rng):
        arrays = _device_buffers(rng, 4, (40,))
        sv = ring_reduce_scatter(arrays, "f64")
        assert np.allclose(sv.assemble(), np.sum(arrays, axis=0))

    def test_padding_handled(self, rng):
        arrays = _device_buffers(rng, 4, (37,))  # 37 % 4 != 0
        sv = ring_reduce_scatter(arrays, "f64")
        assert sv.assemble().shape == (37,)
        assert np.allclose(sv.assemble(), np.sum(arrays, axis=0))

    def test_multidim_buffers(self, rng):
        arrays = _device_buffers(rng, 3, (4, 5))
        sv = ring_reduce_scatter(arrays, "f64")
        assert np.allclose(sv.assemble(), np.sum(arrays, axis=0))

    def test_single_device(self, rng):
        arrays = _device_buffers(rng, 1, (10,))
        sv = ring_reduce_scatter(arrays, "f64")
        assert np.allclose(sv.assemble(), arrays[0])

    def test_shapes_must_match(self, rng):
        with pytest.raises(ValueError):
            ring_reduce_scatter([np.zeros(4), np.zeros(5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ring_reduce_scatter([])

    def test_unknown_policy(self, rng):
        with pytest.raises(ValueError):
            ring_reduce_scatter(_device_buffers(rng, 2, (4,)), "f16")

    def test_each_device_owns_equal_chunk(self, rng):
        arrays = _device_buffers(rng, 4, (40,))
        sv = ring_reduce_scatter(arrays, "f64")
        assert all(s.size == 10 for s in sv.shards)


class TestRingAllGather:
    def test_roundtrip(self, rng):
        arrays = _device_buffers(rng, 5, (23,))
        sv = ring_reduce_scatter(arrays, "f64")
        gathered = ring_all_gather(sv)
        truth = np.sum(arrays, axis=0)
        assert len(gathered) == 5
        for g in gathered:
            assert np.allclose(g, truth)

    def test_single_device(self, rng):
        sv = ring_reduce_scatter(_device_buffers(rng, 1, (7,)), "f64")
        (out,) = ring_all_gather(sv)
        assert out.shape == (7,)


class TestRingAllReduce:
    def test_matches_sum_f64(self, rng):
        arrays = _device_buffers(rng, 6, (31,))
        out = ring_all_reduce(arrays, "f64")
        truth = np.sum(arrays, axis=0)
        for o in out:
            assert np.allclose(o, truth, rtol=1e-12)

    def test_f32_close(self, rng):
        arrays = [a.astype(np.float32) for a in _device_buffers(rng, 8, (64,))]
        out = ring_all_reduce(arrays, "f32")
        truth = np.sum(arrays, axis=0, dtype=np.float64)
        assert np.allclose(out[0], truth, rtol=1e-5, atol=1e-5)

    def test_bf16_within_bound(self, rng):
        n = 8
        arrays = [a.astype(np.float32) for a in _device_buffers(rng, n, (64,))]
        out = ring_all_reduce(arrays, "bf16")
        truth = np.sum(arrays, axis=0, dtype=np.float64)
        scale = np.sum(np.abs(arrays), axis=0)
        assert np.all(np.abs(out[0] - truth) <= 3 * n * BF16_EPS * scale + 1e-5)

    @given(
        n=st.integers(min_value=1, max_value=9),
        size=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_sum(self, n, size, seed):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(size) for _ in range(n)]
        out = ring_all_reduce(arrays, "f64")
        truth = np.sum(arrays, axis=0)
        assert len(out) == n
        for o in out:
            assert np.allclose(o, truth, rtol=1e-10, atol=1e-12)


class TestTwoPhase:
    def test_matches_sum(self, rng):
        grid = [[rng.standard_normal((5, 3)) for _ in range(3)] for _ in range(4)]
        out = two_phase_all_reduce(grid, "f64")
        truth = np.sum([g for col in grid for g in col], axis=0)
        for x in range(4):
            for y in range(3):
                assert np.allclose(out[x][y], truth, rtol=1e-12)

    def test_shard_transform_applied(self, rng):
        """The sharded update runs between the halves: each device updates
        the shard the reduce-scatter hands it, the all-gather returns the
        updated values."""
        grid = [[rng.standard_normal(11) for _ in range(2)] for _ in range(2)]
        shards = [[-sv.shards[0] for sv in col] for col in reduce_scatter_grid(grid, "f64")]
        out = all_gather_grid(shards, (11,), "f64")
        truth = -np.sum([g for col in grid for g in col], axis=0)
        assert np.allclose(out[0][0], truth)

    def test_ragged_grid_rejected(self, rng):
        grid = [[np.zeros(4)], [np.zeros(4), np.zeros(4)]]
        with pytest.raises(ValueError, match="ragged"):
            two_phase_all_reduce(grid)

    @given(
        x=st.integers(min_value=1, max_value=4),
        y=st.integers(min_value=1, max_value=4),
        size=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_grid_sum(self, x, y, size, seed):
        rng = np.random.default_rng(seed)
        grid = [[rng.standard_normal(size) for _ in range(y)] for _ in range(x)]
        out = two_phase_all_reduce(grid, "f64")
        truth = np.sum([g for col in grid for g in col], axis=0)
        for col in out:
            for o in col:
                assert np.allclose(o, truth, rtol=1e-10, atol=1e-12)


class TestGridPhases:
    def test_reduce_scatter_grid_shards(self, rng):
        grid = [[rng.standard_normal(24) for _ in range(3)] for _ in range(2)]
        reduced = reduce_scatter_grid(grid, "f64")
        # Reassemble: for each y chunk, concatenate x shards; then concat y.
        truth = np.sum([g for col in grid for g in col], axis=0)
        pieces = []
        for y in range(3):
            for x in range(2):
                pieces.append(reduced[x][y].shards[0])
        assert np.allclose(np.concatenate(pieces)[:24], truth)

    def test_all_gather_grid_roundtrip(self, rng):
        grid = [[rng.standard_normal(24) for _ in range(3)] for _ in range(2)]
        reduced = reduce_scatter_grid(grid, "f64")
        shards = [[reduced[x][y].shards[0] for y in range(3)] for x in range(2)]
        full = all_gather_grid(shards, (24,), "f64")
        truth = np.sum([g for col in grid for g in col], axis=0)
        for col in full:
            for o in col:
                assert np.allclose(o, truth)


class TestShardedValue:
    def test_assemble_strips_padding(self):
        sv = ShardedValue(
            shards=[np.arange(3.0), np.array([3.0, 0.0, 0.0])],
            shape=(4,),
            padded_size=6,
        )
        assert np.array_equal(sv.assemble(), np.arange(4.0))
