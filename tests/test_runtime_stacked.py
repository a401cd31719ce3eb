"""Device-major (stacked) collective execution: bit-identity and semantics.

The stacked kernels of :mod:`repro.runtime.collectives` claim the exact
ring accumulation order of the per-device references at any scale — these
tests pin that with hypothesis across policies and with deterministic
256+/4096-device cases, exercise the stacked mesh storage, and lock down
the bounded-LRU behavior of the scratch/layout/schedule caches.

The full 4096-device run against ``_reference_*`` takes minutes (the
reference is O(n^2) Python steps), so tier-1 pins 4096 devices against the
scalar vectorized kernel (itself reference-pinned here and in
``test_runtime_vectorized.py``) and the reference cross-check at that scale
runs only with ``REPRO_SLOW_TESTS=1``.
"""

import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.runtime.bucket import GradientBucket
from repro.runtime.collectives import (
    _LRUBufferPool,
    _reference_all_gather_grid,
    _reference_reduce_scatter_grid,
    _reference_ring_all_gather,
    _reference_ring_all_reduce,
    _reference_ring_reduce_scatter,
    _reference_two_phase_all_reduce,
    all_gather_grid,
    padded_chunk_layout,
    reduce_scatter_grid,
    ring_all_gather,
    ring_all_gather_stacked,
    ring_all_reduce,
    ring_all_reduce_stacked,
    ring_reduce_scatter,
    two_phase_all_reduce,
    two_phase_all_reduce_stacked,
)
from repro.runtime.mesh import VirtualMesh
from repro.runtime.stacked import StackedValue

POLICIES = ["f32", "bf16", "f64"]


def _assert_bit_identical(got: np.ndarray, want: np.ndarray) -> None:
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    # Byte comparison: equal NaNs count as identical, -0.0 != +0.0.
    assert got.tobytes() == want.tobytes()


def _inputs(n: int, size: int, seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    arrays = []
    for _ in range(n):
        a = rng.standard_normal(size).astype(np.float32)
        a *= rng.choice([1.0, 256.0, 2.0**-20], size=size).astype(np.float32)
        arrays.append(a)
    return arrays


def _special_inputs(n: int, size: int, seed: int) -> list[np.ndarray]:
    """Adversarial rows: signed zeros, NaN, +/-inf, f32 overflow."""
    rng = np.random.default_rng(seed)
    arrays = []
    for d in range(n):
        a = rng.standard_normal(size).astype(np.float32)
        a[d % size] = -0.0
        a[(d + 3) % size] = np.nan
        a[(d + 5) % size] = np.inf
        a[(d + 7) % size] = -np.inf
        a[(d + 11) % size] = np.float32(3e38)  # overflow when summed
        arrays.append(a)
    return arrays


class TestStackedValue:
    def test_stack_and_views(self):
        arrays = [np.arange(4.0) + d for d in range(3)]
        v = StackedValue.stack(arrays)
        assert v.num_devices == 3
        assert v.shape == (4,)
        assert not v.replicated
        for d in range(3):
            _assert_bit_identical(v.device_view(d), arrays[d])
        # Distinct rows are writable and independent.
        v.device_view(0)[0] = 99.0
        assert v.device_view(1)[0] == 1.0

    def test_replicated_views_are_read_only_and_shared(self):
        v = StackedValue.replicate(np.ones(5, dtype=np.float32), 8)
        assert v.replicated
        assert v.num_devices == 8
        assert v.block.shape == (1, 5)
        view = v.device_view(7)
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 2.0

    def test_materialized_copies_on_write(self):
        v = StackedValue.replicate(np.ones(3, dtype=np.float32), 4)
        full = v.materialized()
        assert not full.replicated
        assert full.block.shape == (4, 3)
        full.device_view(0)[0] = -1.0
        # The other devices and the original replica are untouched.
        assert full.device_view(1)[0] == 1.0
        assert v.device_view(0)[0] == 1.0
        # Distinct values materialize to themselves.
        assert full.materialized() is full

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            StackedValue(np.ones((3, 2)), 4)
        with pytest.raises(ValueError):
            StackedValue(np.ones((2, 2)), 2, replicated=True)
        with pytest.raises(IndexError):
            StackedValue(np.ones((2, 2)), 2).device_view(2)


class TestStackedBitIdentity:
    @given(
        n=st.integers(min_value=1, max_value=16),
        size=st.integers(min_value=1, max_value=200),
        policy=st.sampled_from(POLICIES),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=80, deadline=None)
    def test_ring_all_reduce_stacked_matches_reference(self, n, size, policy, seed):
        arrays = _inputs(n, size, seed)
        want = _reference_ring_all_reduce(arrays, policy)
        got = ring_all_reduce_stacked(np.stack(arrays), policy)
        assert got.replicated and got.num_devices == n
        for d in range(n):
            _assert_bit_identical(got.device_view(d), want[d])

    @given(
        n=st.integers(min_value=1, max_value=16),
        size=st.integers(min_value=1, max_value=200),
        policy=st.sampled_from(POLICIES),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_reduce_scatter_block_input_matches_reference(
        self, n, size, policy, seed
    ):
        arrays = _inputs(n, size, seed)
        want = _reference_ring_reduce_scatter(arrays, policy)
        got = ring_reduce_scatter(StackedValue.stack(arrays), policy)
        assert got.padded_size == want.padded_size
        for g, w in zip(got.shards, want.shards):
            _assert_bit_identical(g, w)

    @given(
        n=st.integers(min_value=1, max_value=10),
        size=st.integers(min_value=1, max_value=120),
        policy=st.sampled_from(POLICIES),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_gather_stacked_matches_reference(self, n, size, policy, seed):
        sv = ring_reduce_scatter(_inputs(n, size, seed), policy)
        want = _reference_ring_all_gather(sv)
        got = ring_all_gather_stacked(sv)
        assert got.num_devices == n
        for d in range(n):
            _assert_bit_identical(got.device_view(d), want[d])

    @given(
        x=st.integers(min_value=1, max_value=5),
        y=st.integers(min_value=1, max_value=5),
        size=st.integers(min_value=1, max_value=100),
        policy=st.sampled_from(POLICIES),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_two_phase_stacked_matches_reference(self, x, y, size, policy, seed):
        flat = _inputs(x * y, size, seed)
        grid = [[flat[i * y + j] for j in range(y)] for i in range(x)]
        want = _reference_two_phase_all_reduce(grid, policy)
        got = two_phase_all_reduce_stacked(np.stack(flat), (x, y), policy)
        for i in range(x):
            for j in range(y):
                _assert_bit_identical(got.device_view(i * y + j), want[i][j])

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n", [2, 7])
    def test_special_values_stacked(self, policy, n):
        arrays = _special_inputs(n, 29, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = _reference_ring_all_reduce(arrays, policy)
            got = ring_all_reduce_stacked(np.stack(arrays), policy)
            for d in range(n):
                _assert_bit_identical(got.device_view(d), want[d])
            want2 = _reference_two_phase_all_reduce([[a] for a in arrays], policy)
            got2 = two_phase_all_reduce_stacked(np.stack(arrays), (n, 1), policy)
            for i in range(n):
                _assert_bit_identical(got2.device_view(i), want2[i][0])

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("n", [256, 257])
    def test_bf16_and_f32_at_256_devices_vs_reference(self, policy, n):
        """Deterministic large-scale pin, bf16 rounding and ragged included."""
        size = 37  # ragged: 37 % 256 != 0 exercises padding at scale
        arrays = _inputs(n, size, seed=n)
        # A few special values so the bf16 NaN-checked path runs at scale.
        arrays[0][0] = -0.0
        arrays[1][1 % size] = np.nan
        arrays[2][2 % size] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = _reference_ring_all_reduce(arrays, policy)
            got = ring_all_reduce_stacked(np.stack(arrays), policy)
        for d in range(0, n, 51):
            _assert_bit_identical(got.device_view(d), want[d])
        _assert_bit_identical(got.device_view(n - 1), want[n - 1])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_4096_devices_execute_and_match_scalar_kernel(self, policy):
        """A real 4096-device full-mesh all-reduce in tier-1 time.

        The per-device-loop reference at this scale is O(n^2) Python steps
        (minutes), so tier-1 cross-checks the stacked path against the
        scalar vectorized kernel — itself bit-pinned to the reference by
        the hypothesis tests above and in ``test_runtime_vectorized.py`` —
        and the direct reference run is gated behind ``REPRO_SLOW_TESTS``.
        """
        n, size = 4096, 64
        rng = np.random.default_rng(7)
        block = (rng.standard_normal((n, size)) * 256.0).astype(np.float32)
        got = ring_all_reduce_stacked(block, policy)
        assert got.num_devices == n
        want = ring_all_reduce([block[d] for d in range(n)], policy)
        for d in (0, 1, 2047, 4095):
            _assert_bit_identical(got.device_view(d), want[d])
        # 64x64 grid over the same stack executes too.
        grid_result = two_phase_all_reduce_stacked(block, (64, 64), policy)
        assert grid_result.device_view(0).shape == (size,)

    @pytest.mark.skipif(
        not os.environ.get("REPRO_SLOW_TESTS"),
        reason="O(n^2) reference at 4096 devices takes minutes; "
        "set REPRO_SLOW_TESTS=1",
    )
    def test_4096_devices_vs_reference_slow(self):
        n, size = 4096, 64
        rng = np.random.default_rng(7)
        block = (rng.standard_normal((n, size)) * 256.0).astype(np.float32)
        want = _reference_ring_all_reduce([block[d] for d in range(n)], "f32")
        got = ring_all_reduce_stacked(block, "f32")
        for d in range(n):
            _assert_bit_identical(got.device_view(d), want[d])


_WORK_COUNTERS = (
    "collective_bytes", "collective_ring_steps", "collective_launches"
)


def _observe(call):
    """``(result, per-label work counters, span names)`` of one call."""
    telemetry.reset()
    result = call()
    snapshot = telemetry.metrics.snapshot()
    counters = {
        (family, tuple(sorted(child["labels"].items()))): child["value"]
        for family in _WORK_COUNTERS
        for child in snapshot.get(family, {"values": []})["values"]
    }
    spans = sorted(e.name for e in telemetry.tracer.trace.events)
    return result, counters, spans


def _assert_read_only(row: np.ndarray) -> None:
    assert not row.flags.writeable
    with pytest.raises(ValueError):
        row[...] = 0


class TestListAdapters:
    """Each list entry point is its device-major twin plus a regrouping:
    the same counters, the same spans, the same bits, read-only rows."""

    X, Y, SIZE = 2, 3, 37  # ragged in both phases

    @pytest.fixture(autouse=True)
    def _telemetry_on(self, monkeypatch):
        monkeypatch.setattr(telemetry, "enabled", True)
        telemetry.reset()
        yield
        telemetry.reset()

    def _grid(self, flat):
        return [[flat[x * self.Y + y] for y in range(self.Y)] for x in range(self.X)]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_ring_all_reduce(self, policy):
        arrays = _inputs(5, self.SIZE, seed=3)
        stacked, want_counters, want_spans = _observe(
            lambda: ring_all_reduce_stacked(np.stack(arrays), policy)
        )
        rows, counters, spans = _observe(lambda: ring_all_reduce(arrays, policy))
        assert counters == want_counters and counters
        assert spans == want_spans == ["ring_all_reduce"]
        assert len(rows) == 5
        for d, row in enumerate(rows):
            _assert_bit_identical(row, stacked.device_view(d))
            _assert_read_only(row)
        assert np.shares_memory(rows[0], rows[4])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_ring_all_gather(self, policy):
        sv = ring_reduce_scatter(_inputs(4, self.SIZE, seed=4), policy)
        stacked, want_counters, want_spans = _observe(
            lambda: ring_all_gather_stacked(sv)
        )
        rows, counters, spans = _observe(lambda: ring_all_gather(sv))
        assert counters == want_counters and counters
        assert spans == want_spans == ["ring_all_gather"]
        for d, (row, want) in enumerate(zip(rows, _reference_ring_all_gather(sv))):
            _assert_bit_identical(row, stacked.device_view(d))
            _assert_bit_identical(row, want)
            _assert_read_only(row)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_two_phase_all_reduce(self, policy):
        flat = _inputs(self.X * self.Y, self.SIZE, seed=5)
        stacked, want_counters, want_spans = _observe(
            lambda: two_phase_all_reduce_stacked(
                np.stack(flat), (self.X, self.Y), policy
            )
        )
        grid, counters, spans = _observe(
            lambda: two_phase_all_reduce(self._grid(flat), policy)
        )
        assert counters == want_counters and counters
        assert spans == want_spans
        assert {"two_phase_all_reduce", "all_gather_grid"} <= set(spans)
        for x in range(self.X):
            for y in range(self.Y):
                _assert_bit_identical(
                    grid[x][y], stacked.device_view(x * self.Y + y)
                )
                _assert_read_only(grid[x][y])

    @pytest.mark.parametrize("policy", POLICIES)
    def test_grid_phases_compose_to_two_phase(self, policy):
        """reduce_scatter_grid + all_gather_grid is the stacked 2-D
        all-reduce, phase by phase: the sum of their counters and spans
        (minus the fused launch marker) and the same result."""
        flat = _inputs(self.X * self.Y, self.SIZE, seed=6)
        grid = self._grid(flat)
        stacked, want_counters, want_spans = _observe(
            lambda: two_phase_all_reduce_stacked(
                np.stack(flat), (self.X, self.Y), policy
            )
        )

        def phases():
            reduced = reduce_scatter_grid(grid, policy)
            shards = [[sv.shards[0] for sv in col] for col in reduced]
            return reduced, all_gather_grid(shards, (self.SIZE,), policy)

        (reduced, gathered), counters, spans = _observe(phases)
        fused_launch = (
            "collective_launches",
            (("axis", "xy"), ("op", "two_phase_all_reduce")),
        )
        assert want_counters.pop(fused_launch) == 1
        assert counters == want_counters
        want_spans.remove("two_phase_all_reduce")
        assert spans == want_spans
        want_reduced = _reference_reduce_scatter_grid(grid, policy)
        want_shards = [[sv.shards[0] for sv in col] for col in want_reduced]
        want_gathered = _reference_all_gather_grid(want_shards, (self.SIZE,), policy)
        for x in range(self.X):
            for y in range(self.Y):
                _assert_bit_identical(
                    reduced[x][y].shards[0], want_reduced[x][y].shards[0]
                )
                _assert_bit_identical(gathered[x][y], want_gathered[x][y])
                _assert_bit_identical(
                    gathered[x][y], stacked.device_view(x * self.Y + y)
                )
                _assert_read_only(gathered[x][y])

    def test_bucket_all_reduce(self):
        rng = np.random.default_rng(8)
        trees = [
            {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(5)}
            for _ in range(6)
        ]
        bucket = GradientBucket(trees[0])
        block = np.stack([bucket.flatten(t) for t in trees])
        for grid_shape in (None, (2, 3)):
            stacked, want_counters, want_spans = _observe(
                lambda: bucket.all_reduce_stacked(block, "f64", grid_shape)
            )
            fused, counters, spans = _observe(
                lambda: bucket.all_reduce(trees, "f64", grid_shape)
            )
            assert counters == want_counters and counters
            assert spans == want_spans and "bucket_all_reduce" in spans
            want = bucket.unflatten(stacked.device_view(0))
            for tree in fused:
                for name in ("w", "b"):
                    _assert_bit_identical(tree[name], want[name])
                    _assert_read_only(tree[name])


class TestMeshStacked:
    def test_per_device_write_demotes(self):
        m = VirtualMesh(2, 1)
        for d in m.devices():
            m.put("w", d, np.ones(3, dtype=np.float32))
        m.all_reduce("w", dtype_policy="f32")  # one row, viewed by both
        m.put("w", (0, 0), np.zeros(3, dtype=np.float32))
        # Device 1 keeps its pre-demotion value; device 0 sees the write.
        assert m.get("w", (0, 0))[0] == 0.0
        assert m.get("w", (1, 0))[0] == 2.0
        # Devices now own distinct, writable memory again.
        assert not np.shares_memory(m.get("w", (0, 0)), m.get("w", (1, 0)))
        m.get("w", (1, 0))[0] = 5.0
        assert m.get("w", (0, 0))[0] == 0.0

    def test_all_reduce_result_is_replicated_and_correct(self):
        m = VirtualMesh(2, 2)
        for i, d in enumerate(m.devices()):
            m.put("g", d, np.full(6, float(i), dtype=np.float32))
        m.all_reduce("g", dtype_policy="f32")
        expect = np.full(6, 0.0 + 1.0 + 2.0 + 3.0, dtype=np.float32)
        for d in m.devices():
            np.testing.assert_allclose(m.get("g", d), expect)
        # Result rows share one physical buffer, lazily viewed.
        rows = [m.get("g", d) for d in m.devices()]
        assert all(np.shares_memory(rows[0], row) for row in rows[1:])
        for row in rows:
            _assert_read_only(row)

    def test_all_reduce_matches_reference_bitwise(self):
        for policy in POLICIES:
            m = VirtualMesh(4, 1)
            arrays = _inputs(4, 33, seed=5)
            for d, a in zip(m.devices(), arrays):
                m.put("g", d, a.copy())
            m.all_reduce("g", dtype_policy=policy)
            want = _reference_ring_all_reduce(arrays, policy)
            got = [
                m.get("g", d).astype(want[0].dtype) for d in m.devices()
            ]
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


class TestBoundedCaches:
    def test_scratch_pool_is_bounded_lru(self):
        pool = _LRUBufferPool(maxsize=4)
        a = pool.get((8,), np.float32)
        assert pool.misses == 1 and pool.hits == 0
        assert pool.get((8,), np.float32) is a
        assert pool.hits == 1
        for i in range(10):
            pool.get((i + 100,), np.float32)
        assert len(pool) <= 4
        assert pool.evictions == 10 + 1 - 4
        # The oldest entry was evicted: refetching is a miss, not a hit.
        hits_before = pool.hits
        b = pool.get((8,), np.float32)
        assert pool.hits == hits_before and b is not a

    def test_scratch_pool_telemetry_counts_are_exact(self):
        from repro import telemetry
        from repro.runtime import collectives

        pool = collectives._SCRATCH
        h, m_, e = pool.hits, pool.misses, pool.evictions
        collectives._scratch((3, 5), np.dtype(np.float32))
        collectives._scratch((3, 5), np.dtype(np.float32))
        assert pool.misses >= m_  # first call may hit if shape was pooled
        assert pool.hits >= h + 1
        snap = telemetry.metrics.snapshot()
        assert snap["scratch_pool_cache_hits"]["values"][0]["value"] == pool.hits
        assert (
            snap["scratch_pool_cache_misses"]["values"][0]["value"]
            == pool.misses
        )
        assert (
            snap["scratch_pool_cache_evictions"]["values"][0]["value"]
            == pool.evictions
        )
        assert e <= pool.evictions

    def test_padded_chunk_layout_is_bounded(self):
        info = padded_chunk_layout.cache_info()
        assert info.maxsize == 1024
        padded_chunk_layout(3, 100)
        padded_chunk_layout(3, 100)
        assert padded_chunk_layout.cache_info().hits > info.hits

    def test_bf16_scratch_is_bounded(self):
        from repro.numerics import bfloat16

        for i in range(bfloat16._SCRATCH_MAXSIZE + 50):
            bfloat16._tmp((i + 10_000,), np.uint32)
        assert len(bfloat16._SCRATCH) <= bfloat16._SCRATCH_MAXSIZE


class TestScheduleMemo:
    def test_simulate_phase_memoized(self):
        from repro.comm import schedule
        from repro.hardware.rings import y_ring
        from repro.hardware.topology import TorusMesh

        mesh = TorusMesh(1, 4, wrap_y=True)
        rings = [y_ring(mesh, 0)]
        schedule._PHASE_CACHE.clear()
        first = schedule._simulate_phase("ring_phase", mesh, rings, 1e6, True)
        assert len(schedule._PHASE_CACHE) == 1
        again = schedule._simulate_phase("ring_phase", mesh, rings, 1e6, True)
        assert again == first
        assert len(schedule._PHASE_CACHE) == 1  # hit, not a second entry
        other = schedule._simulate_phase("ring_phase", mesh, rings, 2e6, True)
        assert other != first
        assert len(schedule._PHASE_CACHE) == 2

    def test_simulate_phase_cache_bounded(self):
        from repro.comm import schedule
        from repro.hardware.rings import y_ring
        from repro.hardware.topology import TorusMesh

        mesh = TorusMesh(1, 4, wrap_y=True)
        rings = [y_ring(mesh, 0)]
        schedule._PHASE_CACHE.clear()
        for i in range(schedule._PHASE_CACHE_MAXSIZE + 5):
            schedule._simulate_phase("ring_phase", mesh, rings, float(i + 1), True)
        assert len(schedule._PHASE_CACHE) <= schedule._PHASE_CACHE_MAXSIZE

    def test_degraded_phase_not_memoized(self):
        from repro.comm import schedule
        from repro.hardware.rings import y_ring
        from repro.hardware.topology import TorusMesh
        from repro.resilience.faults import FaultPlan

        mesh = TorusMesh(1, 4, wrap_y=True)
        ring = y_ring(mesh, 0)
        schedule._PHASE_CACHE.clear()
        result = schedule.simulate_degraded_reduce_scatter(
            mesh, ring, 1e6, FaultPlan()
        )
        assert result.seconds > 0
        assert len(schedule._PHASE_CACHE) == 0
