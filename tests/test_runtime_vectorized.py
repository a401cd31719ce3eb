"""Bit-identity of the vectorized collective kernels vs the references.

The vectorized ring / 2-D hierarchical kernels in
:mod:`repro.runtime.collectives` claim to preserve the *exact* ring
accumulation order of the step-by-step reference implementations — every
output bit, for every dtype policy, including the bf16 per-hop rounding.
These tests pin that claim with hypothesis across mesh shapes (1xN, Nx1,
XxY), ragged payload sizes that exercise the padding paths, and adversarial
special values (signed zeros, NaN, infinities, overflow).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.collectives import (
    _reference_all_gather_grid,
    _reference_reduce_scatter_grid,
    _reference_ring_all_gather,
    _reference_ring_all_reduce,
    _reference_ring_reduce_scatter,
    _reference_two_phase_all_reduce,
    all_gather_grid,
    reduce_scatter_grid,
    ring_all_gather,
    ring_all_reduce,
    ring_reduce_scatter,
    two_phase_all_reduce,
)

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
        # Mix in magnitudes that round differently under bf16 and values
        # whose partial sums cancel, so per-hop rounding order matters.
        a *= rng.choice([1.0, 256.0, 2.0**-20], size=size).astype(np.float32)
        arrays.append(a)
    return arrays


@given(
    n=st.integers(min_value=1, max_value=16),
    size=st.integers(min_value=1, max_value=200),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=120, deadline=None)
def test_ring_reduce_scatter_bit_identical(n, size, policy, seed):
    arrays = _inputs(n, size, seed)
    got = ring_reduce_scatter(arrays, policy)
    want = _reference_ring_reduce_scatter(arrays, policy)
    assert got.padded_size == want.padded_size
    assert got.shape == want.shape
    for g, w in zip(got.shards, want.shards):
        _assert_bit_identical(g, w)


@given(
    n=st.integers(min_value=1, max_value=12),
    size=st.integers(min_value=1, max_value=150),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100, deadline=None)
def test_ring_all_reduce_bit_identical(n, size, policy, seed):
    arrays = _inputs(n, size, seed)
    got = ring_all_reduce(arrays, policy)
    want = _reference_ring_all_reduce(arrays, policy)
    assert len(got) == len(want) == n
    for g, w in zip(got, want):
        _assert_bit_identical(g, w)


@given(
    n=st.integers(min_value=1, max_value=10),
    size=st.integers(min_value=1, max_value=120),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=60, deadline=None)
def test_ring_all_gather_bit_identical(n, size, policy, seed):
    sv = ring_reduce_scatter(_inputs(n, size, seed), policy)
    got = ring_all_gather(sv)
    want = _reference_ring_all_gather(sv)
    for g, w in zip(got, want):
        _assert_bit_identical(g, w)


@given(
    x=st.integers(min_value=1, max_value=5),
    y=st.integers(min_value=1, max_value=5),
    size=st.integers(min_value=1, max_value=100),
    policy=st.sampled_from(POLICIES),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100, deadline=None)
def test_two_phase_bit_identical(x, y, size, policy, seed):
    flat = _inputs(x * y, size, seed)
    grid = [[flat[i * y + j] for j in range(y)] for i in range(x)]
    got = two_phase_all_reduce(grid, policy)
    want = _reference_two_phase_all_reduce(grid, policy)
    for gcol, wcol in zip(got, want):
        for g, w in zip(gcol, wcol):
            _assert_bit_identical(g, w)


def test_two_phase_shard_transform_bit_identical():
    """A per-shard update between the grid reduce-scatter and all-gather
    (the weight-update-sharding schedule) keeps the reference bits."""
    rng = np.random.default_rng(3)
    grid = [
        [rng.standard_normal(37).astype(np.float32) for _ in range(3)]
        for _ in range(2)
    ]

    def updated(reduced):
        return [[sv.shards[0] * np.float32(0.5) for sv in col] for col in reduced]

    for policy in POLICIES:
        got = all_gather_grid(updated(reduce_scatter_grid(grid, policy)), (37,), policy)
        want = _reference_all_gather_grid(
            updated(_reference_reduce_scatter_grid(grid, policy)), (37,), policy
        )
        for gcol, wcol in zip(got, want):
            for g, w in zip(gcol, wcol):
                _assert_bit_identical(g, w)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_special_values_bit_identical(policy, n):
    """Signed zeros, NaN, +/-inf, and overflow follow the reference bits."""
    rng = np.random.default_rng(11)
    size = 29
    arrays = []
    for d in range(n):
        a = rng.standard_normal(size).astype(np.float32)
        a[d % size] = -0.0
        a[(d + 3) % size] = np.nan
        a[(d + 5) % size] = np.inf
        a[(d + 7) % size] = -np.inf
        a[(d + 11) % size] = np.float32(3e38)  # overflow when summed
        arrays.append(a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        got = ring_all_reduce(arrays, policy)
        want = _reference_ring_all_reduce(arrays, policy)
        for g, w in zip(got, want):
            _assert_bit_identical(g, w)
        grid = [[arrays[i] for i in range(n)]]
        got2 = two_phase_all_reduce(grid, policy)
        want2 = _reference_two_phase_all_reduce(grid, policy)
        for gcol, wcol in zip(got2, want2):
            for g, w in zip(gcol, wcol):
                _assert_bit_identical(g, w)


def test_grid_opposite_infinity_columns_bit_identical():
    """Finite inputs can saturate to +inf in one column and -inf in the
    other; the X phase then meets opposite infinities and must produce NaN
    exactly where the reference does (the fast-path re-decision)."""
    big = np.float32(3.0e38)
    grid = [
        [np.full(8, big, dtype=np.float32), np.full(8, big, dtype=np.float32)],
        [np.full(8, -big, dtype=np.float32), np.full(8, -big, dtype=np.float32)],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for policy in POLICIES:
            got = two_phase_all_reduce(grid, policy)
            want = _reference_two_phase_all_reduce(grid, policy)
            for gcol, wcol in zip(got, want):
                for g, w in zip(gcol, wcol):
                    _assert_bit_identical(g, w)
