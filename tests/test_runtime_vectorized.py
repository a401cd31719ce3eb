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
    TwoPhaseAllReduce,
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
    ring_all_reduce_stacked,
    ring_reduce_scatter,
    two_phase_all_reduce,
    two_phase_all_reduce_stacked,
)
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


# --- device-major inputs under the bf16 policy --------------------------------
#
# The trainers hand the kernels one device-major block (or StackedValue) of
# float64 gradients, and the kernels convert each source piece to the wire
# format at the hop that first reads it.  The cases below hold those forms,
# f64 sources, streamed column groups and the words whose bf16 handling is
# subtle to the reference bits.

#: float32 words whose bf16 rounding or summation is easy to get wrong.
ADVERSARIAL_WORDS = np.array(
    [
        0x7F800001, 0x7FFFFFFF, 0xFF800001, 0xFFFFFFFF,  # NaN payloads in low bits
        0x3F808000, 0x3F818000, 0xBF808000, 0xBF818000,  # ties: even and odd LSB
        0x7F7FFFFF, 0xFF7FFFFF, 0x7F7F8000,  # f32 max (rounds to inf), a tie near it
        0x00000001, 0x00008000, 0x00018000, 0x807FFFFF,  # subnormals, ties among them
        0x7F800000, 0xFF800000, 0x80000000,  # +inf, -inf, -0.0
    ],
    dtype=np.uint32,
).view(np.float32)


def _block(n: int, size: int, seed: int, adversarial: bool) -> np.ndarray:
    """``_inputs`` as one ``(n, size)`` block, a fifth of it adversarial words
    if asked."""
    block = np.stack(_inputs(n, size, seed))
    if not adversarial:
        return block
    rng = np.random.default_rng(seed + 1)
    hit = rng.random(block.shape) < 0.2
    block[hit] = rng.choice(ADVERSARIAL_WORDS, size=int(hit.sum()))
    return block


def _assert_reduced_bits(got: np.ndarray, want: np.ndarray, policy: str) -> None:
    """Bit identity, but for NaN payloads under f32/f64.

    Where two different NaN payloads meet in one add, numpy keeps one by
    the length of the add (a signalling and a quiet NaN keep one payload in
    a 16-element add and the other in a 40-element one), and the kernel's
    prefix/suffix adds and the reference's per-chunk adds differ in length.
    Such an element is NaN on both sides; every other bit must agree.  bf16
    writes every NaN as one word, so it is held to every bit.
    """
    if policy == "bf16":
        _assert_bit_identical(got, want)
        return
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


def _cast(block: np.ndarray, source) -> np.ndarray:
    with np.errstate(invalid="ignore"):  # widening a signalling NaN
        return block.astype(source)


def _device_major(block: np.ndarray, form: str):
    return StackedValue(block, len(block)) if form == "stacked" else block


@given(
    n=st.integers(min_value=1, max_value=12),
    size=st.integers(min_value=1, max_value=120),
    policy=st.sampled_from(POLICIES),
    source=st.sampled_from([np.float32, np.float64]),
    form=st.sampled_from(["block", "stacked"]),
    adversarial=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=150, deadline=None)
def test_device_major_ring_bit_identical(n, size, policy, source, form, adversarial, seed):
    block = _cast(_block(n, size, seed, adversarial), source)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _reference_ring_reduce_scatter(list(block), policy)
        got = ring_reduce_scatter(_device_major(block, form), policy)
        reduced = ring_all_reduce_stacked(_device_major(block, form), policy)
        want_full = _reference_ring_all_reduce(list(block), policy)
    for g, w in zip(got.shards, want.shards):
        _assert_reduced_bits(g, w, policy)
    for g, w in zip(reduced.to_list(), want_full):
        _assert_reduced_bits(g, w, policy)


def _grid(block: np.ndarray, x: int, y: int) -> list[list[np.ndarray]]:
    return [list(block[i * y:(i + 1) * y]) for i in range(x)]


@given(
    x=st.integers(min_value=1, max_value=5),
    y=st.integers(min_value=1, max_value=5),
    size=st.integers(min_value=1, max_value=90),
    policy=st.sampled_from(POLICIES),
    source=st.sampled_from([np.float32, np.float64]),
    form=st.sampled_from(["block", "stacked"]),
    adversarial=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_two_phase_column_groups_bit_identical(
    x, y, size, policy, source, form, adversarial, seed, data
):
    """Whole-block calls and a ``TwoPhaseAllReduce`` fed one column group at
    a time, as the data-parallel trainer feeds it, keep the reference bits."""
    block = _cast(_block(x * y, size, seed, adversarial), source)
    cuts = sorted(data.draw(st.sets(st.integers(1, x - 1), max_size=x - 1)) if x > 1 else [])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = [w for col in _reference_two_phase_all_reduce(_grid(block, x, y), policy) for w in col]
        whole = two_phase_all_reduce_stacked(_device_major(block, form), (x, y), policy)
        streamed = TwoPhaseAllReduce((x, y), (size,), policy)
        for lo, hi in zip([0, *cuts], [*cuts, x]):
            streamed.reduce_columns(_device_major(block[lo * y:hi * y], form), lo)
        grouped = streamed.all_reduce()
    for reduced in (whole, grouped):
        for g, w in zip(reduced.to_list(), want):
            _assert_reduced_bits(g, w, policy)


@pytest.mark.parametrize("source", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_adversarial_words_bit_identical(n, source):
    """Every adversarial word, at every device of the ring, through the
    device-major bf16 ring and the grids that split the ring into columns."""
    words = ADVERSARIAL_WORDS
    block = _cast(np.stack([np.roll(words, d) for d in range(n)]), source)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _reference_ring_all_reduce(list(block), "bf16")
        for g, w in zip(ring_all_reduce_stacked(block, "bf16").to_list(), want):
            _assert_bit_identical(g, w)
        for x in (d for d in range(1, n + 1) if n % d == 0):
            grid_want = _reference_two_phase_all_reduce(_grid(block, x, n // x), "bf16")
            got = two_phase_all_reduce_stacked(block, (x, n // x), "bf16")
            for g, w in zip(got.to_list(), [w for col in grid_want for w in col]):
                _assert_bit_identical(g, w)


@pytest.mark.parametrize("source", [np.float32, np.float64])
def test_opposite_infinities_meet_in_each_phase(source):
    """Element 0 meets +inf and -inf inside a column (the Y phase); element 1
    saturates to +inf in column 0 and to -inf in column 1, which meet in the
    X phase.  Both NaNs are x86's default NaN until the output is written."""
    big, inf = np.float32(3.0e38), np.float32(np.inf)
    block = np.zeros((4, 4), dtype=np.float32)
    block[0, 0], block[1, 0] = inf, -inf
    block[0:2, 1], block[2:4, 1] = big, -big
    block[:, 2] = [inf, inf, -inf, -inf]
    block = _cast(block, source)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want = _reference_two_phase_all_reduce(_grid(block, 2, 2), "bf16")
        got = two_phase_all_reduce_stacked(block, (2, 2), "bf16").to_list()
        for g, w in zip(got, [w for col in want for w in col]):
            _assert_bit_identical(g, w)
        assert np.isnan(got[0][:3]).all()
        ring_want = _reference_ring_all_reduce(list(block), "bf16")
        for g, w in zip(ring_all_reduce_stacked(block, "bf16").to_list(), ring_want):
            _assert_bit_identical(g, w)
