"""bfloat16 emulation tests, including hypothesis properties."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.numerics.bfloat16 import (
    BF16_EPS,
    _round_inplace_nonan,
    bf16_add,
    is_bfloat16_representable,
    round_to_bfloat16,
)

finite_floats = st.floats(
    min_value=-(2.0 ** 60), max_value=2.0 ** 60, width=32, allow_subnormal=False,
)


class TestRounding:
    def test_exact_values_unchanged(self):
        for v in (0.0, 1.0, -2.0, 0.5, 256.0, 1.5):
            assert round_to_bfloat16(v) == v

    def test_relative_error_bound(self):
        x = np.float32(1.001)
        r = float(round_to_bfloat16(x))
        assert abs(r - float(x)) <= BF16_EPS * abs(float(x))

    def test_known_rounding(self):
        # 1 + 2^-8 rounds to 1.0 (ties-to-even on the 7-bit mantissa).
        assert float(round_to_bfloat16(np.float32(1.0 + 2**-8))) == 1.0
        # 1 + 3*2^-8 is a tie between 1 + 2^-7 and 1 + 2^-6; ties-to-even
        # picks the even mantissa, 1 + 2^-6.
        assert float(round_to_bfloat16(np.float32(1.0 + 3 * 2**-8))) == 1.0 + 2**-6

    def test_nan_preserved(self):
        assert np.isnan(round_to_bfloat16(np.float32("nan")))

    def test_inf_preserved(self):
        assert np.isinf(round_to_bfloat16(np.float32("inf")))

    def test_array_shape_preserved(self, rng):
        x = rng.standard_normal((3, 5)).astype(np.float32)
        assert round_to_bfloat16(x).shape == (3, 5)

    def test_result_is_representable(self, rng):
        x = rng.standard_normal(1000).astype(np.float32)
        assert is_bfloat16_representable(round_to_bfloat16(x)).all()

    @given(finite_floats)
    @settings(max_examples=200)
    def test_idempotent(self, v):
        once = round_to_bfloat16(np.float32(v))
        twice = round_to_bfloat16(once)
        assert np.array_equal(once, twice, equal_nan=True)

    @given(finite_floats)
    @settings(max_examples=200)
    def test_error_within_eps(self, v):
        r = float(round_to_bfloat16(np.float32(v)))
        if np.isinf(r):  # overflow saturation near float32 max
            return
        assert abs(r - v) <= BF16_EPS * abs(v) + 1e-45

    @given(finite_floats)
    @settings(max_examples=200)
    def test_monotone_sign(self, v):
        r = float(round_to_bfloat16(np.float32(v)))
        if v > 0:
            assert r >= 0
        if v < 0:
            assert r <= 0


class TestBf16Arithmetic:
    def test_add_quantizes(self):
        out = bf16_add(np.float32(1.0), np.float32(2.0 ** -9))
        # The tiny addend is lost after rounding the sum.
        assert float(out) == 1.0

    def test_sum_close_to_exact(self, rng):
        """Serial bf16 adds (one rounding per hop, as a ring does) stay
        within n roundings of the exact sum."""
        arrays = [rng.standard_normal(64).astype(np.float32) for _ in range(8)]
        exact = np.sum(arrays, axis=0, dtype=np.float64)
        acc = round_to_bfloat16(arrays[0])
        for a in arrays[1:]:
            acc = bf16_add(acc, a)
        approx = acc.astype(np.float64)
        scale = np.sum(np.abs(arrays), axis=0)
        assert np.all(np.abs(approx - exact) <= 8 * BF16_EPS * scale + 1e-6)

    def test_representable_check(self):
        assert is_bfloat16_representable(1.0)
        assert not is_bfloat16_representable(np.float32(1.0 + 2**-9))


#: Every bfloat16 value, as float32 words with zero low halves.
BF16_WORDS = (np.arange(1 << 16, dtype=np.uint32) << np.uint32(16)).view(np.float32)


def test_non_finite_sums_of_two_bf16_values_round_to_themselves():
    """The per-hop lemma of the ring kernels, exhaustively: for every bf16
    ``a`` and every non-finite bf16 ``b``, in both operand orders, the f32
    sum has zero low 16 bits, so the NaN-free rounding keeps every bit of
    it, and the checked rounding differs only by writing ``0x7FC00000`` for
    every NaN (the default NaN of ``inf + -inf`` is ``0xFFC00000`` here)."""
    non_finite = BF16_WORDS[~np.isfinite(BF16_WORDS)]
    assert non_finite.size == 256
    a = BF16_WORDS[:, None]
    kept = np.empty((a.size, 32), np.float32)
    bias = np.empty(kept.shape, np.uint32)
    for b in np.split(non_finite, 8):
        with np.errstate(invalid="ignore"):
            sums = (a + b, b + a)
        for total in sums:
            bits = total.view(np.uint32)
            assert not np.bitwise_and(bits, np.uint32(0xFFFF), out=bias).any()
            np.copyto(kept, total)
            _round_inplace_nonan(kept, bias)
            assert np.array_equal(kept.view(np.uint32), bits)
            canonical = bits.copy()
            canonical[np.isnan(total)] = 0x7FC00000
            assert np.array_equal(round_to_bfloat16(total).view(np.uint32), canonical)
