"""bfloat16 emulation on top of numpy float32.

Sections 3.3 and 4.1 of the paper transfer gradients in bfloat16 (brain
float: 1 sign, 8 exponent, 7 mantissa bits) to halve all-reduce payloads.
numpy has no native bfloat16, so we emulate it as the subset of float32
values whose low 16 mantissa bits are zero, with IEEE round-to-nearest-even
conversion — bit-identical to the hardware behaviour for normal numbers.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

#: Machine epsilon of bfloat16 (2**-7): relative error bound of one rounding.
BF16_EPS = 2.0 ** -7

#: Pooled bias words for in-place rounding that is given no bias scratch
#: (``bf16_add``, an ``out`` overlapping its source), keyed by (shape,
#: dtype).  The ring kernels pass slices of their own row scratch instead,
#: so their many piece shapes never land here.  Bounded LRU: distinct-shape
#: sweeps evict the oldest buffers instead of clearing the whole pool (which
#: would throw away the hot-loop entries too).  Not thread-safe (nothing in
#: this layer is).
_SCRATCH: OrderedDict[tuple, np.ndarray] = OrderedDict()
_SCRATCH_MAXSIZE = 256


def _tmp(shape: tuple[int, ...], dtype) -> np.ndarray:
    key = (shape, np.dtype(dtype).str)
    buf = _SCRATCH.get(key)
    if buf is not None:
        _SCRATCH.move_to_end(key)
        return buf
    while len(_SCRATCH) >= _SCRATCH_MAXSIZE:
        _SCRATCH.popitem(last=False)
    buf = _SCRATCH[key] = np.empty(shape, dtype)
    return buf


_SHIFT, _ONE = np.uint32(16), np.uint32(1)
_HALF_ULP, _HIGH = np.uint32(0x7FFF), np.uint32(0xFFFF0000)


def _rne_bits(src: np.ndarray, out: np.ndarray, bias: np.ndarray) -> None:
    """Round-to-nearest-even of float32 words ``src`` into ``out``: five passes.

    ``bias`` (uint32, ``src``'s shape) receives ``0x7FFF`` plus the kept
    least significant bit; it may be ``out`` itself when ``out`` does not
    overlap ``src``, which fuses the copy into the rounding with no
    temporary.  NaN payloads confined to the low 16 bits are not preserved
    (see :func:`_round_into`).
    """
    np.right_shift(src, _SHIFT, out=bias)
    np.bitwise_and(bias, _ONE, out=bias)
    np.add(bias, _HALF_ULP, out=bias)
    np.add(src, bias, out=out)
    np.bitwise_and(out, _HIGH, out=out)


def _round_inplace_nonan(out: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """In-place RNE rounding of a float32 array without NaN restoring.

    Exact for every value whose NaN, if it is one, has zero low 16 bits:
    ±inf cannot carry out of its all-ones exponent, and such a NaN keeps
    every bit.  The ring kernels round every hop with it: a hop adds two
    bf16 values, and a NaN or ±inf f32 sum of two bf16 values has zero low
    16 bits (a propagated NaN is a bf16 word, quieted; the default NaN of
    ``inf + -inf`` is ``0xFFC00000``).  ``bias`` is a 4-byte scratch of
    ``out``'s shape (a pooled one when omitted).
    """
    bits = out.view(np.uint32)
    bias = _tmp(out.shape, np.uint32) if bias is None else bias.view(np.uint32)
    _rne_bits(bits, bits, bias)
    return out


def _nan_mask(x: np.ndarray) -> np.ndarray | None:
    """``np.isnan(x)``, or ``None`` when ``x`` holds no NaN.

    One pass decides: ``maximum`` propagates NaN and is the cheapest such
    reduction (it has no identity, hence the size guard).
    """
    top = np.maximum.reduce(x, axis=None) if x.size else 0
    return np.isnan(x) if top != top else None


def _round_into(src: np.ndarray, out: np.ndarray, bias: np.ndarray | None = None) -> None:
    """RNE of float32 ``src`` into float32 ``out`` of its shape, NaN kept.

    The bias trick can corrupt NaN payloads (even into inf/-0.0), so NaN is
    restored afterwards, where :func:`_nan_mask` finds any.  Without
    ``bias``, ``out`` must not overlap ``src``: it takes the bias words
    itself (:func:`_rne_bits`).
    """
    nan_mask = _nan_mask(src)
    out_bits = out.view(np.uint32)
    _rne_bits(src.view(np.uint32), out_bits, out_bits if bias is None else bias)
    if nan_mask is not None:
        out[nan_mask] = np.nan


def round_to_bfloat16(
    x: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray:
    """Round float values to the nearest bfloat16 (ties to even).

    Returns a float32 array whose values are exactly representable in
    bfloat16.  NaN is preserved (as ``0x7FC00000``); overflow saturates to
    +/-inf exactly as a hardware cast would.

    When ``out`` is a float32 array of the input's shape, the rounding is
    performed writing into it (``out is x`` is allowed and rounds fully in
    place).
    """
    if out is None:
        src = np.asarray(x, dtype=np.float32)
        out = np.empty(src.shape, np.float32)
        _round_into(src, out)
        return out
    if out.dtype != np.float32:
        raise ValueError("out must be a float32 array")
    src = np.asarray(x)
    if src.dtype != np.float32 or src.shape != out.shape:
        np.copyto(out, src, casting="same_kind")
        src = out
    overlap = np.may_share_memory(src, out)
    _round_into(src, out, _tmp(out.shape, np.uint32) if overlap else None)
    return out


def is_bfloat16_representable(x: np.ndarray | float) -> np.ndarray | bool:
    """Whether each value is exactly representable in bfloat16."""
    arr = np.asarray(x, dtype=np.float32)
    bits = arr.view(np.uint32)
    rep = (bits & np.uint32(0xFFFF)) == 0
    rep = rep | np.isnan(arr)
    return rep if np.ndim(x) else bool(rep)


def bf16_add(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Add two bf16 operands with a bf16 result (the TPU reduction step).

    Operands are first quantized (a no-op if already representable); the
    sum is computed in float32 and rounded back, matching the accumulate-
    and-truncate behaviour of in-network bf16 reductions.

    With ``out`` (a C-contiguous float32 array, ``out is a`` allowed) the
    sum and the rounding both write into ``out``, avoiding the ~6
    temporaries of the allocating form.
    """
    if out is not None:
        round_to_bfloat16(a, out=out)
        np.add(out, round_to_bfloat16(b), out=out)
        return round_to_bfloat16(out, out=out)
    return round_to_bfloat16(round_to_bfloat16(a) + round_to_bfloat16(b))
