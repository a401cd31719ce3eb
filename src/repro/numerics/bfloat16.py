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

#: Pooled temporaries for the in-place rounding path, keyed by
#: (shape, dtype).  The ring kernels round thousands of segments per
#: collective; reusing the bias/NaN-mask buffers keeps those calls
#: allocation-free.  Bounded LRU: distinct-shape sweeps evict the oldest
#: buffers instead of clearing the whole pool (which would throw away the
#: hot-loop entries too).  Not thread-safe (nothing in this layer is).
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


def _round_inplace_nonan(out: np.ndarray) -> np.ndarray:
    """In-place RNE rounding of a float32 array assumed to hold no NaN.

    ±inf is handled correctly (the bias cannot carry out of an all-ones
    exponent with a zero mantissa); only NaN payloads would be corrupted.
    The ring kernels call this on accumulator segments whose *inputs* were
    proven finite at staging time: a chain of additions over finite
    operands can saturate to ±inf, but once saturated it stays on that
    infinity and can never produce NaN, so skipping the NaN mask there is
    exact and saves two of the seven memory passes per hop.
    """
    bits = out.view(np.uint32)
    bias = np.right_shift(bits, np.uint32(16), out=_tmp(out.shape, np.uint32))
    np.bitwise_and(bias, np.uint32(1), out=bias)
    np.add(bias, np.uint32(0x7FFF), out=bias)
    with np.errstate(over="ignore"):
        np.add(bits, bias, out=bits)
    np.bitwise_and(bits, np.uint32(0xFFFF0000), out=bits)
    return out


def round_to_bfloat16(
    x: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray:
    """Round float values to the nearest bfloat16 (ties to even).

    Returns a float32 array whose values are exactly representable in
    bfloat16.  NaN is preserved; overflow saturates to +/-inf exactly as a
    hardware cast would.

    When ``out`` is a float32 array of the input's shape, the rounding is
    performed writing into it (``out is x`` is allowed and rounds fully in
    place) — the hot path of the vectorized bf16 ring kernel, which would
    otherwise allocate several temporaries per hop.
    """
    if out is not None:
        if out.dtype != np.float32:
            raise ValueError("out must be a float32 array")
        src = np.asarray(x)
        if src.dtype != np.float32 or src.shape != out.shape:
            np.copyto(out, src, casting="same_kind")
            src = out
        # Read the bias straight off the source and write the rounded bits
        # into out — when out is not src this fuses the copy into the
        # rounding passes instead of paying a separate copyto sweep.
        src_bits = src.view(np.uint32)
        nan_mask = np.isnan(src, out=_tmp(out.shape, np.bool_))
        bias = np.right_shift(src_bits, np.uint32(16), out=_tmp(out.shape, np.uint32))
        np.bitwise_and(bias, np.uint32(1), out=bias)
        np.add(bias, np.uint32(0x7FFF), out=bias)
        out_bits = out.view(np.uint32)
        with np.errstate(over="ignore"):
            np.add(src_bits, bias, out=out_bits)
        np.bitwise_and(out_bits, np.uint32(0xFFFF0000), out=out_bits)
        # The bias trick can corrupt NaN payloads (even into inf/-0.0);
        # restoring is a fancy-indexed pass, so only pay it when needed.
        if nan_mask.any():
            out[nan_mask] = np.nan
        return out
    arr = np.atleast_1d(np.asarray(x, dtype=np.float32))
    bits = arr.view(np.uint32).copy()
    nan_mask = np.isnan(arr)
    # Round-to-nearest-even on the upper 16 bits.
    lsb = (bits >> np.uint32(16)) & np.uint32(1)
    bias = np.uint32(0x7FFF) + lsb
    with np.errstate(over="ignore"):
        bits = (bits + bias) & np.uint32(0xFFFF0000)
    result = bits.view(np.float32).copy()
    # Rounding a NaN must stay NaN (the bias trick can corrupt the payload).
    result[nan_mask] = np.nan
    return result.reshape(np.shape(x))


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
