"""Numeric formats used by the paper's communication optimizations."""

from repro.numerics.bfloat16 import (
    BF16_EPS,
    round_to_bfloat16,
    is_bfloat16_representable,
    bf16_add,
)

__all__ = [
    "BF16_EPS",
    "round_to_bfloat16",
    "is_bfloat16_representable",
    "bf16_add",
]
