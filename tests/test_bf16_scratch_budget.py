"""What a bf16 ring all-reduce holds in memory, bounded.

A bf16 collective converts each source piece to the wire format at the hop
that first reads it, into one row-sized scratch, so it never stages the
``(n, size)`` rounded copy of its sources.  For a ``(64, 65 536)`` float32
block that copy was 16 MiB, plus 4 MiB of finiteness flags.  The check
fails if a refactor brings either back: the ``tracemalloc`` peak of one
call, with the scratch pools emptied first so that a pooled block would be
allocated inside the trace, stays under an eighth of the block.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.numerics import bfloat16
from repro.runtime import collectives, ring_all_reduce_stacked

DEVICES, SIZE = 64, 65_536


def test_a_bf16_ring_stages_no_device_block():
    rng = np.random.default_rng(0)
    block = rng.standard_normal((DEVICES, SIZE)).astype(np.float32)
    ring_all_reduce_stacked(block[:, :8], "bf16")  # import-time caches
    collectives._SCRATCH.clear()
    bfloat16._SCRATCH.clear()

    tracemalloc.start()
    try:
        reduced = ring_all_reduce_stacked(block, "bf16")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert reduced.shape == (SIZE,)
    assert peak < block.nbytes / 8, (peak, block.nbytes)
