"""Single-seed RNG splitting: one seed, a labelled hash path, a sub-seed.

Every layer that draws random numbers from a run's seed — the cluster's
fault plans, trainer inits and batch streams, the SPMD search's
tie-breaks, the executor's inputs, the service's crash and retry plans —
derives its stream here, so one seed replays the whole run and two
consumers never share a stream by accident.  The module depends on numpy
alone, so any layer may import it.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_subseed(seed: int, *path: str | int) -> int:
    """A 32-bit sub-seed that is a pure function of ``seed`` and a label path.

    String path parts are hashed (SHA-256, first 8 bytes) into entropy
    words for :class:`numpy.random.SeedSequence`, whose mixing is
    documented as stable across platforms and numpy versions.  Distinct
    paths give statistically independent streams::

        derive_subseed(2021, "faults")            # the pod's fault plan
        derive_subseed(2021, "init", "tenant-a")  # one job's trainer init
        derive_subseed(2021, "batches", "tenant-a")

    This is the single splitting rule of the repository — every random
    draw of a cluster run, a partitioner search or a service retry traces
    back to one seed through it.
    """
    entropy: list[int] = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in path:
        if isinstance(part, int):
            entropy.append(part & 0xFFFFFFFFFFFFFFFF)
        else:
            digest = hashlib.sha256(str(part).encode()).digest()
            entropy.append(int.from_bytes(digest[:8], "big"))
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
