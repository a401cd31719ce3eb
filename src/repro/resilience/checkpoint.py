"""Checkpoint/restore with GSPMD-style resharding of sharded optimizer state.

Weight-update sharding makes recovery a *correctness* problem: optimizer
slots exist only in sharded form, so a lost device holds state no survivor
has.  A checkpoint therefore snapshots the **full assembled** state — the
replicated parameters plus every optimizer slot reassembled from its
shards — which is exactly what lets a restore *reshard* onto a different
mesh shape (fewer replicas after a failure, or a different ``x*y`` grid):
the restore path re-runs the same sharding the trainer's ``init`` would,
over the checkpointed values.

Bit-identity guarantee (pinned by the chaos tests): for either trainer,
``save at step k -> restore -> resume`` produces exactly the same floats
as never interrupting, because the assembled state round-trips through
sharding losslessly (shards are disjoint views/copies, no arithmetic).

:func:`unshard_state_segments` inverts the trainer's sharding layout,
``shard_state_segments`` of :mod:`repro.core.weight_update_sharding`
(fused bucket windows spanning several parameters).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass

import numpy as np

from repro import telemetry as _telemetry
from repro.optim.base import OptimizerState, Params
from repro.runtime.bucket import GradientBucket

logger = logging.getLogger("repro.resilience")

#: Separator for flattening nested state keys into npz archive names.
_KEY_SEP = "::"


@dataclass
class TrainerCheckpoint:
    """A full, unsharded snapshot of one trainer's training state.

    ``params`` and ``opt_state`` are deep copies — continued training never
    mutates a taken checkpoint.  ``trainer`` records the class name of the
    producer (informational; any trainer with compatible parameters can
    restore the snapshot, which is how a WUS run restores onto a smaller
    replica count).
    """

    step_index: int
    params: Params
    opt_state: OptimizerState
    trainer: str = ""

    @property
    def nbytes(self) -> int:
        """Total payload size (what a restore must move back onto devices)."""
        total = sum(a.nbytes for a in self.params.values())
        for slots in self.opt_state.values():
            total += sum(a.nbytes for a in slots.values())
        return total

    def copy(self) -> "TrainerCheckpoint":
        return TrainerCheckpoint(
            step_index=self.step_index,
            params={k: v.copy() for k, v in self.params.items()},
            opt_state={
                name: {slot: arr.copy() for slot, arr in slots.items()}
                for name, slots in self.opt_state.items()
            },
            trainer=self.trainer,
        )

    # --- serialization --------------------------------------------------------

    def save(self, path: str) -> None:
        """Write the checkpoint as an ``.npz`` archive (no pickling)."""
        arrays: dict[str, np.ndarray] = {}
        for name, arr in self.params.items():
            arrays[f"param{_KEY_SEP}{name}"] = arr
        for name, slots in self.opt_state.items():
            for slot, arr in slots.items():
                arrays[f"state{_KEY_SEP}{name}{_KEY_SEP}{slot}"] = arr
        meta = json.dumps({"step_index": self.step_index, "trainer": self.trainer})
        arrays["meta"] = np.frombuffer(meta.encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        logger.info(
            "wrote checkpoint step=%d (%d bytes of state) to %s",
            self.step_index, self.nbytes, path,
        )

    @classmethod
    def load(cls, path: str) -> "TrainerCheckpoint":
        """Read a checkpoint written by :meth:`save`."""
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            params: Params = {}
            opt_state: OptimizerState = {}
            for key in archive.files:
                parts = key.split(_KEY_SEP)
                if parts[0] == "param":
                    params[parts[1]] = archive[key]
                elif parts[0] == "state":
                    opt_state.setdefault(parts[1], {})[parts[2]] = archive[key]
        return cls(
            step_index=int(meta["step_index"]),
            params=params,
            opt_state=opt_state,
            trainer=meta.get("trainer", ""),
        )


def unshard_state_segments(
    sharded_state: list[OptimizerState], bucket: GradientBucket
) -> OptimizerState:
    """Reassemble fused-bucket-window shards into full optimizer slots.

    Inverse of
    :func:`repro.core.weight_update_sharding.shard_state_segments`: device
    ``d`` holds, for every parameter overlapping its fused reduce-scatter
    window, that segment of each slot.  The windows tile the bucket, so
    writing each segment back at its ``tensor_slice`` restores every slot.
    """
    n = len(sharded_state)
    if n < 1:
        raise ValueError("need at least one device's state")
    flats: dict[str, dict[str, np.ndarray]] = {}
    for d, segs in enumerate(bucket.shard_segments(n)):
        for seg in segs:
            dev_slots = sharded_state[d][seg.name]
            per_name = flats.setdefault(seg.name, {})
            for slot, arr in dev_slots.items():
                dest = per_name.get(slot)
                if dest is None:
                    size = int(np.prod(bucket.shapes[seg.name]) or 1)
                    dest = per_name[slot] = np.empty(
                        size, dtype=np.asarray(arr).dtype
                    )
                dest[seg.tensor_slice] = np.asarray(arr).reshape(-1)
    return {
        name: {
            slot: flat.reshape(bucket.shapes[name])
            for slot, flat in per_name.items()
        }
        for name, per_name in flats.items()
    }


def record_checkpoint_metrics(ckpt: TrainerCheckpoint, trainer: str) -> None:
    """Account a taken checkpoint in the telemetry registry."""
    if not _telemetry.enabled:
        return
    m = _telemetry.metrics
    m.counter("resilience_checkpoints", trainer=trainer).inc()
    m.counter("resilience_checkpoint_bytes", trainer=trainer).inc(ckpt.nbytes)
