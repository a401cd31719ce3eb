"""Silent-corruption guards: what the collectives cannot raise on.

A dead chip breaks a collective loudly.  A flipped bit in one replica's
parameter copy breaks *nothing* — every collective completes, the job
reports healthy, and the model silently trains on diverged state.  The
:class:`ConsistencyGuard` catches this class of failure with two probes:

* **Cross-replica hash checks**: every ``check_interval`` steps, hash
  each replica's parameter tree and majority-vote.  Replicas in the
  minority are desynced; with a clear majority they are quarantined and
  resynced from a healthy peer, and with no majority (e.g. two replicas
  disagreeing 1-1) the only safe recovery is a rewind to the last
  hash-verified checkpoint.
* **Non-finite tripwires**: scan gradients/params for NaN/Inf before
  they propagate through an all-reduce (one NaN poisons every replica in
  a single collective).

Divergence bookkeeping: the repo's trainers collapse replication (one
parameter copy stands for all replicas), so a replica's corrupted view is
carried as a sparse *overlay* of pending
:class:`~repro.resilience.faults.BitFlipFault` deltas on the shared
trajectory.  For translation-invariant optimizers (SGD, momentum, Adam —
updates depend on gradients and slots, not on the weights' values) the
overlay is exact: identical updates preserve the flip delta bit-for-bit,
so hashing ``params + overlay`` is hashing exactly what the corrupted
replica would hold.
"""

from __future__ import annotations

import hashlib
import logging
from collections import Counter as _Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro import telemetry as _telemetry
from repro.optim.base import Params
from repro.refuse import count, non_negative
from repro.resilience.faults import BitFlipFault, Device

logger = logging.getLogger("repro.controlplane")


class SilentCorruptionError(RuntimeError):
    """A tripwire found non-finite values in a tensor tree."""

    def __init__(self, kind: str, names: tuple[str, ...], step: int | None) -> None:
        self.kind = kind
        self.names = names
        self.step = step
        at = f" at step {step}" if step is not None else ""
        super().__init__(
            f"non-finite {kind} values{at} in: {', '.join(names)}"
        )

    def __reduce__(self):
        return type(self), (self.kind, self.names, self.step), self.__dict__


@dataclass(frozen=True)
class DesyncEvent:
    """One caught parameter desync: injection vs. detection, and the fix."""

    device: Device
    injected_step: int
    detected_step: int
    recovery: str  # "resync" (from majority) or "rewind" (to checkpoint)


def apply_bit_flips(params: Params, flips: Iterable[BitFlipFault]) -> Params:
    """A copy of ``params`` with each flip's bit toggled in place.

    The flip addresses ``index % size`` of the (optionally named) tensor
    and toggles bit ``bit`` of that element's low 32-bit word — for f64
    parameters that is deep in the mantissa, the quiet kind of SDC.
    Tensors untouched by any flip are shared, not copied.
    """
    out = dict(params)
    for flip in flips:
        name = flip.param if flip.param is not None else sorted(out)[0]
        if name not in out:
            raise KeyError(f"bit flip targets unknown parameter {name!r}")
        arr = np.ascontiguousarray(out[name]).copy()
        words_per_elem = max(1, arr.dtype.itemsize // 4)
        words = arr.reshape(-1).view(np.uint32)
        word = (flip.index % arr.size) * words_per_elem
        words[word] ^= np.uint32(1 << flip.bit)
        out[name] = arr
    return out


class ConsistencyGuard:
    """Cross-replica hash checks plus NaN/Inf tripwires.

    ``check_interval`` is in steps; ``hash_seconds`` is the modeled cost
    of one fleet-wide hash round (charged by the chaos harness);
    ``on_nonfinite`` is ``"raise"`` (stop the run with
    :class:`SilentCorruptionError`) or ``"count"`` (telemetry only).
    """

    def __init__(
        self,
        check_interval: int = 1,
        *,
        hash_seconds: float = 0.0,
        on_nonfinite: str = "raise",
    ) -> None:
        count("check_interval", check_interval)
        non_negative("hash_seconds", hash_seconds)
        if on_nonfinite not in ("raise", "count"):
            raise ValueError("on_nonfinite must be 'raise' or 'count'")
        self.check_interval = check_interval
        self.hash_seconds = hash_seconds
        self.on_nonfinite = on_nonfinite

    def due(self, step: int) -> bool:
        """Whether the hash check runs after ``step`` completed steps."""
        return step > 0 and step % self.check_interval == 0

    # --- parameter hashing ----------------------------------------------------

    def param_hash(self, params: Params) -> str:
        """Order-independent digest of a parameter tree (names + bytes)."""
        digest = hashlib.sha256()
        for name in sorted(params):
            arr = np.ascontiguousarray(params[name])
            digest.update(name.encode())
            digest.update(str(arr.shape).encode())
            digest.update(arr.tobytes())
        return digest.hexdigest()

    def find_desynced(
        self, hashes: Mapping[Device, str]
    ) -> tuple[tuple[Device, ...], bool]:
        """Minority replicas under majority vote; telemetry-counted.

        Returns ``(desynced_devices, ambiguous)``: with a strict majority
        hash, the minority is desynced and resyncable; without one (a
        1-1 split, or three ways) every divergent replica is returned
        and ``ambiguous`` is True — no peer can be trusted as the donor,
        so recovery must rewind to a verified checkpoint.

        One call is one fleet-wide hash round: the chaos harness votes here
        in both modes (over real hashes via :meth:`check_replicas`, over
        overlay markers in accounting mode), so the round is counted here.
        """
        desynced: tuple[Device, ...] = ()
        ambiguous = False
        counts = _Counter(hashes.values())
        if len(counts) > 1:
            (top_hash, top_n), (_, second_n) = counts.most_common(2)
            ambiguous = top_n == second_n
            desynced = tuple(
                sorted(d for d, h in hashes.items() if ambiguous or h != top_hash)
            )
        if _telemetry.enabled:
            m = _telemetry.metrics
            m.counter("controlplane_hash_checks").inc()
            if desynced:
                m.counter("controlplane_desyncs_caught").inc(len(desynced))
        return desynced, ambiguous

    def check_replicas(
        self, views: Mapping[Device, Params], step: int
    ) -> tuple[tuple[Device, ...], bool]:
        """Hash every replica view and majority-vote (see :meth:`find_desynced`)."""
        hashes = {d: self.param_hash(p) for d, p in views.items()}
        desynced, ambiguous = self.find_desynced(hashes)
        if desynced:
            logger.warning(
                "desync at step %d: %s diverged (%s recovery)",
                step, desynced, "rewind" if ambiguous else "resync",
            )
            _telemetry.flight_recorder.record(
                "guard", "desync",
                step=step,
                devices=[list(d) for d in desynced],
                ambiguous=ambiguous,
            )
        return desynced, ambiguous

    # --- non-finite tripwires -------------------------------------------------

    def scan_tree(
        self,
        tree: Mapping[str, np.ndarray],
        *,
        kind: str = "gradient",
        step: int | None = None,
    ) -> tuple[str, ...]:
        """Names of tensors containing NaN/Inf; raises per ``on_nonfinite``."""
        bad = tuple(
            name
            for name in sorted(tree)
            if not np.all(np.isfinite(tree[name]))
        )
        if bad:
            if _telemetry.enabled:
                _telemetry.metrics.counter(
                    "controlplane_nonfinite_tensors", kind=kind
                ).inc(len(bad))
            logger.error(
                "non-finite %s tensors%s: %s",
                kind, f" at step {step}" if step is not None else "", bad,
            )
            if self.on_nonfinite == "raise":
                err = SilentCorruptionError(kind, bad, step)
                _telemetry.on_terminal_failure(
                    err, origin="guard.nonfinite", tensor_kind=kind
                )
                raise err
        return bad
