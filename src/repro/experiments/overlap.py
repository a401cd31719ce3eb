"""Overlap-engine ablation: backprop-overlapped bucketed all-reduces.

Sweeps the bucket-size trade-off of :mod:`repro.core.overlap` on the
paper's BERT configuration across slice sizes:

* **one bucket** costs exactly the serial model's single fused all-reduce
  but nothing is ready before the backward pass ends, so nothing hides —
  overlap-aware step time equals the serial step;
* **more buckets** expose less tail (each collective launches as soon as
  its gradients exist) but pay the per-launch latency ``alpha`` once per
  bucket, so past some count the extra launches dominate — the exposed
  communication curve is U-shaped and the sweep shows both regimes.

``overlap_onoff_ablation`` is the headline on/off comparison at each
slice's best bucket count — the step-time win the overlap engine models.

Both tables read one :func:`_sweep`: one model per (chips, buckets), whose
overlap schedule runs once.  :func:`run` builds it once for the two
tables; nothing from it outlives the call.
"""

from __future__ import annotations

from repro.core.overlap import OverlapResult
from repro.core.step_time import StepTimeBreakdown, StepTimeModel
from repro.core.strategy import ParallelismConfig
from repro.experiments.calibration import CALIBRATIONS, spec_for
from repro.experiments.report import Table

#: Global batch per slice size: the paper's BERT scaling keeps 4 examples
#: per chip up to the 4096-chip multipod.
_CHIP_SWEEP = (256, 1024, 4096)
_BUCKET_SWEEP = (1, 2, 4, 8, 16, 32, 64)

#: Per slice: (chips, serial breakdown, per bucket count in sweep order
#: (buckets, overlap result, overlap-aware breakdown)).
_Sweep = list[
    tuple[int, StepTimeBreakdown, list[tuple[int, OverlapResult, StepTimeBreakdown]]]
]


def _model(chips: int, num_buckets: int, overlap: bool) -> StepTimeModel:
    spec, cal = spec_for("bert"), CALIBRATIONS["bert"]
    config = ParallelismConfig(num_chips=chips, global_batch=4 * chips)
    return StepTimeModel(
        spec,
        config,
        mxu_efficiency=cal.mxu_efficiency,
        step_overhead=cal.step_overhead,
        overlap=overlap,
        overlap_buckets=num_buckets,
    )


def _sweep() -> _Sweep:
    """Every (chips, buckets) model of the ablation, each run once."""
    out: _Sweep = []
    for chips in _CHIP_SWEEP:
        serial = _model(chips, 1, overlap=False).breakdown()
        runs = []
        for buckets in _BUCKET_SWEEP:
            model = _model(chips, buckets, overlap=True)
            runs.append((buckets, model.overlap_result(), model.breakdown()))
        out.append((chips, serial, runs))
    return out


def bucket_sweep_ablation(sweep: _Sweep) -> Table:
    """Exposed-comm vs bucket count on BERT (chips x buckets)."""
    table = Table(
        "Overlap bucket-size trade-off (BERT, 4 examples/chip)",
        ["Chips", "Buckets", "allreduce ms", "exposed ms", "hidden %",
         "serial step ms", "overlap step ms", "speedup"],
    )
    for chips, serial, runs in sweep:
        for buckets, result, breakdown in runs:
            table.add_row(
                chips,
                buckets,
                round(breakdown.allreduce * 1e3, 3),
                round(result.exposed_comm_seconds * 1e3, 3),
                round(result.overlap_efficiency * 100, 1),
                round(serial.device_time * 1e3, 3),
                round(breakdown.device_time * 1e3, 3),
                round(serial.device_time / breakdown.device_time, 3),
            )
    return table


def overlap_onoff_ablation(sweep: _Sweep) -> Table:
    """Overlap on/off at each slice's best bucket count."""
    table = Table(
        "Overlap engine on/off (BERT, best bucket count per slice)",
        ["Chips", "Overlap", "Buckets", "step ms", "allreduce share %",
         "speedup"],
    )
    for chips, serial, runs in sweep:
        # min() keeps the first of equal step times: the fewest buckets.
        best_buckets, _, best = min(runs, key=lambda run: run[2].device_time)
        for label, buckets, breakdown in (
            ("off", 1, serial), ("on", best_buckets, best)
        ):
            exposed = (
                breakdown.allreduce
                if breakdown.exposed_allreduce is None
                else breakdown.exposed_allreduce
            )
            table.add_row(
                chips,
                label,
                buckets,
                round(breakdown.device_time * 1e3, 3),
                round(exposed / breakdown.device_time * 100, 1),
                round(serial.device_time / breakdown.device_time, 3),
            )
    return table


def run() -> list[Table]:
    sweep = _sweep()
    return [bucket_sweep_ablation(sweep), overlap_onoff_ablation(sweep)]
