"""Per-benchmark calibration constants (DESIGN.md §5).

Exactly one anchor per benchmark: constants here are chosen so the modeled
Table 1 row at the paper's submission scale lands in range.  Every other
prediction (other chip counts, breakdown fractions, speedup curves,
crossovers) is then *derived*, and the fidelity table checks it against
the paper.  The achieved MXU efficiencies are physically sensible: BERT's
huge dense matmuls run the MXU hot; ResNet runs 8 examples/core, SSD
~0.5 on 300x300 images; MaskRCNN has gathers and small convolutions,
DLRM tiny MLPs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.end_to_end import EndToEndModel
from repro.frameworks.base import GraphProfile
from repro.frameworks.jax import MultiClientJAX
from repro.frameworks.tensorflow import SingleClientTF
from repro.models import (
    bert_large_spec,
    dlrm_spec,
    maskrcnn_spec,
    resnet50_spec,
    ssd_spec,
    transformer_big_spec,
)
from repro.models.costspec import ModelCostSpec
from repro.refuse import known


@dataclass(frozen=True)
class Calibration:
    """Tuned constants for one benchmark."""

    mxu_efficiency: float
    step_overhead: float
    eval_overhead_seconds: float
    """Fixed per-eval cost (loop switch + metric path; COCO eval for the
    detection models, AUC for DLRM)."""
    tf_profile: GraphProfile
    jax_profile: GraphProfile
    v06_minutes: float | None = None
    """The MLPerf v0.6 TF submission time, for Table 1's speedup column."""


_SPECS = {
    spec.name: spec
    for spec in (
        resnet50_spec(),
        bert_large_spec(),
        ssd_spec(),
        transformer_big_spec(),
        maskrcnn_spec(),
        dlrm_spec(),
    )
}


CALIBRATIONS: dict[str, Calibration] = {
    "resnet50": Calibration(
        mxu_efficiency=0.20,
        step_overhead=1.0e-4,
        eval_overhead_seconds=0.30,
        tf_profile=GraphProfile("resnet50", 100.0, 0.61),
        jax_profile=GraphProfile("resnet50", 40.0, 0.0),
        v06_minutes=0.48 * 2.67,
    ),
    "bert": Calibration(
        mxu_efficiency=0.60,
        step_overhead=1.0e-4,
        eval_overhead_seconds=0.05,
        tf_profile=GraphProfile("bert", 250.0, 1.38),
        jax_profile=GraphProfile("bert", 96.0, 0.0),
        v06_minutes=None,  # BERT is new in v0.7
    ),
    "ssd": Calibration(
        mxu_efficiency=0.10,
        step_overhead=5.0e-4,
        eval_overhead_seconds=0.40,
        tf_profile=GraphProfile("ssd", 180.0, 0.99),
        jax_profile=GraphProfile("ssd", 34.0, 0.0),
        v06_minutes=0.46 * 2.63,
    ),
    "transformer": Calibration(
        mxu_efficiency=0.30,
        step_overhead=2.0e-4,
        eval_overhead_seconds=0.25,
        tf_profile=GraphProfile("transformer", 200.0, 1.14),
        jax_profile=GraphProfile("transformer", 200.0, 0.0),
        v06_minutes=0.32 * 2.65,
    ),
    "maskrcnn": Calibration(
        mxu_efficiency=0.17,
        step_overhead=1.0e-3,
        eval_overhead_seconds=3.0,
        tf_profile=GraphProfile("maskrcnn", 220.0, 1.2),
        jax_profile=GraphProfile("maskrcnn", 120.0, 0.0),
        v06_minutes=8.1 * 4.4,
    ),
    "dlrm": Calibration(
        mxu_efficiency=0.12,
        step_overhead=8.0e-4,
        eval_overhead_seconds=2.4,
        tf_profile=GraphProfile("dlrm", 120.0, 0.8),
        jax_profile=GraphProfile("dlrm", 60.0, 0.0),
        v06_minutes=None,  # DLRM is new in v0.7
    ),
}


def spec_for(name: str) -> ModelCostSpec:
    """The cost spec of a benchmark by name."""
    return known("model", name, _SPECS)


def end_to_end_model(name: str, framework: str = "tf") -> EndToEndModel:
    """A calibrated end-to-end model for one benchmark."""
    spec = spec_for(name)
    cal = CALIBRATIONS[name]
    if framework == "tf":
        fw = SingleClientTF()
        profile = cal.tf_profile
    elif framework == "jax":
        fw = MultiClientJAX()
        profile = cal.jax_profile
    else:
        raise ValueError(f"unknown framework {framework!r}; use 'tf' or 'jax'")
    return EndToEndModel(
        spec,
        mxu_efficiency=cal.mxu_efficiency,
        step_overhead=cal.step_overhead,
        eval_overhead_seconds=cal.eval_overhead_seconds,
        framework=fw,
        graph_profile=profile,
    )
