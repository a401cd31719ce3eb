"""Sensitivity analysis: do the paper's conclusions survive parameter error?

The reproduction calibrates per-benchmark MXU efficiencies and assumes an
effective ICI link bandwidth.  This experiment perturbs both by 2x in each
direction and checks the *qualitative* conclusions that the figures rest
on — if any flipped under plausible parameter error, the reproduction's
shape claims would be fragile.  Each column of the table is one checked
conclusion.
"""

from __future__ import annotations

import dataclasses

from repro.comm.allreduce import flat_ring_allreduce, two_phase_allreduce
from repro.core.planner import plan_parallelism
from repro.core.step_time import StepTimeModel
from repro.experiments.calibration import CALIBRATIONS, end_to_end_model, spec_for
from repro.experiments.fidelity import Claim
from repro.experiments.report import Table
from repro.hardware.chip import TPU_V3, ChipSpec
from repro.hardware.topology import multipod, slice_for_chips


def _scaled_chip(bandwidth_factor: float) -> ChipSpec:
    return dataclasses.replace(
        TPU_V3, link_bandwidth=TPU_V3.link_bandwidth * bandwidth_factor
    )


def _efficiency(name: str, eff_factor: float) -> float:
    return min(0.95, CALIBRATIONS[name].mxu_efficiency * eff_factor)


def _resnet_end_to_end(chip: ChipSpec, eff_factor: float) -> tuple[float, float]:
    """Figure 5's end-to-end and throughput speedups of ResNet-50 at 4096
    chips over 16, on ``chip``'s links at the perturbed MXU efficiency."""
    spec = spec_for("resnet50")
    model = end_to_end_model("resnet50")
    model.mxu_efficiency = _efficiency("resnet50", eff_factor)
    base, big = (
        model.run(plan_parallelism(spec, chips).config, slice_for_chips(chips, chip))
        for chips in (16, 4096)
    )
    return (base.total_seconds / big.total_seconds,
            big.throughput_examples_per_second / base.throughput_examples_per_second)


def run() -> Table:
    table = Table(
        "Sensitivity: paper conclusions under 2x parameter perturbations",
        ["Perturbation", "2-D beats flat", "BERT ar% > ResNet ar%",
         "e2e < throughput speedup"],
    )
    for bw_factor in (0.5, 1.0, 2.0):
        for eff_factor in (0.5, 1.0, 2.0):
            chip = _scaled_chip(bw_factor)
            mesh = multipod(4, chip=chip)
            # Conclusion 1: schedule ordering.
            flat = flat_ring_allreduce(mesh, 102e6).total
            hier = two_phase_allreduce(mesh, 102e6).total
            c1 = hier < flat
            # Conclusion 2: model-size ordering of comm fractions.
            fracs = {}
            for name in ("resnet50", "bert"):
                spec = spec_for(name)
                cfg = plan_parallelism(spec, 4096).config
                breakdown = StepTimeModel(
                    spec, cfg, mesh=mesh, mxu_efficiency=_efficiency(name, eff_factor),
                    step_overhead=CALIBRATIONS[name].step_overhead,
                ).breakdown()
                fracs[name] = breakdown.allreduce_fraction
            c2 = fracs["bert"] > fracs["resnet50"]
            # Conclusion 3: the convergence tax (Figure 5): at 4096 chips
            # end-to-end speedup trails throughput speedup.
            e2e, throughput = _resnet_end_to_end(chip, eff_factor)
            c3 = e2e < throughput
            table.add_row(
                f"bw x{bw_factor}, eff x{eff_factor}",
                "yes" if c1 else "NO",
                "yes" if c2 else "NO",
                "yes" if c3 else "NO",
            )
    return table


def claims(table: Table) -> list[Claim]:
    """No conclusion flips under one perturbation; the schedule ordering never."""
    single = [row for row in table.rows
              if sum(part.split("x")[1] != "1.0" for part in row[0].split(", ")) <= 1]
    return [
        Claim("sensitivity/single_perturbation_flips", 0,
              sum(v != "yes" for row in single for v in row[1:]), "=="),
        Claim("sensitivity/schedule_ordering_flips", 0,
              sum(v != "yes" for v in table.column("2-D beats flat")), "=="),
    ]
