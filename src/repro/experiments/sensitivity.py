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
from repro.experiments.calibration import CALIBRATIONS, spec_for
from repro.experiments.fidelity import Claim
from repro.experiments.report import Table
from repro.hardware.chip import TPU_V3
from repro.hardware.topology import TorusMesh, multipod


def _scaled_multipod(bandwidth_factor: float) -> TorusMesh:
    chip = dataclasses.replace(
        TPU_V3, link_bandwidth=TPU_V3.link_bandwidth * bandwidth_factor
    )
    return multipod(4, chip=chip)


def run() -> Table:
    table = Table(
        "Sensitivity: paper conclusions under 2x parameter perturbations",
        ["Perturbation", "2-D beats flat", "BERT ar% > ResNet ar%",
         "e2e < throughput speedup"],
    )
    for bw_factor in (0.5, 1.0, 2.0):
        for eff_factor in (0.5, 1.0, 2.0):
            mesh = _scaled_multipod(bw_factor)
            # Conclusion 1: schedule ordering.
            flat = flat_ring_allreduce(mesh, 102e6).total
            hier = two_phase_allreduce(mesh, 102e6).total
            c1 = hier < flat
            # Conclusion 2: model-size ordering of comm fractions.
            fracs = {}
            for name in ("resnet50", "bert"):
                spec = spec_for(name)
                cal = CALIBRATIONS[name]
                eff = min(0.95, cal.mxu_efficiency * eff_factor)
                cfg = plan_parallelism(spec, 4096).config
                breakdown = StepTimeModel(
                    spec, cfg, mesh=mesh, mxu_efficiency=eff,
                    step_overhead=cal.step_overhead,
                ).breakdown()
                fracs[name] = breakdown.allreduce_fraction
            c2 = fracs["bert"] > fracs["resnet50"]
            # Conclusion 3: convergence tax direction (efficiency/bandwidth
            # independent: epochs grow with batch) — evaluate via the
            # ResNet table anchors.
            from repro.core.convergence import ConvergenceModel

            conv = ConvergenceModel(spec_for("resnet50"))
            c3 = conv.epochs_to_converge(65536) > conv.epochs_to_converge(4096)
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
