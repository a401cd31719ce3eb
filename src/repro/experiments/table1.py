"""Table 1: end-to-end MLPerf v0.7 times on the TPU-v3 multipod, and
the speedups over the MLPerf v0.6 submissions (1909.09756) for the models
that existed then."""

from __future__ import annotations

from repro.core.planner import plan_parallelism
from repro.experiments.calibration import CALIBRATIONS, end_to_end_model, spec_for
from repro.experiments.fidelity import Claim
from repro.experiments.report import Table

#: The paper's Table 1 configurations: (benchmark, chips, has_jax_result).
TABLE1_ROWS: tuple[tuple[str, int, bool], ...] = (
    ("resnet50", 4096, True),
    ("bert", 4096, True),
    ("ssd", 4096, False),
    ("ssd", 2048, True),
    ("transformer", 4096, True),
    ("maskrcnn", 512, False),
    ("dlrm", 256, False),
)

#: Paper values for side-by-side comparison in the report.
PAPER_TF_MINUTES = {
    ("resnet50", 4096): 0.48,
    ("bert", 4096): 0.39,
    ("ssd", 4096): 0.46,
    ("ssd", 2048): 0.623,
    ("transformer", 4096): 0.32,
    ("maskrcnn", 512): 8.1,
    ("dlrm", 256): 2.4,
}
PAPER_JAX_MINUTES = {
    ("resnet50", 4096): 0.47,
    ("bert", 4096): 0.4,
    ("ssd", 2048): 0.55,
    ("transformer", 4096): 0.26,
}
PAPER_V06_SPEEDUP = {
    ("resnet50", 4096): 2.67,
    ("ssd", 4096): 2.63,
    ("ssd", 2048): 1.94,
    ("transformer", 4096): 2.65,
    ("maskrcnn", 512): 4.4,
}


def run() -> Table:
    """Regenerate Table 1 with the calibrated models."""
    table = Table(
        "Table 1: end-to-end time, TPU-v3 multipod (modeled vs paper)",
        [
            "Benchmark", "Chips", "TF min", "paper TF", "JAX min", "paper JAX",
            "v0.6 speedup", "paper speedup",
        ],
    )
    for name, chips, has_jax in TABLE1_ROWS:
        plan = plan_parallelism(spec_for(name), chips)
        tf_run = end_to_end_model(name, "tf").run(plan.config)
        jax_run = end_to_end_model(name, "jax").run(plan.config)
        cal = CALIBRATIONS[name]
        if cal.v06_minutes is not None:
            speedup = cal.v06_minutes / tf_run.total_minutes
            paper_speedup = PAPER_V06_SPEEDUP.get((name, chips), "N/A")
        else:
            speedup = "N/A"
            paper_speedup = "N/A"
        table.add_row(
            name,
            chips,
            round(tf_run.total_minutes, 3),
            PAPER_TF_MINUTES[(name, chips)],
            round(jax_run.total_minutes, 3) if has_jax else "N/A",
            PAPER_JAX_MINUTES.get((name, chips), "N/A"),
            round(speedup, 2) if isinstance(speedup, float) else speedup,
            paper_speedup,
        )
    return table


def claims(table: Table) -> list[Claim]:
    """TF minutes and v0.6 speedups within 35 %; four runs under ~half a minute."""
    rows = list(zip(table.column("Benchmark"), table.column("Chips")))
    minutes = dict(zip(rows, table.column("TF min")))
    speedup = dict(zip(rows, table.column("v0.6 speedup")))
    return [
        *(Claim(f"table1/{n}_{c}/tf_minutes", paper, minutes[n, c], "within 0.35")
          for (n, c), paper in PAPER_TF_MINUTES.items()),
        *(Claim(f"table1/{n}_{c}/v06_speedup", paper, speedup[n, c], "within 0.35")
          for (n, c), paper in PAPER_V06_SPEEDUP.items()),
        Claim("table1/under_0.6_minutes", 4, sum(m < 0.6 for m in minutes.values()), ">="),
    ]
