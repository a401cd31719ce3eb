"""Table 2: initialization time, single-client TF vs multi-client JAX.

The TF times grow with the worker count (multi-device graph
construction); JAX's stay near-constant (per-host compilation in
parallel).
"""

from __future__ import annotations

from repro.experiments.calibration import end_to_end_model, spec_for
from repro.core.planner import plan_parallelism
from repro.experiments.fidelity import Claim
from repro.experiments.report import Table

#: (benchmark, TF chips, JAX chips) as reported in the paper.
TABLE2_ROWS: tuple[tuple[str, int, int], ...] = (
    ("resnet50", 4096, 4096),
    ("bert", 4096, 4096),
    ("ssd", 4096, 2048),
    ("transformer", 4096, 4096),
)

PAPER_INIT_SECONDS = {
    ("resnet50", "tf"): 498.0,
    ("resnet50", "jax"): 134.0,
    ("bert", "tf"): 1040.0,
    ("bert", "jax"): 190.0,
    ("ssd", "tf"): 772.0,
    ("ssd", "jax"): 122.0,
    ("transformer", "tf"): 868.0,
    ("transformer", "jax"): 294.0,
}


def run() -> Table:
    """Regenerate Table 2 with the framework models."""
    table = Table(
        "Table 2: initialization time (seconds), TF vs JAX (modeled vs paper)",
        ["Benchmark", "TF s", "paper TF", "JAX s", "paper JAX"],
    )
    for name, tf_chips, jax_chips in TABLE2_ROWS:
        spec = spec_for(name)
        tf_run = end_to_end_model(name, "tf").run(
            plan_parallelism(spec, tf_chips).config
        )
        jax_run = end_to_end_model(name, "jax").run(
            plan_parallelism(spec, jax_chips).config
        )
        table.add_row(
            name,
            round(tf_run.init_seconds, 1),
            PAPER_INIT_SECONDS[(name, "tf")],
            round(jax_run.init_seconds, 1),
            PAPER_INIT_SECONDS[(name, "jax")],
        )
    return table


def claims(table: Table) -> list[Claim]:
    """Init times within 10 % of the paper's; JAX's below TF's."""
    init = {fw: dict(zip(table.column("Benchmark"), table.column(f"{fw.upper()} s")))
            for fw in ("tf", "jax")}
    return [
        *(Claim(f"table2/{n}/{fw}_init_s", paper, init[fw][n], "within 0.1")
          for (n, fw), paper in PAPER_INIT_SECONDS.items()),
        *(Claim(f"table2/{n}/jax_over_tf", 1.0, init["jax"][n] / init["tf"][n], "<")
          for n, _, _ in TABLE2_ROWS),
    ]
