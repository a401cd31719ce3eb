"""Reproduction tests: every table/figure must match the paper's *shape*.

The claims are rows of the fidelity table (``repro.experiments.fidelity``).
``test_claim`` runs each id of the committed ``FIDELITY.json``, the class
tests run the claims of one paper statement, and
``test_committed_fidelity_is_current`` fails on a stale ``FIDELITY.json``
or EXPERIMENTS.md block.  The rest are not claims.
"""

import dataclasses
import functools
import json
import re
from fnmatch import fnmatch
from pathlib import Path

import pytest

from repro.experiments import ablations, fidelity, figure5, figure6, sensitivity, table1, table2
from repro.experiments.calibration import CALIBRATIONS, end_to_end_model, spec_for
from repro.experiments.report import Figure, Table
from repro.experiments.runner import EXPERIMENTS, main
from repro.core.planner import plan_parallelism

ROOT = Path(__file__).resolve().parents[1]
COMMITTED_IDS = [rec["id"] for rec in json.loads((ROOT / "FIDELITY.json").read_text("utf-8"))]


@functools.cache
def _table() -> dict:
    return {row.id: row for row in fidelity.table()}


def _assert_hold(rows) -> None:
    bad = fidelity.failures(rows)
    assert not bad, "claims fail: " + "; ".join(
        f"{r.id}: measured {r.measured!r}, reference {r.reference!r}, {r.rule}" for r in bad
    )


@pytest.mark.parametrize("claim_id", COMMITTED_IDS)
def test_claim(claim_id):
    _assert_hold([_table()[claim_id]])


def test_committed_fidelity_is_current():
    rows = list(_table().values())
    stale = "stale: rewrite it with python -m repro.experiments fidelity"
    assert fidelity.render_json(rows) == (ROOT / "FIDELITY.json").read_text(
        encoding="utf-8"), f"FIDELITY.json is {stale}"
    text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
    assert fidelity.render_markdown(rows, text) == text, f"EXPERIMENTS.md is {stale}"


def test_a_perturbed_calibration_constant_fails_naming_its_claim(monkeypatch):
    cal = CALIBRATIONS["resnet50"]
    monkeypatch.setitem(
        CALIBRATIONS, "resnet50", dataclasses.replace(cal, mxu_efficiency=cal.mxu_efficiency / 2)
    )
    with pytest.raises(AssertionError, match=re.escape("table1/resnet50_4096/tf_minutes")):
        _assert_hold(table1.claims(table1.run()))


#: The map from each paper statement's claim test, under its long-standing
#: name, to the claim ids that now carry its asserts: ``Class::test`` ->
#: id patterns.  Each runs as that test.
VIEWS = {
    "TestTable1::test_all_rows_present": "table1/*/tf_minutes",
    "TestTable1::test_tf_minutes_within_35_percent": "table1/*/tf_minutes",
    "TestTable1::test_four_models_under_half_minute": "table1/under_0.6_minutes",
    "TestTable1::test_v06_speedups_in_range": "table1/*/v06_speedup",
    "TestTable2::test_init_times_close_to_paper": "table2/*/tf_init_s table2/*/jax_init_s",
    "TestTable2::test_jax_always_faster": "table2/*/jax_over_tf",
    "TestScalingFigures::test_figure5_ordering": "figure5/*",
    "TestScalingFigures::test_figure6_allreduce_constant_compute_shrinks":
        "figure6/compute_16_over_4096 figure6/allreduce_4096_over_16",
    "TestScalingFigures::test_figure6_fraction_anchor": "figure6/allreduce_fraction_4096",
    "TestScalingFigures::test_figure7_bert_scales_best": "figure7/*",
    "TestScalingFigures::test_figure8_fraction_anchor": "figure8/allreduce_fraction_4096",
    "TestScalingFigures::test_figure8_batch_per_chip_trajectory": "figure8/batch_per_chip_*",
    "TestFigure9::test_series_present": "figure9/*",
    "TestFigure9::test_transformer_anchor": "figure9/transformer_v0.7_4cores",
    "TestFigure9::test_v07_beats_v06": "figure9/*_v0.7_over_v0.6_8cores",
    "TestFigure9::test_maskrcnn_scales_best_spatially":
        "figure9/maskrcnn_over_ssd_8cores figure9/ssd_v0.7_8cores",
    "TestFigure10And11::test_tpu_wins_big_benchmarks_vs_v100": "figure10/*/tpu_over_v100",
    "TestFigure10And11::test_transformer_tpu_advantage": "figure10/transformer/tpu_over_a100",
    "TestFigure10And11::test_figure11_tpu_speedup_higher_at_max_scale": "figure11/*",
    "TestGpuModel::test_dlrm_matches_nvidia_scale": "figure10/dlrm/a100_minutes",
    "TestGpuModel::test_a100_faster_than_v100": "figure10/*/a100_over_v100_512gpus",
    "TestAblations::test_wus_bert_claim": "ablations/wus/bert_*",
    "TestAblations::test_wus_ssd_10pct_claim": "ablations/wus/ssd_speedup",
    "TestAblations::test_2d_allreduce_wins_at_4096": "ablations/allreduce_2d/*",
    "TestAblations::test_maskrcnn_comm_30_to_10": "ablations/maskrcnn_comm/*",
    "TestAblations::test_dlrm_input_table": "ablations/dlrm_input/*",
    "TestAblations::test_uncompressed_input_removes_host_imbalance": "ablations/input_pipeline/*",
    "TestAblations::test_large_shuffle_buffer_reduces_batch_bias": "ablations/shuffle/*",
    "TestNewAblations::test_dlrm_eval_accumulation_table": "ablations/dlrm_eval/*",
    "TestNewAblations::test_distributed_batchnorm_table": "ablations/batchnorm/*",
    "TestSensitivity::test_conclusions_robust_to_single_perturbations":
        "sensitivity/single_perturbation_flips",
    "TestSensitivity::test_schedule_ordering_always_holds": "sensitivity/schedule_ordering_flips",
    "TestRunnerAndReport::test_spmd_search_experiment": "spmd_search/*",
    "TestAvailability::test_goodput_degrades_with_failure_rate": "availability/*",
}


def _view(patterns: str):
    def test(self):
        rows = [r for i, r in _table().items() if any(fnmatch(i, p) for p in patterns.split())]
        assert rows, patterns
        _assert_hold(rows)

    return test


class TestAblations:
    def test_naive_auc_extrapolates_past_1000x_sorted(self):
        """Wall-clock cells, so not a row of the fidelity table."""
        t = ablations.auc_ablation(n=500_000)
        sorted_row, naive_row = t.rows[0], t.rows[1]
        assert float(naive_row[3]) > 1000 * float(sorted_row[3])


class TestSensitivity:
    def test_convergence_column_reads_the_perturbations(self):
        """The "e2e < throughput speedup" column is Figure 5's comparison at
        4096 chips: unperturbed it is Figure 5's point, and each perturbation
        of bandwidth or efficiency moves it."""
        fig = figure5.run()
        at_4096 = {name: dict(zip(*fig.series[name]))[4096] for name in fig.series}
        e2e, throughput = sensitivity._resnet_end_to_end(sensitivity._scaled_chip(1.0), 1.0)
        assert (round(e2e, 2), round(throughput, 2)) == (
            at_4096["end_to_end"], at_4096["throughput"]
        )
        perturbed = {
            sensitivity._resnet_end_to_end(sensitivity._scaled_chip(bw), eff)
            for bw in (0.5, 1.0, 2.0) for eff in (0.5, 1.0, 2.0)
        }
        assert len(perturbed) == 9


class TestCsvExport:
    def test_table_csv(self):
        t = table2.run()
        csv_text = t.to_csv()
        assert csv_text.splitlines()[0].startswith("Benchmark")
        assert len(csv_text.splitlines()) == len(t.rows) + 1

    def test_figure_csv(self):
        fig = figure6.run((16, 4096))
        lines = fig.to_csv().splitlines()
        assert lines[0] == "series,chips,value"
        assert len(lines) > 4

    def test_cli_csv_option(self, tmp_path, capsys):
        assert main(["table2", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "table2.csv").exists()


class TestRunnerAndReport:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) >= {
            "table1", "table2", "figure5", "figure6", "figure7", "figure8",
            "figure9", "figure10", "figure11", "ablations", "availability",
            "spmd_search",
        }

    def test_cli_single_experiment(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out

    def test_cli_list(self, capsys):
        assert main(["--list"]) == 0
        assert "figure9" in capsys.readouterr().out

    def test_cli_unknown(self, capsys):
        assert main(["figure99"]) == 2

    def test_table_formatting(self):
        t = Table("T", ["a", "b"])
        t.add_row(1, 2.5)
        text = t.format()
        assert "T" in text and "2.5" in text
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_figure_formatting(self):
        f = Figure("F", "x")
        f.add_series("s", [1, 2], [3.0, 4.0])
        assert "s" in f.format()
        with pytest.raises(ValueError):
            f.add_series("bad", [1], [1, 2])


class TestCalibrationRegistry:
    def test_all_benchmarks_calibrated(self):
        assert set(CALIBRATIONS) == {
            "resnet50", "bert", "ssd", "transformer", "maskrcnn", "dlrm"
        }

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            spec_for("alexnet")
        with pytest.raises(ValueError):
            end_to_end_model("resnet50", "pytorch")

    def test_models_construct_for_both_frameworks(self):
        for name in CALIBRATIONS:
            for fw in ("tf", "jax"):
                model = end_to_end_model(name, fw)
                plan = plan_parallelism(spec_for(name), 256)
                result = model.run(plan.config)
                assert result.total_seconds > 0


class TestAvailability:
    def test_sweep_is_reproducible(self):
        from repro.experiments import availability

        a = availability.sweep(chip_counts=(64,), failure_rates=(1e-3,))
        b = availability.sweep(chip_counts=(64,), failure_rates=(1e-3,))
        assert a.rows == b.rows

    def test_chaos_demo_replays_deterministically(self):
        from repro.experiments import availability

        table = availability.chaos_demo()
        assert len(table.rows) == 3
        for row in table.rows:
            assert row[6] == "yes", row
            assert 0.0 < float(row[5]) <= 1.0


class TestOverlapAblation:
    def test_each_schedule_is_simulated_once(self, monkeypatch):
        """Both tables read one sweep: 3 slices x 7 bucket counts, one
        overlap DES each, and the serial rows run none."""
        from repro.core import step_time

        runs = []
        real = step_time.analytic_overlap

        def counted(**kw):
            runs.append(kw["num_buckets"])
            return real(**kw)

        monkeypatch.setattr(step_time, "analytic_overlap", counted)
        sweep, onoff = EXPERIMENTS["overlap"]()
        assert len(runs) == len(sweep.rows) == 21
        assert len(onoff.rows) == 6


for _name, _patterns in VIEWS.items():
    _cls, _test = _name.split("::")
    setattr(globals().setdefault(_cls, type(_cls, (), {})), _test, _view(_patterns))
