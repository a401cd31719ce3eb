"""Reproduction tests: every table/figure must match the paper's *shape*.

These are the acceptance tests of the whole repo: each asserts the
qualitative claims (who wins, by roughly what factor, where crossovers
fall) and the calibrated anchors within tolerance.
"""

import pytest

from repro.experiments import ablations, figure5, figure6, figure7, figure8
from repro.experiments import figure9, figure10, figure11, table1, table2
from repro.experiments.calibration import CALIBRATIONS, end_to_end_model, spec_for
from repro.experiments.gpu import gpu_end_to_end
from repro.experiments.report import Figure, Table
from repro.experiments.runner import EXPERIMENTS, main
from repro.experiments.table1 import PAPER_TF_MINUTES
from repro.experiments.table2 import PAPER_INIT_SECONDS
from repro.core.planner import plan_parallelism

SCALING_SUBSET = (16, 256, 4096)


class TestTable1:
    @pytest.fixture(scope="class")
    def table(self):
        return table1.run()

    def test_all_rows_present(self, table):
        assert len(table.rows) == 7

    def test_tf_minutes_within_35_percent(self, table):
        for row in table.rows:
            name, chips, tf_min = row[0], row[1], row[2]
            paper = PAPER_TF_MINUTES[(name, chips)]
            assert tf_min == pytest.approx(paper, rel=0.35), (name, chips)

    def test_four_models_under_half_minute(self, table):
        """The paper's headline: 4 benchmarks train in 16-28 seconds."""
        fast = [r for r in table.rows if isinstance(r[2], float) and r[2] < 0.6]
        assert len(fast) >= 4

    def test_v06_speedups_in_range(self, table):
        for row in table.rows:
            speedup, paper = row[6], row[7]
            if isinstance(speedup, float) and isinstance(paper, float):
                assert speedup == pytest.approx(paper, rel=0.35)


class TestTable2:
    @pytest.fixture(scope="class")
    def table(self):
        return table2.run()

    def test_init_times_close_to_paper(self, table):
        for row in table.rows:
            name = row[0]
            assert row[1] == pytest.approx(PAPER_INIT_SECONDS[(name, "tf")], rel=0.1)
            assert row[3] == pytest.approx(PAPER_INIT_SECONDS[(name, "jax")], rel=0.1)

    def test_jax_always_faster(self, table):
        for row in table.rows:
            assert row[3] < row[1]


class TestScalingFigures:
    def test_figure5_ordering(self):
        fig = figure5.run(SCALING_SUBSET)
        e2e = dict(zip(*fig.series["end_to_end"]))
        thr = dict(zip(*fig.series["throughput"]))
        # throughput closer to ideal than end-to-end (convergence tax).
        assert thr[4096] > e2e[4096]
        assert e2e[4096] > 30  # large but sub-ideal speedup

    def test_figure6_allreduce_constant_compute_shrinks(self):
        fig = figure6.run(SCALING_SUBSET)
        comp = dict(zip(*fig.series["compute_ms"]))
        ar = dict(zip(*fig.series["allreduce_ms"]))
        assert comp[16] > 10 * comp[4096]
        assert ar[4096] < 2 * ar[16]

    def test_figure6_fraction_anchor(self):
        fig = figure6.run((4096,))
        frac = fig.series["allreduce_fraction_at_4096"][1][0]
        assert frac == pytest.approx(0.22, abs=0.05)

    def test_figure7_bert_scales_best(self):
        fig = figure7.run(SCALING_SUBSET)
        e2e = dict(zip(*fig.series["end_to_end"]))
        assert e2e[4096] > 80  # BERT's near-throughput end-to-end scaling

    def test_figure8_fraction_anchor(self):
        fig = figure8.run((4096,))
        frac = fig.series["allreduce_fraction_at_4096"][1][0]
        assert frac == pytest.approx(0.273, abs=0.06)

    def test_figure8_batch_per_chip_trajectory(self):
        fig = figure8.run(SCALING_SUBSET)
        bpc = dict(zip(*fig.series["batch_per_chip"]))
        assert bpc[16] == 48
        assert bpc[4096] == 2


class TestFigure9:
    @pytest.fixture(scope="class")
    def fig(self):
        return figure9.run()

    def test_series_present(self, fig):
        for name in ("ssd_v0.7", "maskrcnn_v0.7", "transformer_v0.7"):
            assert name in fig.series

    def test_transformer_anchor(self, fig):
        cores, speedups = fig.series["transformer_v0.7"]
        at4 = dict(zip(cores, speedups))[4]
        assert at4 == pytest.approx(2.3, abs=0.6)

    def test_v07_beats_v06(self, fig):
        for model in ("ssd", "maskrcnn"):
            v07 = dict(zip(*fig.series[f"{model}_v0.7"]))
            v06 = dict(zip(*fig.series[f"{model}_v0.6"]))
            assert v07[8] >= v06[8]

    def test_maskrcnn_scales_best_spatially(self, fig):
        ssd8 = dict(zip(*fig.series["ssd_v0.7"]))[8]
        mrcnn8 = dict(zip(*fig.series["maskrcnn_v0.7"]))[8]
        assert mrcnn8 > ssd8 > 2.0


class TestFigure10And11:
    def test_tpu_wins_big_benchmarks_vs_v100(self):
        """Same-generation comparison: TPU beats V100 everywhere."""
        t = figure10.run()
        for row in t.rows:
            name, tpu_min, v100_min = row[0], row[2], row[6]
            assert tpu_min < v100_min, name

    def test_transformer_tpu_advantage(self):
        """Model parallelism lets the TPU run 4096 chips where the GPU
        submission stopped at 480."""
        t = figure10.run()
        row = next(r for r in t.rows if r[0] == "transformer")
        assert row[2] < row[4]  # TPU < A100

    def test_figure11_tpu_speedup_higher_at_max_scale(self):
        fig = figure11.run()
        for name in ("resnet50", "bert"):
            tpu = dict(zip(*fig.series[f"tpu_{name}"]))
            gpu = dict(zip(*fig.series[f"gpu_a100_{name}"]))
            assert max(tpu.values()) > max(gpu.values())


class TestAblations:
    def test_wus_bert_claim(self):
        t = ablations.wus_ablation()
        bert_off = next(r for r in t.rows if r[0] == "bert" and r[2] == "off")
        bert_on = next(r for r in t.rows if r[0] == "bert" and r[2] == "on")
        assert bert_off[5] > 8.0  # update is a significant % without WUS
        assert bert_on[5] < 1.0

    def test_wus_ssd_10pct_claim(self):
        t = ablations.wus_ablation()
        ssd_on = next(r for r in t.rows if r[0] == "ssd" and r[2] == "on")
        assert ssd_on[6] == pytest.approx(1.10, abs=0.07)

    def test_2d_allreduce_wins_at_4096(self):
        t = ablations.allreduce_2d_ablation()
        for row in t.rows:
            assert row[4] > 2.0  # hierarchical at least 2x faster

    def test_maskrcnn_comm_30_to_10(self):
        t = ablations.maskrcnn_comm_ablation()
        v06 = next(r for r in t.rows if r[0] == "v0.6")
        v07 = next(r for r in t.rows if r[0] == "v0.7")
        assert v06[5] == pytest.approx(30.0, abs=10.0)
        assert v07[5] == pytest.approx(10.0, abs=5.0)

    def test_dlrm_input_table(self):
        t = ablations.dlrm_input_ablation()
        rates = t.column("Mexamples/s per host")
        assert rates[-1] > rates[0]  # fully optimized beats naive
        assert t.rows[-1][2] == "yes"


class TestNewAblations:
    def test_dlrm_eval_accumulation_table(self):
        t = ablations.dlrm_eval_accumulation()
        naive = next(r for r in t.rows if "per-step" in r[0])
        opt = next(r for r in t.rows if "accumulate" in r[0])
        assert opt[1] < naive[1]
        assert opt[3] < naive[3] / 2

    def test_distributed_batchnorm_table(self):
        t = ablations.distributed_batchnorm_ablation()
        errors = t.column("mean |moment error|")
        assert errors == sorted(errors, reverse=True)  # bigger groups, less error
        costs = t.column("comm us/layer")
        assert costs[0] == 0  # group of 1 pays nothing
        assert costs[-1] < 100  # and even global groups are ~free


class TestSensitivity:
    def test_conclusions_robust_to_single_perturbations(self):
        from repro.experiments import sensitivity

        t = sensitivity.run()
        for row in t.rows:
            label = row[0]
            # "bw x<f>, eff x<f>": count how many factors differ from 1.
            factors = [part.split("x")[1] for part in label.split(", ")]
            n_perturbed = sum(f != "1.0" for f in factors)
            if n_perturbed <= 1:
                assert all(v == "yes" for v in row[1:]), label

    def test_schedule_ordering_always_holds(self):
        from repro.experiments import sensitivity

        t = sensitivity.run()
        assert all(row[1] == "yes" for row in t.rows)


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

    def test_spmd_search_experiment(self):
        from repro.experiments import spmd_search

        table = spmd_search.run()
        rows = {
            (r[0], r[1], r[2]): r for r in table.rows
        }  # (model, features, cores)
        assert ("ssd", "v07", 4) in rows
        for key, row in rows.items():
            searched_ms, speedup = row[5], row[6]
            assert searched_ms > 0
            # search matches or beats the hand annotation everywhere.
            assert speedup >= 0.999, key
        # the executable graph reports a bit-exactness verdict.
        assert rows[("resnet_block", "v07", 4)][7] == "yes"

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


class TestGpuModel:
    def test_dlrm_matches_nvidia_scale(self):
        r = gpu_end_to_end("dlrm", 16, "a100")
        assert r.total_minutes == pytest.approx(3.33, rel=0.4)

    def test_a100_faster_than_v100(self):
        for name in ("resnet50", "bert"):
            a = gpu_end_to_end(name, 512, "a100")
            v = gpu_end_to_end(name, 512, "v100")
            assert a.total_seconds < v.total_seconds


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
    def test_goodput_degrades_with_failure_rate(self):
        from repro.experiments import availability

        table = availability.sweep(
            chip_counts=(64,), failure_rates=(0.0, 1e-3)
        )
        assert len(table.rows) == 2
        clean, faulty = table.rows
        assert clean[6] == "1.000"          # no failures: perfect goodput
        assert clean[2] == 0
        assert faulty[2] > 0                # 64 chips * 200 steps * 1e-3
        assert float(faulty[6]) < 1.0
        assert 0.0 < float(faulty[6])

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
