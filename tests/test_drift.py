"""Model-vs-measured drift tests: the analytic cost models and the DES
must still agree, the gate must trip when they stop agreeing, and the
gauges must land in the registry."""

from __future__ import annotations

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro import telemetry
from repro.telemetry import drift
from repro.telemetry.drift import (
    DEFAULT_TOLERANCE,
    DriftEntry,
    check_drift,
    drift_report,
    format_report,
    max_drift,
    overlap_drift,
    ring_drift,
    steptime_drift,
    two_phase_drift,
)
from repro.experiments.table1 import TABLE1_ROWS


@pytest.fixture(autouse=True)
def _clean_telemetry():
    telemetry.enable()
    telemetry.reset()
    yield
    telemetry.enable()
    telemetry.reset()


class TestDriftEntry:
    def test_relative_drift(self):
        e = DriftEntry("c", "p", measured_s=1.1, predicted_s=1.0)
        assert e.drift_rel == pytest.approx(0.1)

    def test_zero_prediction_uses_absolute_floor(self):
        # A 1e-15 round-off sliver against a predicted 0.0 must not read
        # as huge relative drift: the denominator floors at 1 ns.
        e = DriftEntry("c", "p", measured_s=1e-15, predicted_s=0.0)
        assert e.drift_rel < 1e-5

    def test_to_json(self):
        blob = DriftEntry("c", "p", 2.0, 1.0).to_json()
        assert blob["case"] == "c" and blob["drift_rel"] == pytest.approx(1.0)


class TestModelAgreement:
    def test_ring_drift_within_tolerance(self):
        entries = ring_drift()
        assert entries
        assert max_drift(entries) < DEFAULT_TOLERANCE

    def test_two_phase_drift_within_tolerance(self):
        entries = two_phase_drift()
        phases = {e.phase for e in entries}
        assert {"reduce_scatter_y", "all_gather_y"} <= phases
        assert max_drift(entries) < DEFAULT_TOLERANCE

    def test_two_phase_drift_reaches_the_4096_chip_multipod(self):
        cases = {e.case for e in two_phase_drift()}
        assert {
            "2d/multipod1", "2d/multipod2", "2d/multipod4",
            "ring/peer_contended_mp2_4096", "ring/peer_contended_mp4_4096",
        } <= cases

    def test_steptime_drift_has_a_twinned_row_per_table1_model(self):
        entries = steptime_drift()
        models = dict.fromkeys(row[0] for row in TABLE1_ROWS)
        assert [e.case for e in entries] == [f"steptime/{m}_4096" for m in models]
        assert all(e.measured_s is not None for e in entries)
        assert max_drift(entries) < DEFAULT_TOLERANCE

    def test_a_configuration_without_des_twin_says_so(self, monkeypatch):
        from repro.core import planner

        real = planner.plan_parallelism

        def flat_ring(spec, num_chips):
            """The flat-ring baseline wherever it applies (no model
            parallelism)."""
            choice = real(spec, num_chips)
            if choice.config.mp_chips > 1:
                return choice
            config = dataclasses.replace(choice.config, use_2d_allreduce=False)
            return dataclasses.replace(choice, config=config)

        monkeypatch.setattr(planner, "plan_parallelism", flat_ring)
        entries = steptime_drift()
        untwinned = [e for e in entries if e.measured_s is None]
        assert [e.case for e in untwinned] == [
            "steptime/resnet50_4096", "steptime/bert_4096",
            "steptime/ssd_4096", "steptime/dlrm_4096",
        ]
        assert all(e.predicted_s > 0 for e in untwinned)
        assert check_drift(entries) == (True, [])
        assert format_report(entries).count("no DES twin") == len(untwinned)

    def test_overlap_drift_within_tolerance(self):
        entries = overlap_drift(models=("resnet50",))
        phases = {e.phase for e in entries}
        assert {"step", "exposed_comm", "hidden_comm", "wire_comm"} <= phases
        assert max_drift(entries) < DEFAULT_TOLERANCE

    def test_full_report_within_tolerance(self):
        entries = drift_report()
        ok, bad = check_drift(entries)
        assert ok, f"drift past tolerance: {[(e.case, e.phase) for e in bad]}"


class TestGate:
    def test_check_drift_trips_on_tight_tolerance(self):
        entries = ring_drift()
        ok, bad = check_drift(entries, tolerance=1e-300)
        assert not ok
        assert bad

    def test_check_drift_flags_injected_rot(self):
        entries = [
            DriftEntry("good", "p", 1.0, 1.0),
            DriftEntry("rotten", "p", 1.5, 1.0),
        ]
        ok, bad = check_drift(entries, tolerance=1e-6)
        assert not ok
        assert [e.case for e in bad] == ["rotten"]

    def test_gate_trips_on_a_perturbed_4096_chip_row(self, monkeypatch):
        """The CI step (``check_regression.py --drift-only``) fails when the
        closed form of the 4096-chip X phase moves by 1e-5."""
        real = drift.two_phase_allreduce

        def rotten(mesh, payload_bytes, *, mp_size=1):
            bd = real(mesh, payload_bytes, mp_size=mp_size)
            if mesh.num_chips < 4096:
                return bd
            return dataclasses.replace(bd, reduce_scatter_x=bd.reduce_scatter_x * (1 + 1e-5))

        monkeypatch.setattr(drift, "two_phase_allreduce", rotten)
        ok, bad = check_drift(two_phase_drift(), tolerance=1e-6)
        assert not ok
        assert {(e.case, e.phase) for e in bad} == {
            ("2d/multipod4", "reduce_scatter_x"),
            ("ring/peer_contended_mp2_4096", "reduce_scatter_x"),
            ("ring/peer_contended_mp4_4096", "reduce_scatter_x"),
        }
        script = Path(__file__).parents[1] / "benchmarks" / "check_regression.py"
        spec = importlib.util.spec_from_file_location("check_regression", script)
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        assert gate.check_model_drift(1e-6) is False

    def test_gate_trips_on_a_perturbed_step_time_all_reduce(self, monkeypatch):
        from repro.core.step_time import StepTimeModel

        real = StepTimeModel.allreduce_time
        monkeypatch.setattr(
            StepTimeModel, "allreduce_time", lambda self: real(self) * (1 + 1e-5)
        )
        entries = steptime_drift()
        ok, bad = check_drift(entries, tolerance=1e-6)
        assert not ok and bad == entries

    def test_gauges_exported(self):
        entries = drift_report(include_overlap=False)
        snap = telemetry.metrics.snapshot()
        assert "model_drift_rel" in snap
        assert "model_drift_max" in snap
        e = entries[0]
        assert telemetry.metrics.value(
            "model_drift_rel", case=e.case, phase=e.phase
        ) == pytest.approx(e.drift_rel, abs=0)

    def test_format_report(self):
        entries = ring_drift()
        text = format_report(entries, tolerance=DEFAULT_TOLERANCE)
        assert "max relative drift" in text
        assert entries[0].case in text
