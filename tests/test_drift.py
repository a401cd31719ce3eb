"""Model-vs-measured drift tests: the analytic cost models and the DES
must still agree, the fidelity table's one gate must trip when they stop
agreeing, and the gauges must land in the registry."""

from __future__ import annotations

import dataclasses
import functools
import json

import pytest

from repro import telemetry
from repro.experiments.fidelity import Claim, failures
from repro.telemetry import drift, report
from repro.telemetry.drift import (
    DEFAULT_TOLERANCE,
    drift_report,
    ring_drift,
    steptime_drift,
    two_phase_drift,
)
from repro.experiments.table1 import TABLE1_ROWS


@pytest.fixture(scope="module", autouse=True)
def _des_twins_once():
    """The module's tests read the same DES twins: each (mesh geometry,
    payload, model-parallel size) all-reduce and each overlap trace is
    simulated once, and every test still computes its own closed forms
    and gates."""
    simulate = drift._two_phase_des
    twins: dict = {}

    def two_phase_des(mesh, payload_bytes, mp_size=1):
        geometry = (
            mesh.x_size, mesh.y_size, mesh.wrap_x, mesh.wrap_y,
            mesh.cross_pod_every, mesh.chip, mesh.host,
        )
        key = (geometry, payload_bytes, mp_size)
        if key not in twins:
            twins[key] = simulate(mesh, payload_bytes, mp_size)
        return twins[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(drift, "_two_phase_des", two_phase_des)
        mp.setattr(drift, "overlap_drift", functools.cache(drift.overlap_drift))
        yield


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    monkeypatch.setattr(telemetry, "enabled", True)
    telemetry.reset()
    yield
    telemetry.reset()


def _twin_row(des, closed_form):
    return Claim("drift/c/p", des, closed_form, f"drift {DEFAULT_TOLERANCE!r}")


class TestDriftEntry:
    def test_relative_drift(self):
        assert _twin_row(1.1, 1.0).error == pytest.approx(0.1)

    def test_zero_prediction_uses_absolute_floor(self):
        # A 1e-15 round-off sliver against a predicted 0.0 must not read
        # as huge relative drift: the denominator floors at 1 ns.
        assert _twin_row(1e-15, 0.0).error < 1e-5

    def test_to_json(self, capsys):
        assert report.main(["drift", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)[0]
        assert blob["case"] == "ring/pod_y_closed" and blob["phase"] == "reduce_scatter"
        assert blob["drift_rel"] == pytest.approx(
            abs(blob["measured_s"] - blob["predicted_s"]) / blob["predicted_s"]
        )


class TestModelAgreement:
    def test_ring_drift_within_tolerance(self):
        rows = ring_drift()
        assert rows and not failures(rows)

    def test_two_phase_drift_within_tolerance(self):
        rows = two_phase_drift()
        assert {"reduce_scatter_y", "all_gather_y"} <= {drift.case_phase(r)[1] for r in rows}
        assert not failures(rows)

    def test_two_phase_drift_reaches_the_4096_chip_multipod(self):
        cases = {drift.case_phase(r)[0] for r in two_phase_drift()}
        assert {
            "2d/multipod1", "2d/multipod2", "2d/multipod4",
            "ring/peer_contended_mp2_4096", "ring/peer_contended_mp4_4096",
        } <= cases

    def test_steptime_drift_has_a_twinned_row_per_table1_model(self):
        rows = steptime_drift()
        models = dict.fromkeys(row[0] for row in TABLE1_ROWS)
        assert [r.id for r in rows] == [f"drift/steptime/{m}_4096/allreduce" for m in models]
        assert all(r.reference is not None for r in rows) and not failures(rows)

    def test_a_configuration_without_des_twin_says_so(self, monkeypatch, capsys):
        from repro.core import planner

        real = planner.plan_parallelism

        def flat_ring(spec, num_chips):
            """The flat-ring baseline wherever there is no model parallelism."""
            choice = real(spec, num_chips)
            if choice.config.mp_chips > 1:
                return choice
            config = dataclasses.replace(choice.config, use_2d_allreduce=False)
            return dataclasses.replace(choice, config=config)

        monkeypatch.setattr(planner, "plan_parallelism", flat_ring)
        rows = steptime_drift()
        untwinned = [r for r in rows if r.reference is None]
        assert [r.id for r in untwinned] == [
            f"drift/steptime/{m}_4096/allreduce" for m in ("resnet50", "bert", "ssd", "dlrm")
        ]
        assert all(r.measured > 0 and r.verdict == "no twin" for r in untwinned)
        assert failures(rows) == []
        assert report.main(["drift"]) == 0
        assert capsys.readouterr().out.count("no DES twin") == len(untwinned)

    def test_overlap_drift_within_tolerance(self):
        rows = drift.overlap_drift()
        phases = {drift.case_phase(r)[1] for r in rows}
        assert phases == {"step", "exposed_comm", "hidden_comm", "wire_comm"}
        assert not failures(rows)

    def test_full_report_within_tolerance(self):
        bad = failures(drift_report())
        assert not bad, f"drift past tolerance: {[r.id for r in bad]}"


class TestGate:
    def test_check_drift_trips_on_tight_tolerance(self, capsys):
        assert report.main(["drift", "--tolerance", "1e-300"]) == 1
        assert "<< DRIFT" in capsys.readouterr().out

    def test_check_drift_flags_injected_rot(self):
        rows = [_twin_row(1.0, 1.0), _twin_row(1.5, 1.0)._replace(id="drift/rotten/p")]
        assert [r.id for r in failures(rows)] == ["drift/rotten/p"]

    def test_gate_trips_on_a_perturbed_4096_chip_row(self, monkeypatch, capsys):
        """The CI step (``python -m repro.telemetry.report drift --tolerance
        1e-6``) exits 1 when the closed form of the 4096-chip X phase moves
        by 1e-5."""
        real = drift.two_phase_allreduce

        def rotten(mesh, payload_bytes, *, mp_size=1):
            bd = real(mesh, payload_bytes, mp_size=mp_size)
            if mesh.num_chips < 4096:
                return bd
            return dataclasses.replace(bd, reduce_scatter_x=bd.reduce_scatter_x * (1 + 1e-5))

        monkeypatch.setattr(drift, "two_phase_allreduce", rotten)
        bad = failures(two_phase_drift())
        assert {r.id for r in bad} == {
            "drift/2d/multipod4/reduce_scatter_x",
            "drift/ring/peer_contended_mp2_4096/reduce_scatter_x",
            "drift/ring/peer_contended_mp4_4096/reduce_scatter_x",
        }
        assert report.main(["drift", "--tolerance", "1e-6"]) == 1
        assert capsys.readouterr().out.count("<< DRIFT") == len(bad)

    def test_gate_trips_on_a_perturbed_step_time_all_reduce(self, monkeypatch):
        from repro.core.step_time import StepTimeModel

        real = StepTimeModel.allreduce_time
        monkeypatch.setattr(
            StepTimeModel, "allreduce_time", lambda self: real(self) * (1 + 1e-5)
        )
        rows = steptime_drift()
        assert failures(rows) == rows

    def test_gauges_exported(self):
        rows = drift_report()
        assert {"model_drift_rel", "model_drift_max"} <= set(telemetry.metrics.snapshot())
        case, phase = drift.case_phase(rows[0])
        assert telemetry.metrics.value(
            "model_drift_rel", case=case, phase=phase
        ) == pytest.approx(rows[0].error, abs=0)

    def test_format_report(self, capsys):
        assert report.main(["drift"]) == 0
        text = capsys.readouterr().out
        assert "max relative drift" in text
        assert "ring/pod_y_closed" in text
