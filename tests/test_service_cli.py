"""``repro-service``: the exit codes a user sees.

``submit`` prints a job's JSON payload (0) and refuses unreadable or
non-object parameters before anything runs (2).  ``sweep`` refuses a bad
job file (2), stops with 3 when killed after ``--interrupt-after`` fresh
jobs, and a rerun resumes from the journal: it executes only the rest, and
its ``--out`` payloads equal an uninterrupted run's.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.service.cli import main

JOBS = [
    {"kind": "steptime", "params": {"chips": 256, "global_batch": 1024 * (i + 1)}}
    for i in range(5)
]


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


def _sweep(tmp_path, jobs, journal: str, *extra: str) -> int:
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(jobs))
    return main([
        "sweep", "--jobs", str(path), "--journal", str(tmp_path / journal), *extra,
    ])


def test_submit_prints_the_payload(capsys):
    assert main(["submit", "--kind", "steptime", "--params", '{"chips": 64}']) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["chips"] == 64 and payload["step_time_s"] > 0


@pytest.mark.parametrize("params", ["{", "[1]", '"x"'])
def test_submit_refuses_bad_params(params, capsys):
    assert main(["submit", "--kind", "steptime", "--params", params]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("jobs", [
    [],
    [{"params": {}}],
    [{"kind": "steptime", "params": [1]}],
    [{"kind": "bogus"}],
], ids=["empty", "no_kind", "params_not_an_object", "unknown_kind"])
def test_sweep_refuses_a_bad_job_file(jobs, tmp_path, capsys):
    assert _sweep(tmp_path, jobs, "journal.jsonl") == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "journal.jsonl").exists()


def test_killed_sweep_resumes_from_its_journal(tmp_path, capsys):
    assert _sweep(tmp_path, JOBS, "journal.jsonl", "--interrupt-after", "2") == 3
    assert _sweep(
        tmp_path, JOBS, "journal.jsonl", "--out", str(tmp_path / "resumed.json")
    ) == 0
    assert "3 executed, 2 reused" in capsys.readouterr().out
    assert _sweep(tmp_path, JOBS, "fresh.jsonl", "--out", str(tmp_path / "fresh.json")) == 0
    resumed = (tmp_path / "resumed.json").read_text()
    assert resumed == (tmp_path / "fresh.json").read_text()
    assert len(json.loads(resumed)) == len(JOBS)


def test_submit_refuses_a_nan_parameter(capsys):
    """``json.loads`` reads ``NaN``; the spec must not hash or run it."""
    params = '{"base_step_seconds": NaN}'
    assert main(["submit", "--kind", "chaos", "--params", params]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "params.base_step_seconds" in err


def test_sweep_refuses_a_nan_before_any_journal_line(tmp_path, capsys):
    path = tmp_path / "jobs.json"
    path.write_text(json.dumps(JOBS[:2] + [
        {"kind": "steptime", "params": {"chips": 256, "global_batch": float("nan")}},
    ]))
    journal = tmp_path / "journal.jsonl"
    assert main(["sweep", "--jobs", str(path), "--journal", str(journal)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "params.global_batch" in err
    assert not journal.exists()
