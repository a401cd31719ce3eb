"""The flight recorder's contents, written down.

``tests/data/golden_flight.json`` holds the process flight recorder's
postmortem bundle after the service chaos executor's seed-4 job — a
real-numerics weight-update-sharded run through three chip deaths, and the
same plan in accounting mode.  Recording spans and counter deltas more
cheaply must not change *what* is recorded: every record's kind, name and
data keys, every value that is not a wall-clock time, and the final counter
snapshot must equal the file.

Wall-clock times are left out, since they differ from run to run: each
record's ``t``, a span's ``start``/``duration``, a step's
``phase_seconds`` values, and the values of every ``*_seconds`` series.
So are the gauges the runtime's process-wide caches publish at snapshot
time, which count whatever ran earlier in the process.

It uses nothing but entry points that exist on both sides of the change,
so the earlier commit wrote the file.  Regenerate with ``tests/golden.py
capture`` (see there), only when a change *means* to record something else.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.service.executors import execute_chaos
from repro.telemetry.flight import DEFAULT_CAPACITY
from tests.golden import assert_matches, load

#: The chaos job of ``golden_train.json``: its sampled plan kills three of
#: the four chips, so the trainer restores onto 3, 2 and 1 survivors.
CHAOS_JOB = {
    "mesh_shape": [2, 2], "steps": 50, "seed": 4,
    "expected_chip_failures": 1.5, "expected_stragglers": 1.0,
}

#: Span and step payload keys holding wall-clock times.
TIME_KEYS = frozenset({"start", "duration", "phase_seconds"})

#: Gauge families the runtime's process-wide caches set at snapshot time.
COLLECTED = ("padding_layout_cache_", "scratch_pool_cache_")


def _is_time_series(series: str) -> bool:
    return series.split("{", 1)[0].endswith("_seconds")


def _record(record: dict) -> dict:
    data = record["data"]
    kept = {k: v for k, v in data.items() if k not in TIME_KEYS}
    if "deltas" in kept:
        kept["deltas"] = {
            series: None if _is_time_series(series) else delta
            for series, delta in kept["deltas"].items()
        }
    if "phase_seconds" in data:
        kept["phases"] = list(data["phase_seconds"])
    return {
        "kind": record["kind"],
        "name": record["name"],
        "keys": sorted(data),
        "data": kept,
    }


def _counters(snapshot: dict) -> dict:
    out = {}
    for name, family in snapshot.items():
        if name.startswith(COLLECTED):
            continue
        values = family["values"]
        if name.endswith("_seconds"):
            values = [
                {k: v for k, v in entry.items() if k in ("labels", "count")}
                for entry in values
            ]
        out[name] = {"type": family["type"], "values": values}
    return out


def bundle_record(degraded: bool) -> dict:
    """The process recorder's bundle after one chaos job, times removed."""
    telemetry.reset()
    payload = execute_chaos(dict(CHAOS_JOB), degraded=degraded)
    bundle = telemetry.flight_recorder.postmortem_bundle("golden")
    return {
        "device_failures": payload["device_failures"],
        "num_records": bundle["num_records"],
        "records": [_record(r) for r in bundle["records"]],
        "counters": _counters(bundle["counters"]),
    }


def flight_table() -> dict:
    prev = telemetry.enabled
    telemetry.enabled = True
    try:
        return {
            "full": bundle_record(degraded=False),
            "accounting": bundle_record(degraded=True),
        }
    finally:
        telemetry.enabled = prev
        telemetry.reset()


TABLES = {"golden_flight.json": flight_table}


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    monkeypatch.setattr(telemetry, "enabled", True)
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.mark.parametrize("mode", ["full", "accounting"])
def test_flight_bundle_matches_the_golden_file(mode):
    found = bundle_record(degraded=mode == "accounting")
    assert_matches({mode: found}, {mode: load("golden_flight.json")[mode]})


def test_the_golden_file_covers_both_modes():
    """Both runs lost three chips; the full run filled the ring with spans,
    step records and counter deltas, the accounting run left gaps between
    its counter deltas (steps that wrote no metric)."""
    golden = load("golden_flight.json")
    assert set(golden) == {"full", "accounting"}
    assert all(run["device_failures"] == 3 for run in golden.values())
    full, accounting = golden["full"], golden["accounting"]
    assert full["num_records"] == DEFAULT_CAPACITY
    assert {"span", "step", "counters", "chaos"} <= {r["kind"] for r in full["records"]}
    kinds = [r["kind"] for r in accounting["records"]]
    assert kinds.count("step") > kinds.count("counters") > 0

