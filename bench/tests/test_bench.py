"""Self-tests of the benchmark harness (not part of tier-1).

    python -m pytest bench/tests -q

They run the real workloads for a fraction of a second each, so the whole
file takes about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import compare, harness, run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
EPS = 1e-6


def worker(workload: str, mode: str, out_dir: Path, seed: int = 0) -> dict:
    return run.start_worker(workload, seed, 0.1, mode, out_dir)


# --- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert max(m["bound"] for m in SPEC["end_to_end"]) == setup[0]["bound"]


# --- smoke of all five workloads ---------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload, tmp_path):
    result = worker(workload, "measure", tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and all(result["checks"].values())
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "cpu_ms_per_op", "peak_rss_mb"):
        assert result["metrics"][name] > 0
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms", "cpu_ms_per_op"):
        assert result["metrics"][f"cal_{name}"] > 0
    assert result["setup_s"] > 0 and result["exact"]
    assert not list(tmp_path.iterdir()), "temporary files were left behind"


# --- the command line the driver uses ----------------------------------------


def run_cli(tmp_path_factory, *flags: str) -> tuple[dict, dict]:
    """``run.py`` as the driver starts it: the JSON line and the result file."""
    out = tmp_path_factory.mktemp("cli") / "result.json"
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "plan_query",
         "--seed", "5", "--seconds", "0.1", *flags, "--out", str(out)],
        capture_output=True, text=True, timeout=170, cwd=tmp_path_factory.mktemp("cwd"),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    assert SPEC["command"][-2:] == ["--runs", "1"]
    return run_cli(tmp_path_factory, "--trace", "0", "--runs", "1")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return run_cli(tmp_path_factory, "--trace", "1", "--runs", "1")


def check_contract_line(line: dict, specs: list[dict]) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = line["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


def test_cli_prints_the_contract_lines(untraced, traced):
    check_contract_line(untraced[0], SPEC["end_to_end"])
    check_contract_line(traced[0], SPEC["per_layer"])
    assert all(m["value"] > 0 for m in untraced[0]["metrics"].values())


def test_result_file_holds_host_time_and_error_rate(untraced):
    part = untraced[1]["workloads"]["plan_query"]["end_to_end"]
    assert part["error_rate"] == 0.0
    for m in run.HOST_TIME:
        assert part["metrics"][m["name"]]["value"] > 0
        assert part["metrics"][m["name"]]["unit"] == m["unit"]


def test_layers_a_workload_bypasses_read_zero(traced):
    metrics = traced[0]["metrics"]
    assert metrics["spmd.self_ms_per_op"]["value"] > 0
    assert metrics["sim.self_ms_per_op"]["value"] > 0
    assert metrics["models.self_ms_per_op"]["value"] == 0
    assert metrics["service.ms_chaos"]["value"] == 0


def test_same_seed_repeats_exact_counters(untraced, traced):
    first = untraced[1]["workloads"]["plan_query"]["end_to_end"]["exact"]
    again = traced[1]["workloads"]["plan_query"]["per_layer"]["exact"]
    assert {"spmd.candidates_expanded", "sim.phase_runs"} <= set(first)
    assert first == again and first["spmd.candidates_expanded"][0] > 0


# --- the measurement loop ----------------------------------------------------


def test_a_failed_op_cannot_read_as_a_speed_up():
    def slow():
        time.sleep(0.01)

    def slow_then_raise():
        time.sleep(0.01)
        raise RuntimeError("injected")

    meters = [harness.SpeedMeter()]
    clean = harness.run_pass([[harness.Op("op", slow) for _ in range(8)]], meters)
    half = harness.run_pass(
        [[harness.Op("op", slow_then_raise if i % 2 else slow) for i in range(8)]], meters
    )
    assert (clean.failed, half.failed, len(half.latencies)) == (0, 4, 4)
    assert half.wall_s >= 0.08  # the failed ops' time stays in the pass
    rate = harness.end_to_end_metrics([half])["ops_per_s"]
    assert rate <= 0.6 * harness.end_to_end_metrics([clean])["ops_per_s"]


# --- trace well-formedness ---------------------------------------------------


@pytest.mark.parametrize("workload", ["train_step", "service_mix"])
def test_trace_is_well_formed(workload, tmp_path):
    result = worker(workload, "trace", tmp_path)
    assert result["correct"]
    document = json.loads((tmp_path / f"trace_{workload}.json").read_text())
    fields = document["span_fields"]
    spans = [dict(zip(fields, s)) for s in document["spans"]]
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans) and document["traceEvents"]

    children = defaultdict(float)
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is None:
            assert s["op"] == s["id"]
            continue
        parent = by_id[s["parent"]]  # every parent exists
        assert parent["thread"] == s["thread"] and parent["op"] == s["op"]
        assert parent["start"] - EPS <= s["start"] and s["end"] <= parent["end"] + EPS
        children[s["parent"]] += s["end"] - s["start"]

    self_time = {s["id"]: s["end"] - s["start"] - children[s["id"]] for s in spans}
    assert min(self_time.values()) >= -EPS
    per_op = defaultdict(float)
    for s in spans:
        per_op[s["op"]] += self_time[s["id"]]
    roots = [s for s in spans if s["layer"] == "bench"]
    assert roots
    for root in roots:  # root self + everything below it = the op's duration
        assert per_op[root["id"]] == pytest.approx(root["end"] - root["start"], abs=EPS)

    # The per-layer table is the same sum, reported per op.
    ops = len(roots)
    layers = defaultdict(float)
    for s in spans:
        layers[s["layer"]] += self_time[s["id"]]
    for layer, seconds in layers.items():
        assert result["metrics"][f"{layer}.self_ms_per_op"] == pytest.approx(
            1e3 * seconds / ops, rel=1e-6, abs=1e-9
        )


# --- compare.py --------------------------------------------------------------


def _result(cal_ops_per_s, q=0.0, expanded=10.0, failed=0):
    def metric(value, q=0.0):
        return {"unit": "x", "value": value, "q1": value * (1 - q), "q3": value * (1 + q),
                "runs": [value]}

    metrics = {m["name"]: metric(1.0) for m in SPEC["end_to_end"] + run.HOST_TIME}
    metrics["cal_ops_per_s"] = metric(cal_ops_per_s, q)
    metrics["ops_per_s"] = metric(cal_ops_per_s * (2.0 if failed else 1.0))
    return {"workloads": {"plan_query": {"end_to_end": {
        "metrics": metrics, "failed": failed, "attempted": 100,
        "error_rate": failed / 100, "exact": {"spmd.candidates_expanded": [expanded]},
    }}}}


def test_compare_verdicts():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "cal_ops_per_s")
    base = _result(100.0)
    lines, bad = compare.compare(base, _result(100.0 * (1 - bound / 2)), SPEC)
    assert bad == 0 and "worse" not in "\n".join(lines)
    lines, bad = compare.compare(base, _result(100.0 * (1 - 2 * bound)), SPEC)
    assert bad == 1 and sum("worse" in line for line in lines) == 1
    # higher ops_per_s is better: a gain is never "worse"
    assert compare.compare(base, _result(100.0 * (1 + 2 * bound)), SPEC)[1] == 0
    lines, bad = compare.compare(base, _result(100.0 * (1 - 2 * bound), q=bound), SPEC)
    assert bad == 0 and sum("unresolved" in line for line in lines) == 1
    lines, bad = compare.compare(base, _result(100.0, expanded=11.0), SPEC)
    assert bad == 1 and "exact counter" in lines[-1]


def test_compare_fails_a_rise_in_failed_ops():
    # Faster on every row, but with failed ops: never "no regression".
    lines, bad = compare.compare(_result(100.0), _result(200.0, failed=50), SPEC)
    assert bad == 1
    assert [line for line in lines if "worse" in line][0].split()[1] == "error_rate"
    # As many failures as the base had is not a rise.
    assert compare.compare(_result(100.0, failed=50), _result(100.0, failed=50), SPEC)[1] == 0
