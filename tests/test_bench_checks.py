"""The benchmark's output checks, in tier-1.

``bench/checks.py`` says what a correct answer is for each workload of
``BENCHMARK.json``: trainers' parameters match the single-device run, the
exact collective sums, the searched plans never worse than replicated and
bit-exact on a ``VirtualMesh``, every cluster tenant's solo replay, the
service's accounting.  A workload attaches them to single ops (``Op.verify``)
or to whole op kinds (``Workload.checks``).  Here every workload runs
in-process as the benchmark's worker starts it — ``setup``, then the
warm-up pass, whose ops the worker checks like any other — and then
``finish``, at seed 0 and at a seed the workloads were not written against.
Every failed op is named by its kind and every failed check by its name.
"""

from __future__ import annotations

from collections import Counter

import pytest

from bench import harness
from bench.workloads import WARMUP, WORKLOADS, load
from repro import telemetry

SEEDS = (0, 7)


class _Unmetered(harness.SpeedMeter):
    """A speed meter that skips its reference task: no check reads speed."""

    def sample(self) -> float:
        return 1.0


@pytest.fixture(autouse=True)
def _clean_telemetry(monkeypatch):
    """Telemetry on as in a benchmark run; no counter or flight record leaks."""
    monkeypatch.setattr(telemetry, "enabled", True)
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_output_check_passes(name, seed, tmp_path):
    workload = load(name)(seed, tmp_path)
    try:
        workload.setup()
        ops = workload.build_pass(WARMUP)
        result = harness.run_pass(ops, [_Unmetered() for _ in ops])
        workload.finish([result])
    finally:
        workload.close()
    issued = Counter(op.kind for client in ops for op in client)
    issued.subtract(kind for kind, _, _ in result.latencies)
    assert result.failed == 0, f"failed ops: {sorted(k for k, n in issued.items() if n)}"
    failed = sorted(check for check, (ok, _) in workload.checks.items() if not ok)
    assert not failed, f"failed checks: {failed}"
