"""Output checks: what "the program's output is correct" means per workload.

Every function is a pure predicate (or a distance) over values the program
returned; the workloads attach them to ops (``Op.verify``) or to whole op
kinds (``Workload.checks``).  A failed check fails the ops it covers, so it
shows in the failure count rather than stopping the run.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np


def exact_sum(block: np.ndarray, result) -> bool:
    """Every device of an all-reduce holds exactly the column sum.

    ``block`` is the device-major ``(n, size)`` input of integer-valued
    floats (so the sum is exact in any order); ``result`` is what the
    collective returned — a ``StackedValue``, a device-major array, or a
    per-device list.
    """
    expected = block.sum(axis=0, dtype=np.float64)
    rows = result.rows() if hasattr(result, "rows") else result
    return all(np.array_equal(np.asarray(row).reshape(-1), expected) for row in rows)


def max_param_diff(
    params: Mapping[str, np.ndarray], reference: Mapping[str, np.ndarray]
) -> float:
    """Largest absolute element difference between two parameter trees."""
    if set(params) != set(reference):
        return float("inf")
    return max(
        float(np.max(np.abs(np.asarray(params[k]) - np.asarray(reference[k]))))
        for k in reference
    )


def solo_replays_identical(table) -> bool:
    """Every tenant of a real-numerics cluster scenario replayed bit-for-bit.

    ``table`` is what ``repro.experiments.cluster`` returns: its last column
    is the verdict of ``solo_replay`` against the tenant's final parameters.
    """
    return bool(table.rows) and all(row[-1] == "yes" for row in table.rows)


def tables_nonempty(result) -> bool:
    """An experiment driver returned tables/figures that all hold data."""
    items = result if isinstance(result, list) else [result]
    return all(getattr(i, "rows", None) or getattr(i, "series", None) for i in items)


def never_worse_than_replicated(result) -> bool:
    """A partitioner search result is at least as fast as all-replicated."""
    return result.best.total_seconds <= result.baseline.total_seconds


def search_validated(result) -> bool:
    """The winning plan executed bit-exactly on a ``VirtualMesh``."""
    return bool(result.validations) and all(v.ok for v in result.validations)


def cluster_accounted(result, tenants: int) -> bool:
    """Every tenant ended completed or rejected, and the ledgers add up."""
    if result.completed + result.rejected != tenants:
        return False
    return all(goodput_consistent(job) for job in result.jobs.values())


def goodput_consistent(report) -> bool:
    """A ``GoodputAccounting`` ledger's sums are consistent with each other."""
    return (
        0.0 <= report.useful_seconds <= report.total_seconds + 1e-9
        and report.restart_seconds <= report.total_seconds + 1e-9
        and report.lost_steps >= 0
        and 0.0 <= report.goodput <= 1.0 + 1e-12
    )


def service_accounted(snapshot: Mapping) -> bool:
    """``submitted == completed + failed + rejected`` on a service snapshot."""
    rejected = sum(snapshot["rejected"].values())
    return snapshot["submitted"] == (
        snapshot["completed"] + snapshot["failed"] + rejected
    )
