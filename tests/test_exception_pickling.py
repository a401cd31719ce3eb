"""Every exception class under ``repro`` with its own ``__init__`` pickles.

A forked service worker sends an executor's exception back to the service
by pickle, so a class whose constructor takes other arguments than its
message must say how it is rebuilt.  The walk below finds every such class;
each needs a sample here, and must come back with its type, message and
attributes.
"""

from __future__ import annotations

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro
from repro.controlplane.group import JobKilledError
from repro.controlplane.guard import SilentCorruptionError
from repro.resilience.faults import DeviceLostError, LinkDownError
from repro.service.spec import JobFailed, SimJob, WorkerCrashError
from repro.service.sweep import SweepInterrupted
from repro.spmd.partitioner import PartitionInfeasible

SAMPLES = {
    "repro.controlplane.group.JobKilledError": lambda: JobKilledError(3),
    "repro.controlplane.guard.SilentCorruptionError":
        lambda: SilentCorruptionError("gradient", ("w1", "b1"), 7),
    "repro.resilience.faults.DeviceLostError":
        lambda: DeviceLostError([(1, 1), (0, 1)], "no survivors left"),
    "repro.resilience.faults.LinkDownError":
        lambda: LinkDownError((0, 0), (0, 1), 4),
    "repro.service.spec.JobFailed":
        lambda: JobFailed(SimJob("steptime", {"chips": 64}, name="q"), 3, cause="x"),
    "repro.service.spec.WorkerCrashError": lambda: WorkerCrashError(1, "q", 2),
    "repro.service.sweep.SweepInterrupted": lambda: SweepInterrupted(2, 5),
    "repro.spmd.partitioner.PartitionInfeasible":
        lambda: PartitionInfeasible("no rule for conv filter split", 4),
}


def _exception_classes() -> set[str]:
    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__ == module.__name__
                and "__init__" in vars(obj)
            ):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    return found


def test_every_exception_with_its_own_init_has_a_sample():
    assert _exception_classes() == set(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_type_message_and_attributes_survive_a_round_trip(name):
    exc = SAMPLES[name]()
    exc.note = "set after construction"
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_a_job_killed_error_keeps_its_host_and_reason():
    back = pickle.loads(pickle.dumps(JobKilledError(5, "coordinator lost")))
    assert (back.host, str(back)) == (5, "coordinator lost")
