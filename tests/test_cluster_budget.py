"""What one cluster run pays per tick and per change, counted.

The scheduler keeps its waiting jobs in per-tick lists in admission order
and its running jobs in name order, so no tick sorts either set.  A
placement that failed is remembered under the allocation map's version:
asked again before the map changes, it is answered without
``find_anchor`` or a preemption plan.  Counts, not time, so the evidence
does not depend on the machine.
"""

from __future__ import annotations

import builtins

import pytest

from repro import telemetry
from repro.cluster import ClusterConfig, ClusterScheduler, ClusterState, JobSpec
from repro.cluster import scheduler as scheduler_module
from repro.resilience.faults import ChipFailure, FaultPlan

POD = (16, 16)
TENANTS = 100


def _capacity_run(seed: int) -> _Probed:
    """The capacity-planning scenario: 100 staggered 4x4 tenants, three
    priorities, sampled chip deaths that heal."""
    specs = [
        JobSpec(
            name=f"tenant-{i:03d}", slice_shape=(4, 4), target_steps=60,
            priority=i % 3, arrival_tick=2 * i, min_chips=8,
            checkpoint_interval=10, state_bytes=int(3e9),
        )
        for i in range(TENANTS)
    ]
    config = ClusterConfig(
        mesh_shape=POD, restore_bandwidth_bytes_per_s=10e9,
        heal_after_s=20.0, seed=seed,
    )
    plan = FaultPlan.sample(
        seed, POD, steps=60 + 4 * TENANTS, expected_chip_failures=6.0
    )
    return _Probed(specs, config, plan=plan)


class _Probed(ClusterScheduler):
    """Records every placement question with the probes answering it took."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probes = 0
        #: ``(map version, fit question, admitted, probes)`` per attempt.
        self.attempts: list[tuple] = []
        #: ``(map version, job, found)`` per migrate probe.
        self.migrate_probes: list[tuple] = []
        self._admitting = False
        find_anchor = self.state.find_anchor

        def counted(shape, evictable=frozenset()):
            self.probes += 1
            anchor = find_anchor(shape, evictable)
            if evictable and not self._admitting:
                (job,) = evictable
                self.migrate_probes.append(
                    (self.state.version, job, anchor is not None)
                )
            return anchor

        self.state.find_anchor = counted

    def _preemption_plan(self, job):
        self.probes += 1
        return super()._preemption_plan(job)

    def _try_admit(self, job, now_s):
        spec = job.spec
        question = (spec.slice_shape, spec.priority, spec.min_chips)
        version, before = self.state.version, self.probes
        self._admitting = True
        try:
            admitted = super()._try_admit(job, now_s)
        finally:
            self._admitting = False
        self.attempts.append((version, question, admitted, self.probes - before))
        return admitted


@pytest.mark.parametrize("seed", [0, 7])
def test_a_failed_fit_is_not_asked_again_on_an_unchanged_map(seed):
    with telemetry.disabled():
        scheduler = _capacity_run(seed)
        scheduler.run()
    failed: set[tuple] = set()
    repeats = 0
    for version, question, admitted, probes in scheduler.attempts:
        if (version, question) in failed:
            repeats += 1
            assert not admitted and probes == 0, (version, question)
        else:
            assert probes >= 1, (version, question)
            if not admitted:
                failed.add((version, question))
    # Most failed attempts retry a question already answered.
    assert repeats > len(failed) > 0
    failed_migrates = [
        (version, job) for version, job, found in scheduler.migrate_probes
        if not found
    ]
    assert len(failed_migrates) == len(set(failed_migrates))


def test_a_failed_migrate_probe_is_not_asked_again_on_an_unchanged_map():
    """A tenant shrunk by a chip death, with no free 2x2 elsewhere on the
    pod, looks for one once per map version, not once per tick."""
    specs = [
        JobSpec(name=name, slice_shape=(2, 2), target_steps=30, min_chips=2)
        for name in ("a", "b", "c", "d")
    ]
    config = ClusterConfig(mesh_shape=(4, 4), chips_per_host=4)
    plan = FaultPlan(chip_failures=(ChipFailure((0, 0), at_step=3),))
    with telemetry.disabled():
        scheduler = _Probed(specs, config, plan=plan)
        result = scheduler.run()
    assert (3, "shrink", "a") in result.trace()
    assert (30, "migrate", "a") in result.trace()
    # Shrunk from tick 3 to 30, "a" asks at version 5 (four admissions and
    # the death) and again only after b, c and d released their slices; a
    # probe per tick asked 27 times.
    assert scheduler.migrate_probes == [(5, "a", False), (8, "a", True)]


def test_no_tick_sorts_the_waiting_or_running_jobs(monkeypatch):
    """``sorted`` runs per change (a fault's owners, a preemption plan's
    victims), never once per tick over the queue or the running set."""
    calls = 0

    def counted_sorted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return builtins.sorted(*args, **kwargs)

    monkeypatch.setattr(scheduler_module, "sorted", counted_sorted, raising=False)
    with telemetry.disabled():
        scheduler = _capacity_run(0)
        result = scheduler.run()
    plans = sum(1 for *_, probes in scheduler.attempts if probes > 1)
    faults = sum(
        1 for _, event, _ in result.trace()
        if event in ("chip_failure", "host_preemption")
    )
    assert calls <= plans + 2 * faults
    assert calls < result.ticks / 4


def test_the_map_version_counts_changes_and_nothing_else():
    state = ClusterState((4, 4), chips_per_host=4)
    assert state.version == 0
    assert state.allocate("a", (2, 2)) is not None
    assert state.version == 1
    assert state.allocate("b", (4, 4)) is None  # no room: no change
    state.fail_chip((0, 0), 0.0)
    state.fail_chip((0, 0), 1.0)  # already dead
    assert state.version == 2
    state.heal_chip((0, 0))
    state.heal_chip((0, 0))  # already alive
    assert state.version == 3
    state.release("a")
    state.release("a")  # holds nothing
    assert state.version == 4
    assert state.find_anchor((2, 2)) is not None and state.version == 4
