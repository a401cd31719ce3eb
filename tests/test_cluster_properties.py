"""Invariants of the cluster's bookkeeping, fuzzed, and its plan validation.

* ``ClusterState.find_anchor`` against the nested row-major scan it
  replaced (kept here as the oracle) on random occupancy, dead chips and
  ``evictable`` sets, on 1xn, nx1, 5x7 and 16x16 pods;
* a hypothesis state machine over ``allocate`` / ``release`` /
  ``fail_chip`` / ``heal_chip`` / ``find_anchor``: no chip in two slices, a
  dead chip never newly allocated, ``alive_in`` equal to a fresh filter of
  the slice, ``free_chips`` equal to a recount;
* the scheduler's state index partitioning its jobs by ``report.state``
  at every transition of sampled runs, and nothing of it outliving a run;
* fault plans naming chips or hosts the pod lacks, refused before tick 0.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import telemetry
from repro.cluster import (
    JOB_STATES,
    ClusterConfig,
    ClusterScheduler,
    ClusterState,
    JobSpec,
    run_cluster,
)
from repro.resilience.faults import (
    ChipFailure,
    FaultPlan,
    PreemptionSignal,
    StragglerFault,
)

MESHES = ((1, 12), (12, 1), (5, 7), (16, 16))


def scan_anchor(state: ClusterState, names, shape, evictable=frozenset()):
    """The nested row-major first-fit scan: every anchor, every chip."""
    x_size, y_size = state.mesh_shape
    owner = {
        device: name
        for name in names
        if state.slice_of(name) is not None
        for device in state.slice_of(name).devices
    }

    def fits(x0, y0, w, h):
        for x in range(x0, x0 + w):
            for y in range(y0, y0 + h):
                if state.is_dead((x, y)):
                    return False
                held_by = owner.get((x, y))
                if held_by is not None and held_by not in evictable:
                    return False
        return True

    w, h = shape
    for ow, oh in [(w, h)] if w == h else [(w, h), (h, w)]:
        if ow > x_size or oh > y_size:
            continue
        for x0 in range(x_size - ow + 1):
            for y0 in range(y_size - oh + 1):
                if fits(x0, y0, ow, oh):
                    return (x0, y0, ow, oh)
    return None


def _devices(mesh):
    x_size, y_size = mesh
    return st.tuples(st.integers(0, x_size - 1), st.integers(0, y_size - 1))


def _shapes(mesh):
    dims = st.integers(1, max(mesh))
    return st.tuples(dims, dims)


@st.composite
def occupied_pods(draw):
    """A pod after random allocations, releases, deaths and heals."""
    mesh = draw(st.sampled_from(MESHES))
    state = ClusterState(mesh)
    names = []
    for i in range(draw(st.integers(0, 20))):
        if state.allocate(f"j{i}", draw(_shapes(mesh))) is not None:
            names.append(f"j{i}")
    for name in draw(st.lists(st.sampled_from(names), unique=True)) if names else ():
        state.release(name)
    for device in draw(st.lists(_devices(mesh), max_size=12)):
        state.fail_chip(device, now_s=0.0)
    for device in draw(st.lists(_devices(mesh), max_size=4)):
        state.heal_chip(device)
    return state, [f"j{i}" for i in range(20)]


class TestFindAnchorAgainstTheScan:
    @given(pod=occupied_pods(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bitmask_first_fit_equals_the_nested_scan(self, pod, data):
        state, names = pod
        shape = data.draw(_shapes(state.mesh_shape))
        evictable = frozenset(data.draw(st.lists(st.sampled_from(names + ["ghost"]))))
        for free_of in (frozenset(), evictable):
            assert state.find_anchor(shape, free_of) == scan_anchor(
                state, names, shape, free_of
            ), (shape, sorted(free_of))

    def test_dead_chip_inside_an_evictable_slice_still_blocks(self):
        state = ClusterState((2, 2))
        state.allocate("a", (2, 2))
        state.fail_chip((1, 1), now_s=0.0)
        assert state.find_anchor((2, 2), evictable=frozenset({"a"})) is None
        assert state.find_anchor((2, 1), evictable=frozenset({"a"})) == (0, 0, 2, 1)


class ClusterStateMachine(RuleBasedStateMachine):
    """Random op sequences; the invariants hold after every one of them."""

    @initialize(mesh=st.sampled_from(MESHES))
    def make_pod(self, mesh):
        self.state = ClusterState(mesh, chips_per_host=4)
        self.mesh = mesh
        self.names: list[str] = []
        self.minted = 0
        self.clock = 0.0

    def _all_chips(self):
        x_size, y_size = self.mesh
        return [(x, y) for x in range(x_size) for y in range(y_size)]

    def _owner(self, device):
        return next(
            (n for n in self.names if device in self.state.slice_of(n).devices),
            None,
        )

    @rule(data=st.data())
    def allocate(self, data):
        shape = data.draw(_shapes(self.mesh))
        name = f"j{self.minted}"
        self.minted += 1
        expected = scan_anchor(self.state, self.names, shape)
        slc = self.state.allocate(name, shape)
        if expected is None:
            assert slc is None
            return
        assert (slc.x0, slc.y0, slc.width, slc.height) == expected
        assert not any(self.state.is_dead(d) for d in slc.devices)
        self.names.append(name)
        with pytest.raises(ValueError):
            self.state.allocate(name, shape)

    @rule(data=st.data())
    def release(self, data):
        if not self.names:
            assert self.state.release("nobody") is None
            return
        name = data.draw(st.sampled_from(self.names))
        assert self.state.release(name).job == name
        self.names.remove(name)
        assert self.state.slice_of(name) is None

    @rule(data=st.data())
    def fail_chip(self, data):
        device = data.draw(_devices(self.mesh))
        self.clock += 1.0
        assert self.state.fail_chip(device, self.clock) == self._owner(device)
        assert self.state.is_dead(device)

    @rule(data=st.data())
    def heal_chip(self, data):
        device = data.draw(_devices(self.mesh))
        assert self.state.heal_chip(device) == self._owner(device)
        assert not self.state.is_dead(device)

    @rule(data=st.data())
    def find_anchor(self, data):
        shape = data.draw(_shapes(self.mesh))
        evictable = frozenset(
            data.draw(st.lists(st.sampled_from(self.names))) if self.names else ()
        )
        assert self.state.find_anchor(shape, evictable) == scan_anchor(
            self.state, self.names, shape, evictable
        )

    @invariant()
    def no_chip_in_two_slices(self):
        held = [d for n in self.names for d in self.state.slice_of(n).devices]
        assert len(held) == len(set(held))

    @invariant()
    def column_masks_are_the_slices_and_the_dead(self):
        owned = [0] * self.mesh[0]
        for name in self.names:
            for x, y in self.state.slice_of(name).devices:
                owned[x] |= 1 << y
        dead = [0] * self.mesh[0]
        for x, y in self._all_chips():
            if self.state.is_dead((x, y)):
                dead[x] |= 1 << y
        assert (self.state._owned, self.state._dead_cols) == (owned, dead)

    @invariant()
    def alive_in_is_a_fresh_filter(self):
        for name in self.names:
            fresh = tuple(
                d for d in self.state.slice_of(name).devices
                if not self.state.is_dead(d)
            )
            assert self.state.alive_in(name) == fresh

    @invariant()
    def free_chips_is_a_recount(self):
        held = {d for n in self.names for d in self.state.slice_of(n).devices}
        assert self.state.free_chips == sum(
            1 for d in self._all_chips()
            if d not in held and not self.state.is_dead(d)
        )
        assert self.state.dead_chips == sum(
            self.state.is_dead(d) for d in self._all_chips()
        )


ClusterStateMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestClusterStateMachine = ClusterStateMachine.TestCase


def _partition_holds(scheduler: ClusterScheduler) -> None:
    by_state = scheduler._by_state
    assert set(by_state) == set(JOB_STATES)
    for state, names in by_state.items():
        assert names == {
            name for name, job in scheduler.jobs.items() if job.report.state == state
        }, state


class _Checked(ClusterScheduler):
    """Checks the state index at every transition and at every tick's end."""

    def _emit(self, event, tenant, **info):
        _partition_holds(self)
        super()._emit(event, tenant, **info)

    def _run_steps(self, now_s):
        super()._run_steps(now_s)
        _partition_holds(self)


def _sampled_run(seed: int, tenants: int, mesh: tuple[int, int]):
    specs = [
        JobSpec(
            name=f"t{i:02d}", slice_shape=((2, 2), (3, 1), (2, 3))[i % 3],
            target_steps=8 + 2 * i, priority=i % 3, arrival_tick=i,
            min_chips=1 + i % 2, checkpoint_interval=3, state_bytes=int(1e9),
        )
        for i in range(tenants)
    ]
    plan = FaultPlan.sample(
        seed, mesh, steps=60, expected_chip_failures=3.0,
        expected_stragglers=2.0, expected_preemptions=1.5, chips_per_host=4,
    )
    config = ClusterConfig(
        mesh_shape=mesh, chips_per_host=4, heal_after_s=6.0, max_ticks=300,
        seed=seed,
    )
    return specs, config, plan


class TestStateIndex:
    @given(
        seed=st.integers(0, 2**31 - 1),
        tenants=st.integers(1, 12),
        mesh=st.sampled_from(((4, 4), (6, 6), (8, 4))),
    )
    @settings(max_examples=25, deadline=None)
    def test_state_sets_partition_the_jobs_at_every_transition(
        self, seed, tenants, mesh
    ):
        specs, config, plan = _sampled_run(seed, tenants, mesh)
        with telemetry.disabled():
            scheduler = _Checked(specs, config, plan=plan)
            _partition_holds(scheduler)
            scheduler.run()
        _partition_holds(scheduler)

    def test_nothing_outlives_a_run(self):
        """Two schedulers over the same inputs build their own index and
        pod state, and agree event for event."""
        specs, config, plan = _sampled_run(2021, 12, (6, 6))
        with telemetry.disabled():
            first = ClusterScheduler(specs, config, plan=plan)
            second = ClusterScheduler(specs, config, plan=plan)
            assert first._by_state is not second._by_state
            assert first.state is not second.state
            a, b = first.run(), second.run()
        assert a.events == b.events and a.jobs == b.jobs
        assert (a.ticks, a.chip_seconds_used) == (b.ticks, b.chip_seconds_used)
        assert {event for _, event, _ in a.trace()} >= {"preempt", "shrink"}


class TestFaultPlanIsCheckedAgainstThePod:
    SPECS = [JobSpec(name="only", slice_shape=(2, 2), target_steps=8)]
    CONFIG = ClusterConfig(mesh_shape=(4, 4))  # 8 chips per host: hosts 0, 1

    @pytest.fixture(autouse=True)
    def _fresh_telemetry(self):
        telemetry.reset()
        yield
        telemetry.reset()

    @pytest.mark.parametrize(
        "plan, named",
        [
            (FaultPlan(chip_failures=(ChipFailure((7, 7), at_step=3),)), r"\(7, 7\)"),
            (FaultPlan(chip_failures=(ChipFailure((-1, 0), at_time=1.0),)), r"\(-1, 0\)"),
            (
                FaultPlan(stragglers=(StragglerFault((4, 0), 0, 3, 2.0),)),
                r"device \(4, 0\), not on the 4x4 pod: StragglerFault",
            ),
            (
                FaultPlan(preemptions=(PreemptionSignal(host=9, at_step=2),)),
                r"host 9, but the pod has hosts 0\.\.1",
            ),
        ],
    )
    def test_off_pod_fault_is_refused_before_tick_0(self, plan, named):
        with pytest.raises(ValueError, match=named):
            run_cluster(self.SPECS, self.CONFIG, plan=plan)
        # Refused in the constructor: no tick ran, nothing was published.
        assert not any(
            name.startswith("cluster_") for name in telemetry.metrics.snapshot()
        )

    def test_the_first_offending_fault_is_named(self):
        plan = FaultPlan(
            chip_failures=(
                ChipFailure((0, 0), at_step=1),
                ChipFailure((4, 1), at_step=2),
                ChipFailure((5, 1), at_step=0),
            ),
            preemptions=(PreemptionSignal(host=2, at_step=0),),
        )
        with pytest.raises(ValueError, match=r"\(4, 1\)"):
            ClusterScheduler(self.SPECS, self.CONFIG, plan=plan)

    def test_on_pod_edges_are_accepted(self):
        plan = FaultPlan(
            chip_failures=(ChipFailure((3, 3), at_step=1),),
            stragglers=(StragglerFault((0, 3), 0, 2, 2.0),),
            preemptions=(PreemptionSignal(host=1, at_step=4),),
        )
        result = run_cluster(self.SPECS, self.CONFIG, plan=plan)
        assert {"chip_failure", "host_preemption"} <= {e for _, e, _ in result.trace()}

    def test_heal_chip_off_the_pod_raises_like_fail_chip(self):
        state = ClusterState((4, 4))
        for call in (
            lambda: state.fail_chip((7, 7), now_s=0.0),
            lambda: state.heal_chip((7, 7)),
            lambda: state.heal_chip((0, -1)),
        ):
            with pytest.raises(ValueError, match="not on the pod"):
                call()
