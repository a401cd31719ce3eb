"""Remembering failed placements changes no number.

The scheduler answers a placement question that already failed on the
same allocation-map version from memory.  Forcing every such lookup to miss
makes it ask ``find_anchor`` and the preemption planner again; over random
tenant mixes under chip deaths that heal, host preemptions and stragglers,
the two runs must agree on every event, every ledger bit and every solo
replay.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster import ClusterConfig, ClusterScheduler, JobSpec, solo_replay
from repro.core.trainer import TrainerConfig
from repro.models.mlp import MLP
from repro.optim.adam import Adam
from repro.resilience.faults import FaultPlan
from tests.golden import digest
from tests.test_cluster_golden import result_record

MESHES = ((4, 4), (6, 6), (8, 4))
#: Slices of at most four chips: a 12-sample batch splits over any survivor
#: count.  Accounting-only tenants also take the larger ones.
REAL_SHAPES = ((1, 1), (2, 1), (1, 2), (3, 1), (2, 2), (1, 4))
SHAPES = REAL_SHAPES + ((3, 3), (4, 2), (2, 4))


def _batch_fn_factory(job_seed: int):
    def batch(step: int):
        rng = np.random.default_rng((job_seed, step))
        return rng.standard_normal((12, 8)), rng.integers(0, 4, size=12)

    return batch


@st.composite
def tenants(draw):
    """2-20 tenants, more chips than the pod has, from a palette of one to
    three shapes (so one question is asked at several priorities):
    shapes, priorities, elastic floors, arrivals.  The first ``real`` of
    them train a model."""
    count = draw(st.integers(2, 20))
    real = draw(st.integers(0, 2))
    palette = draw(st.lists(st.sampled_from(SHAPES), min_size=1, max_size=3))
    specs = []
    for i in range(count):
        trains = i < real
        w, h = draw(st.sampled_from(REAL_SHAPES if trains else palette))
        specs.append(JobSpec(
            name=f"t{i:02d}", slice_shape=(w, h),
            target_steps=draw(st.integers(3, 8 if trains else 30)),
            priority=draw(st.integers(0, 3)),
            arrival_tick=draw(st.integers(0, 30)),
            min_chips=draw(st.integers(1, w * h)),
            checkpoint_interval=draw(st.integers(1, 5)),
            state_bytes=draw(st.sampled_from((0, int(1e9), int(4e9)))),
            trainer_config=TrainerConfig(
                model=MLP([8, 16, 4]), optimizer=Adam(learning_rate=0.01),
                strategy="wus",
            ) if trains else None,
            batch_fn_factory=_batch_fn_factory if trains else None,
        ))
    return specs


class _Counted(ClusterScheduler):
    """Counts the questions answered from memory."""

    hits = 0

    def _failed_before(self, question) -> bool:
        hit = super()._failed_before(question)
        _Counted.hits += hit
        return hit


def _run(specs, config, plan, scheduler=ClusterScheduler):
    with telemetry.disabled():
        return scheduler(specs, config, plan=plan).run()


@given(
    specs=tenants(),
    seed=st.integers(0, 2**31 - 1),
    mesh=st.sampled_from(MESHES),
)
@settings(max_examples=40, deadline=None)
def test_a_scheduler_that_remembers_no_failure_runs_the_same(specs, seed, mesh):
    plan = FaultPlan.sample(
        seed, mesh, steps=80, expected_chip_failures=3.0,
        expected_stragglers=2.0, expected_preemptions=1.5, chips_per_host=4,
    )
    config = ClusterConfig(
        mesh_shape=mesh, chips_per_host=4, heal_after_s=6.0, max_ticks=300,
        seed=seed,
    )
    _Counted.hits = 0
    remembered = _run(specs, config, plan, _Counted)
    event(f"answered from memory: {'some' if _Counted.hits else 'none'}")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            ClusterScheduler, "_failed_before", lambda self, question: False
        )
        forgot = _run(specs, config, plan)
    assert result_record(forgot) == result_record(remembered)
    for spec in specs:
        if spec.trainer_config is None:
            continue
        replays = [
            solo_replay(spec, run.jobs[spec.name], seed)
            for run in (remembered, forgot)
        ]
        assert digest(replays[0], root=None) == digest(replays[1], root=None)
        final = remembered.jobs[spec.name].final_params
        if final is not None:
            assert digest(replays[0], root=None) == digest(final, root=None)
