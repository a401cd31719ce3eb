"""Every public door refuses a number it cannot honour, in one vocabulary.

Two parts:

* **Probes.**  Each input below used to be accepted and came back as a
  silently wrong result: a NaN goodput, non-finite parameters, a
  content key over a string that is not JSON.  Each is now refused at
  construction with a ``ValueError`` that names the field.
* **Generative contracts.**  Per door, hypothesis draws every field from
  its valid range, its boundaries, zero, negatives, NaN, ±inf, a huge
  value and wrong types.  The outcome is either a result whose
  invariants hold (finite goodput in [0, 1], the goodput ledger, no NaN
  anywhere in a report, ``submitted == completed + failed + rejected``)
  or an exception from the door's declared set, never an
  ``AttributeError``, ``ZeroDivisionError``, ``IndexError`` or
  ``KeyError``.  A huge *count* is drawn only where nothing runs it: a
  valid count of 10**12 steps is a long run, not a refusal.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.cluster.jobs import JobSpec
from repro.cluster.scheduler import ClusterConfig, run_cluster
from repro.comm.cost import reduce_scatter_time
from repro.core.data_parallel import DataParallelTrainer
from repro.core.planner import PLANNER_RULES, plan_parallelism
from repro.core.strategy import ParallelismConfig
from repro.core.trainer import STRATEGIES, TrainerConfig, make_trainer
from repro.core.weight_update_sharding import WeightUpdateShardedTrainer
from repro.experiments.calibration import spec_for
from repro.models.mlp import MLP
from repro.optim import LAMB, LARS, Adam, SGDMomentum
from repro.optim.schedules import LinearWarmupPolyDecay
from repro.refuse import UnknownName, count
from repro.resilience.chaos import ChaosConfig, GoodputAccounting, run_chaos
from repro.resilience.faults import (
    DeviceLostError,
    FaultPlan,
    LinkFault,
    PreemptionSignal,
    RetryPolicy,
    StragglerFault,
)
from repro.service import ServiceConfig, SimJob, SimulationService, canonical_spec
from repro.service.executors import execute_chaos, execute_cluster, execute_steptime
from repro.service.spec import JobFailed, ServiceRejection
from repro.spmd.plan import ShardingSpec
from repro.spmd.search import SearchConfig

NAN, INF = math.nan, math.inf

#: The exceptions a door may answer a bad number with.
REFUSED = (ValueError, TypeError)

#: What no door may ever raise: each is a missing check behind it.
NEVER = (AttributeError, ZeroDivisionError, IndexError, KeyError)

# Deterministic, like CI: a red build replays the same examples.
CONTRACT = settings(
    settings.get_profile("ci"),
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)


# --- probes -------------------------------------------------------------------


@pytest.mark.parametrize("value", [NAN, INF])
def test_chaos_config_refuses_a_non_finite_step_price(value):
    with pytest.raises(ValueError, match="base_step_seconds"):
        ChaosConfig((2, 2), 6, base_step_seconds=value)


def test_cluster_config_refuses_a_nan_step_price():
    with pytest.raises(ValueError, match="base_step_seconds"):
        ClusterConfig((4, 4), base_step_seconds=NAN)


def test_job_spec_refuses_nan_state_bytes():
    with pytest.raises(ValueError, match="state_bytes"):
        JobSpec("a", (2, 2), 4, state_bytes=NAN)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Adam(NAN),
        lambda: SGDMomentum(NAN),
        lambda: SGDMomentum(INF),
        lambda: LARS(NAN),
        lambda: LAMB(NAN),
    ],
    ids=["adam_nan", "sgd_nan", "sgd_inf", "lars_nan", "lamb_nan"],
)
def test_optimizers_refuse_a_non_finite_learning_rate(make):
    with pytest.raises(ValueError, match="learning_rate"):
        make()


def test_run_chaos_with_a_nan_step_price_is_refused_before_it_runs():
    """Used to return goodput nan and total_seconds nan."""
    with pytest.raises(ValueError, match="base_step_seconds"):
        run_chaos(FaultPlan(), ChaosConfig((2, 2), 6, base_step_seconds=NAN))
    with pytest.raises(ValueError, match="state_bytes"):
        run_chaos(FaultPlan(), ChaosConfig((2, 2), 6), state_bytes=NAN)


@pytest.mark.parametrize(
    "make",
    [
        lambda: DataParallelTrainer(
            MLP([8, 16, 4]), SGDMomentum(0.1), 2, 2, grad_dtype_policy="bogus"
        ),
        lambda: WeightUpdateShardedTrainer(
            MLP([8, 16, 4]), SGDMomentum(0.1), 4, grad_dtype_policy="bogus"
        ),
    ],
    ids=["data_parallel", "wus"],
)
def test_a_trainer_refuses_an_unknown_grad_dtype_policy_at_construction(make):
    """Used to construct, then fail inside the first step's collective."""
    with pytest.raises(ValueError, match="grad_dtype_policy"):
        make()


def test_a_wus_trainer_with_a_nan_learning_rate_is_refused_at_construction():
    """Used to train to non-finite parameters without a word."""
    with pytest.raises(ValueError, match="learning_rate"):
        make_trainer(TrainerConfig(MLP([8, 16, 4]), Adam(NAN), "wus", (2, 2), seed=0))


@pytest.mark.parametrize(
    "params, path",
    [
        ({"base_step_seconds": NAN}, r"params\.base_step_seconds"),
        ({"tenants": [{"x": 1}, {"state_bytes": -INF}]}, r"params\.tenants\[1\]\.state_bytes"),
    ],
)
def test_canonical_spec_refuses_a_non_finite_number_by_its_key_path(params, path):
    """``NaN`` is not JSON; it used to be hashed and journaled as ``NaN``."""
    with pytest.raises(ValueError, match=path):
        canonical_spec("chaos", params)
    with pytest.raises(ValueError, match=path):
        SimJob("chaos", params)


@pytest.mark.parametrize(
    "execute, params, name",
    [
        (execute_steptime, {"buckets": "1"}, "buckets"),
        (execute_steptime, {"chips": 256.5}, "chips"),
        (execute_chaos, {"steps": 2.5}, "steps"),
        (execute_chaos, {"seed": "3"}, "seed"),
        (execute_chaos, {"expected_chip_failures": "1"}, "expected_chip_failures"),
        (execute_cluster, {"tenants": [{"name": "a", "target_steps": 2.5}]}, "target_steps"),
        (execute_cluster, {"tenants": [{"name": "a", "priority": "1"}]}, "priority"),
        (execute_cluster, {"tenants": [{"name": "a"}], "max_ticks": "9"}, "max_ticks"),
        (execute_steptime, {"overlap": "false"}, "overlap"),
        (execute_chaos, {"steps": 4.0}, "steps"),
        (execute_cluster, {"tenants": [{"name": 1}]}, "name"),
    ],
)
def test_executors_read_numbers_as_written(execute, params, name):
    """Used to run ``"1"`` as 1, 2.5 as 2, 4.0 as 4, ``"false"`` as an
    overlapped step and tenant ``1`` as ``"1"``: one simulation under a
    second content key, and a string taken for a number or a flag."""
    with pytest.raises(REFUSED, match=name):
        execute(params)


@pytest.mark.parametrize("value", [4.0, np.float64(4.0), True, False])
def test_count_refuses_a_float_or_a_bool_naming_the_field(value):
    with pytest.raises(ValueError, match="steps"):
        count("steps", value, minimum=0)


def test_count_takes_a_numpy_integer():
    assert count("steps", np.int64(4)) == 4


def test_a_service_job_with_a_string_count_fails_naming_it():
    telemetry.reset()
    with SimulationService(ServiceConfig(concurrency=1, cache_entries=0)) as service:
        handle = service.submit(SimJob("steptime", {"buckets": "1"}))
        with pytest.raises(JobFailed, match="buckets"):
            handle.result(timeout=30.0)


# --- drawing fields -----------------------------------------------------------

#: Values drawn in place of a field.  ``1e12`` is the huge value: valid for
#: a price or a rate, and finite in every sum it enters.
EDGES = (0, 0.0, -0.0, 1, -1, -1.5, 2.5, 1e-300, 1e12, NAN, INF, -INF, "1", None, (1,))

#: The same for a count that something runs: no huge value.
COUNT_EDGES = (0, 1, -1, 2.5, NAN, INF, -INF, "1", None)

#: Edge values no field accepts: a refusal of one names that field.
NEVER_VALID = (NAN, INF, -INF, "1", None, (1,))


def counts(lo, hi):
    return st.integers(lo, hi), COUNT_EDGES


def prices(lo=1e-6, hi=1e12):
    return st.floats(lo, hi), EDGES


def rates(hi=1.0):
    return st.floats(0.0, hi, exclude_max=hi < 1.0), EDGES


@st.composite
def knobs(draw, spec):
    """Every field of ``spec`` (name -> (valid, edges)) drawn from its valid
    range, but at most one drawn from its edges (about half the draws have
    none).  Returns the values and the name of the edge field (``None``
    when all are valid)."""
    values = {name: draw(valid) for name, (valid, _) in spec.items()}
    edge = draw(st.one_of(st.none(), st.sampled_from(list(spec))))
    if edge is not None:
        values[edge] = draw(st.sampled_from(spec[edge][1]))
    return values, edge


def _refused(exc: Exception, values: dict, edge: str | None, named: dict = {}) -> None:
    """A refusal is a declared type and names the field it refuses, by the
    name in ``named`` when the message uses another (a mesh dimension is
    ``mesh_shape``)."""
    event(f"refused: {type(exc).__name__}")
    assert not isinstance(exc, NEVER), exc
    if edge is not None and any(values[edge] is v for v in NEVER_VALID):
        name = named.get(edge, edge.rsplit(".", 1)[-1])
        assert name in str(exc), (edge, exc)


def _sound_report(report: GoodputAccounting) -> None:
    """No NaN or negative anywhere in the ledger, and a finite goodput in
    [0, 1].  A seconds total may overflow to ``inf`` honestly (a terabyte
    over 1e-300 B/s), never to NaN."""
    event("ran")
    for name, value in report.accounting_dict().items():
        assert value >= 0, (name, value)
    assert 0.0 <= report.goodput <= 1.0
    slack = report.total_seconds * 1e-9
    assert report.useful_seconds <= report.total_seconds + slack
    assert report.restart_seconds <= report.total_seconds + slack


# --- the doors ----------------------------------------------------------------

OPTIMIZERS = {
    Adam: dict(beta1=rates(0.99), beta2=rates(0.999), epsilon=prices(1e-12, 1.0)),
    SGDMomentum: dict(momentum=rates(0.99), weight_decay=prices(0.0, 1.0)),
    LARS: dict(
        momentum=rates(0.99), weight_decay=prices(0.0, 1.0),
        trust_coefficient=prices(1e-6, 1.0), epsilon=prices(1e-12, 1.0),
    ),
    LAMB: dict(
        beta1=rates(0.99), beta2=rates(0.999), epsilon=prices(1e-12, 1.0),
        weight_decay=prices(0.0, 1.0),
    ),
}


@CONTRACT
@given(st.sampled_from(list(OPTIMIZERS)).flatmap(
    lambda cls: st.tuples(
        st.just(cls), knobs(dict(learning_rate=prices(0.0, 1.0), **OPTIMIZERS[cls]))
    )
))
def test_optimizer_door(drawn):
    cls, (values, edge) = drawn
    try:
        opt = cls(**values)
    except REFUSED as exc:
        _refused(exc, values, edge)
        return
    params = {"w": np.linspace(-1.0, 1.0, 6).reshape(2, 3), "bias": np.ones(3)}
    grads = {"w": np.full((2, 3), 0.5), "bias": np.zeros(3)}
    new, _ = opt.update(params, grads, opt.init_state(params), 0)
    assert all(np.isfinite(a).all() for a in new.values())


@CONTRACT
@given(knobs(dict(
    peak=prices(0.0), warmup_steps=counts(0, 20), total_steps=counts(21, 40),
    power=prices(0.0, 4.0), end=prices(0.0),
)))
def test_lr_schedule_door(drawn):
    values, edge = drawn
    try:
        schedule = LinearWarmupPolyDecay(**values)
    except REFUSED as exc:
        _refused(exc, values, edge)
        return
    for step in range(schedule.total_steps + 2):
        assert math.isfinite(schedule(step)) and schedule(step) >= 0


@CONTRACT
@given(
    strategy=st.sampled_from(STRATEGIES),
    drawn=knobs(dict(
        x=counts(1, 2), y=counts(1, 2), num_buckets=counts(1, 3), mp_size=counts(1, 2),
        learning_rate=prices(0.0, 1.0),
    )),
)
def test_trainer_door(strategy, drawn):
    values, edge = drawn
    try:
        config = TrainerConfig(
            MLP([4, 8, 4]), SGDMomentum(values["learning_rate"]), strategy,
            (values["x"], values["y"]), num_buckets=values["num_buckets"],
            mp_size=values["mp_size"], seed=0,
        )
        trainer = make_trainer(config)
    except REFUSED as exc:
        _refused(exc, values, edge, {"x": "mesh_shape", "y": "mesh_shape"})
        return
    rng = np.random.default_rng(0)
    loss = trainer.step(rng.standard_normal((8, 4)), rng.integers(0, 4, 8))
    assert math.isfinite(loss)
    params = trainer.full_params() if strategy == "hybrid" else trainer.params
    assert all(np.isfinite(p).all() for p in params.values())


CHAOS_FIELDS = dict(
    x=counts(1, 3), y=counts(1, 3), target_steps=counts(0, 12),
    checkpoint_interval=counts(1, 6),
    base_step_seconds=prices(),
    detection_timeout_s=prices(0.0),
    restore_bandwidth_bytes_per_s=prices(1.0),
    chips_per_host=counts(1, 8),
    checkpoint_write_seconds=prices(0.0),
    state_bytes=prices(0.0),
)


@settings(CONTRACT, max_examples=80)
@given(
    drawn=knobs(CHAOS_FIELDS), seed=st.integers(0, 2**16),
    failures=st.floats(0.0, 2.0), preemptions=st.floats(0.0, 1.0),
)
def test_chaos_door(drawn, seed, failures, preemptions):
    values, edge = drawn
    knobs_ = dict(values)
    mesh = (knobs_.pop("x"), knobs_.pop("y"))
    state_bytes = knobs_.pop("state_bytes")
    try:
        config = ChaosConfig(mesh, **knobs_)
        plan = FaultPlan.sample(
            seed, mesh, max(config.target_steps, 1), expected_chip_failures=failures,
            expected_preemptions=preemptions, expected_stragglers=1.0,
            step_time_s=config.base_step_seconds, chips_per_host=config.chips_per_host,
        )
        report = run_chaos(plan, config, state_bytes=state_bytes)
    except DeviceLostError:
        return  # the plan killed every chip: the run's declared end
    except REFUSED as exc:
        _refused(exc, values, edge, {
            "x": "mesh_shape", "y": "mesh_shape",
            "restore_bandwidth_bytes_per_s": "restore bandwidth",
        })
        return
    _sound_report(report)
    assert report.useful_seconds == config.target_steps * config.base_step_seconds
    assert report.steps_executed >= config.target_steps


def _job_fields(name):
    return {
        f"{name}.w": counts(1, 3), f"{name}.h": counts(1, 3),
        f"{name}.target_steps": counts(1, 8), f"{name}.arrival_tick": counts(0, 3),
        f"{name}.checkpoint_interval": counts(1, 4), f"{name}.state_bytes": prices(0.0),
        f"{name}.slo_goodput": rates(), f"{name}.deadline_s": prices(),
    }


CLUSTER_FIELDS = dict(
    base_step_seconds=prices(),
    detection_timeout_s=prices(0.0),
    restore_bandwidth_bytes_per_s=prices(1.0),
    checkpoint_write_seconds=prices(0.0),
    preemption_grace_s=prices(0.0),
    heal_after_s=prices(0.0),
    max_ticks=counts(1, 200),
    **_job_fields("t0"),
    **_job_fields("t1"),
)


@settings(CONTRACT, max_examples=80)
@given(drawn=knobs(CLUSTER_FIELDS), seed=st.integers(0, 2**16), failures=st.floats(0.0, 2.0))
def test_cluster_door(drawn, seed, failures):
    values, edge = drawn
    jobs = {name: {} for name in ("t0", "t1")}
    knobs_ = {}
    for key, value in values.items():
        job, _, field = key.rpartition(".")
        (jobs[job] if job else knobs_)[field] = value
    try:
        config = ClusterConfig((4, 4), chips_per_host=4, **knobs_)
        specs = [
            JobSpec(name, (job.pop("w"), job.pop("h")), priority=i, **job)
            for i, (name, job) in enumerate(jobs.items())
        ]
        plan = FaultPlan.sample(
            seed, (4, 4), 20, expected_chip_failures=failures,
            step_time_s=config.base_step_seconds, chips_per_host=4,
        )
        result = run_cluster(specs, config, plan=plan)
    except REFUSED as exc:
        _refused(exc, values, edge, {
            "t0.w": "slice_shape", "t0.h": "slice_shape",
            "t1.w": "slice_shape", "t1.h": "slice_shape",
            "restore_bandwidth_bytes_per_s": "restore bandwidth",
        })
        return
    for report in result.jobs.values():
        _sound_report(report)
    assert 0.0 <= result.utilization <= 1.0 + 1e-9
    assert result.total_seconds >= 0
    assert result.completed + result.rejected <= len(specs)


SERVICE_FIELDS = dict(
    concurrency=counts(1, 4), queue_depth=counts(1, 64),
    rate_capacity=prices(1.0), rate_refill_per_s=prices(0.0),
    breaker_threshold=counts(1, 5), breaker_cooldown_s=prices(0.0),
    cache_entries=counts(0, 8), crash_rate=rates(0.99),
    default_deadline_s=prices(),
)


@CONTRACT
@given(knobs(SERVICE_FIELDS))
def test_service_config_door(drawn):
    values, edge = drawn
    try:
        config = ServiceConfig(**values)
    except REFUSED as exc:
        _refused(exc, values, edge)
        return
    assert [getattr(config, name) for name in values] == list(values.values())


def test_service_submit_door():
    """Drawn step-time params through a live service: every submission is
    refused at ``SimJob``, or ends completed, failed or rejected."""
    telemetry.reset()
    service = SimulationService(ServiceConfig(concurrency=1, cache_entries=0))

    @CONTRACT
    @given(knobs(dict(
        chips=(st.sampled_from([8, 64, 256]), COUNT_EDGES),
        global_batch=(st.sampled_from([256, 1024, 4096]), COUNT_EDGES),
        buckets=counts(1, 4),
        deadline_s=prices(1.0, 60.0),
    )))
    def submit(drawn):
        values, edge = drawn
        params = dict(values)
        deadline_s = params.pop("deadline_s")
        try:
            job = SimJob("steptime", params, deadline_s=deadline_s)
        except REFUSED as exc:
            _refused(exc, values, edge)
            return
        try:
            payload = service.submit(job).result(timeout=30.0)
        except (JobFailed, ServiceRejection):
            return
        assert all(
            math.isfinite(v) for v in payload.values() if isinstance(v, float)
        ), payload

    with service:
        submit()
    assert service.stats.accounted()


@CONTRACT
@given(
    name=st.sampled_from(["resnet50", "bert", "transformer", "ssd", "alexnet", ""]),
    drawn=knobs(dict(
        chips=(st.sampled_from([1, 16, 256, 1024]), COUNT_EDGES),
        num_chips=counts(1, 1024), global_batch=counts(1, 1 << 16), mp_cores=counts(1, 8),
    )),
)
def test_planner_door(name, drawn):
    values, edge = drawn
    chips = values.pop("chips")
    if name in PLANNER_RULES:
        spec = spec_for(name)
    else:
        spec = dataclasses.replace(spec_for("resnet50"), name=name)
    try:
        choice = plan_parallelism(spec, chips)
    except UnknownName as exc:
        # A ValueError that is also the KeyError a name lookup raises.
        event("refused: UnknownName")
        assert name not in PLANNER_RULES and "spec.name" in str(exc), exc
    except REFUSED as exc:
        _refused(exc, {"chips": chips}, edge, {"chips": "num_chips"})
    else:
        assert name in PLANNER_RULES
        assert choice.config.num_chips == chips and choice.config.global_batch >= 1
    try:
        ParallelismConfig(**values)
    except REFUSED as exc:
        _refused(exc, values, None if edge == "chips" else edge)


@CONTRACT
@given(knobs(dict(
    num_shards=counts(1, 8), beam_width=counts(1, 8), top_k=counts(1, 8),
    validate_top=counts(1, 4),
)))
def test_search_door(drawn):
    values, edge = drawn
    try:
        SearchConfig(**values)
    except REFUSED as exc:
        _refused(exc, values, edge)
    try:
        ShardingSpec(values["num_shards"])
    except REFUSED as exc:
        _refused(exc, values, edge if edge == "num_shards" else None)


@CONTRACT
@given(knobs(dict(
    num_members=(st.integers(1, 4096), EDGES), payload_bytes=prices(0.0),
    bandwidth=prices(), latency=prices(0.0, 1e-3),
    bandwidth_fraction=(st.floats(1e-3, 1.0), EDGES),
)))
def test_comm_cost_door(drawn):
    values, edge = drawn
    try:
        t = reduce_scatter_time(**values)
    except REFUSED as exc:
        _refused(exc, values, edge)
        return
    assert t >= 0  # inf for a payload over 1e-300 B/s, never NaN


@CONTRACT
@given(knobs(dict(
    start=prices(0.0), duration=prices(), factor=rates(0.99),
    start_step=counts(0, 9), slowdown=(st.floats(1.0, 10.0), EDGES),
    host=counts(0, 9), at_step=counts(0, 9), grace_s=prices(0.0),
    timeout_s=prices(0.0), max_attempts=counts(1, 8), backoff_s=prices(0.0),
    backoff_factor=(st.floats(1.0, 4.0), EDGES), jitter_frac=rates(),
)))
def test_fault_and_retry_door(drawn):
    values, edge = drawn
    doors = {
        LinkFault: ("start", "duration", "factor"),
        StragglerFault: ("start_step", "slowdown"),
        PreemptionSignal: ("host", "at_step", "grace_s"),
        RetryPolicy: ("timeout_s", "max_attempts", "backoff_s", "backoff_factor", "jitter_frac"),
    }
    devices = {LinkFault: ((0, 0), (0, 1)), StragglerFault: ((0, 0),)}
    for door, names in doors.items():
        kwargs = {name: values[name] for name in names}
        if door is StragglerFault:
            kwargs["duration_steps"] = 2
        try:
            made = door(*devices.get(door, ()), **kwargs)
        except REFUSED as exc:
            _refused(exc, values, edge if edge in names else None)
            continue
        if door is RetryPolicy:
            delays = [made.backoff_after(k) for k in range(1, made.max_attempts + 1)]
            assert all(math.isfinite(d) and d >= 0 for d in delays)

