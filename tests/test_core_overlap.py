"""Overlap engine: DES schedule, bucket plans, and the analytic trade-off.

The two invariants of :mod:`repro.core.overlap` are pinned here, plus the
property tests of the issue: overlap-aware step time never exceeds the
serial schedule (equality exactly when there is nothing to hide), and the
exposed communication strictly decreases as the bucket count grows from 1
until the per-launch latency dominates.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.allreduce import allreduce_launch_params, gradient_allreduce
from repro.core.overlap import (
    DEFAULT_SEGMENTS,
    analytic_overlap,
    bucket_ready_times,
    layer_backward_fractions,
    measured_overlap,
    simulate_overlap_schedule,
)
from repro.core import step_time
from repro.core.step_time import StepTimeModel
from repro.core.strategy import ParallelismConfig
from repro.experiments.calibration import CALIBRATIONS, spec_for
from repro.hardware.topology import TorusMesh, slice_for_chips
from repro.runtime.bucket import BucketPlan, GradientBucket


def _template(rng, num_tensors=7):
    return {
        f"t{i}": rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 9))))
        for i in range(num_tensors)
    }


class TestSimulateOverlapSchedule:
    def test_single_bucket_at_compute_end_is_serial(self):
        r = simulate_overlap_schedule([3.0], [2.0], 3.0)
        assert r.step_seconds == pytest.approx(5.0)
        assert r.exposed_comm_seconds == pytest.approx(2.0)
        assert r.hidden_comm_seconds == pytest.approx(0.0)
        assert r.serial_step_seconds == pytest.approx(5.0)

    def test_early_bucket_fully_hidden(self):
        r = simulate_overlap_schedule([1.0, 4.0], [1.0, 1.0], 4.0)
        # Bucket 0 runs [1, 2] under compute; bucket 1 is the only tail.
        assert r.step_seconds == pytest.approx(5.0)
        assert r.exposed_comm_seconds == pytest.approx(1.0)
        assert r.overlap_efficiency == pytest.approx(0.5)

    def test_fifo_queueing_serializes_the_link(self):
        # Bucket 0 occupies [0, 10]; bucket 1 (ready at 1) must wait.
        r = simulate_overlap_schedule([0.0, 1.0], [10.0, 2.0], 4.0)
        assert r.step_seconds == pytest.approx(12.0)
        assert r.exposed_comm_seconds == pytest.approx(8.0)

    def test_ready_after_compute_end_clamps(self):
        r = simulate_overlap_schedule([9.0], [1.0], 5.0)
        assert r.bucket_ready_s == (5.0,)
        assert r.step_seconds == pytest.approx(6.0)

    def test_zero_comm_is_pure_compute(self):
        r = simulate_overlap_schedule([1.0, 2.0], [0.0, 0.0], 3.0)
        assert r.step_seconds == pytest.approx(3.0)
        assert r.exposed_comm_seconds == 0.0
        assert r.overlap_efficiency == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            simulate_overlap_schedule([1.0], [1.0, 2.0], 3.0)

    def test_trace_records_compute_and_transfers(self):
        r = simulate_overlap_schedule([0.5], [1.0], 2.0)
        names = {e.name for e in r.trace.events}
        assert "forward_backward" in names
        assert "bucket0" in names

    @given(
        n=st.integers(1, 6),
        compute=st.floats(0.1, 50.0),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_serial(self, n, compute, seed):
        rng = np.random.default_rng(seed)
        ready = sorted(float(x) for x in rng.uniform(0.0, compute, n))
        comm = [float(x) for x in rng.uniform(0.0, 10.0, n)]
        r = simulate_overlap_schedule(ready, comm, compute)
        assert r.step_seconds <= r.serial_step_seconds + 1e-9
        assert 0.0 <= r.exposed_comm_seconds <= r.comm_seconds + 1e-9
        # Equality iff nothing was hidden.
        if r.hidden_comm_seconds > 1e-9:
            assert r.step_seconds < r.serial_step_seconds


class TestBucketPlan:
    def test_single_bucket_matches_plain_gradient_bucket(self, rng):
        template = _template(rng)
        plan = BucketPlan(template, 1, dtype=np.float64)
        plain = GradientBucket(template, dtype=np.float64)
        (bucket,) = plan.buckets
        assert bucket.names == plain.names
        assert bucket.offsets == plain.offsets
        assert bucket.size == plain.size
        assert bucket.dtype == plain.dtype
        assert plan.ready_fractions == (1.0,)

    def test_buckets_partition_in_reverse_order(self, rng):
        template = _template(rng)
        plan = BucketPlan(template, 3)
        names = [n for b in plan.buckets for n in b.names]
        assert sorted(names) == sorted(template)
        # Launch order covers the tree back to front: bucket 0 holds the
        # deepest (last declared) tensors.
        first_of = [list(template).index(b.names[0]) for b in plan.buckets]
        assert first_of == sorted(first_of, reverse=True)

    def test_clamped_to_tensor_count(self, rng):
        template = _template(rng, num_tensors=3)
        plan = BucketPlan(template, 10)
        assert plan.num_buckets == 3
        assert all(len(b.names) == 1 for b in plan.buckets)

    def test_ready_fractions_cumulative(self, rng):
        template = _template(rng)
        plan = BucketPlan(template, 4)
        fr = plan.ready_fractions
        assert all(a < b for a, b in zip(fr, fr[1:]))
        assert fr[-1] == pytest.approx(1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            BucketPlan({}, 1)
        with pytest.raises(ValueError):
            BucketPlan({"a": np.zeros(3)}, 0)


class TestLayerFractions:
    def test_reversed_and_normalized(self):
        spec = spec_for("bert")
        fr = layer_backward_fractions(spec)
        assert sum(fr) == pytest.approx(1.0)
        positive = [l.flops_fraction for l in spec.layers if l.flops_fraction > 0]
        assert list(fr) == pytest.approx(list(reversed([f / sum(positive) for f in positive])))

    def test_uniform_fallback(self):
        class Bare:
            layers = ()

        fr = layer_backward_fractions(Bare())
        assert len(fr) == DEFAULT_SEGMENTS
        assert all(f == pytest.approx(1.0 / DEFAULT_SEGMENTS) for f in fr)


class TestBucketReadyTimes:
    def test_uniform_fractions_equal_spacing(self):
        ready = bucket_ready_times([0.25] * 4, 8.0, 2.0, 4)
        assert ready == pytest.approx([4.0, 6.0, 8.0, 10.0])

    def test_last_bucket_at_backward_end(self):
        ready = bucket_ready_times([0.7, 0.3], 5.0, 1.0, 3)
        assert ready[-1] == pytest.approx(6.0)
        assert all(a <= b for a, b in zip(ready, ready[1:]))


class TestAnalyticOverlap:
    def test_single_bucket_equals_serial(self):
        r = analytic_overlap(
            fractions=[0.5, 0.5], compute_seconds=4.0, grad_bytes=1e6,
            num_buckets=1, comm_alpha=1e-3, comm_bytes_per_second=1e9,
        )
        assert r.step_seconds == pytest.approx(r.serial_step_seconds)
        assert r.exposed_comm_seconds == pytest.approx(r.comm_seconds)

    def test_more_buckets_pay_more_alpha(self):
        kw = dict(fractions=[0.25] * 4, compute_seconds=4.0, grad_bytes=1e6,
                  comm_alpha=1e-3, comm_bytes_per_second=1e9)
        r1 = analytic_overlap(num_buckets=1, **kw)
        r4 = analytic_overlap(num_buckets=4, **kw)
        assert r4.comm_seconds == pytest.approx(r1.comm_seconds + 3e-3)
        assert r4.step_seconds < r1.step_seconds

    @given(buckets=st.integers(1, 16), seed=st.integers(0, 2**31))
    @settings(max_examples=40, deadline=None)
    def test_invariants_across_bucket_counts(self, buckets, seed):
        rng = np.random.default_rng(seed)
        fr = rng.uniform(0.05, 1.0, int(rng.integers(2, 12)))
        r = analytic_overlap(
            fractions=[float(f) for f in fr],
            compute_seconds=float(rng.uniform(0.1, 10.0)),
            grad_bytes=float(rng.uniform(0.0, 1e9)),
            num_buckets=buckets,
            comm_alpha=float(rng.uniform(0.0, 1e-2)),
            comm_bytes_per_second=float(rng.uniform(1e8, 1e12)),
        )
        assert r.step_seconds <= r.serial_step_seconds + 1e-9
        assert 0.0 <= r.overlap_efficiency <= 1.0 + 1e-9


class TestLaunchParams:
    def test_affine_recovery_exact(self):
        mesh = slice_for_chips(1024)
        alpha, bw = allreduce_launch_params(mesh)
        for payload in (1e5, 1e6, 1e8):
            predicted = alpha + payload / bw
            actual = gradient_allreduce(mesh, payload).total
            assert predicted == pytest.approx(actual, rel=1e-9)

    def test_single_chip_degenerates(self):
        mesh = TorusMesh(1, 1)
        alpha, bw = allreduce_launch_params(mesh)
        assert alpha >= 0.0
        assert math.isinf(bw) or bw > 0.0


class TestStepTimeOverlap:
    @pytest.fixture()
    def bert_model(self):
        spec, cal = spec_for("bert"), CALIBRATIONS["bert"]

        def build(**kw):
            return StepTimeModel(
                spec,
                ParallelismConfig(num_chips=4096, global_batch=16384),
                mxu_efficiency=cal.mxu_efficiency,
                step_overhead=cal.step_overhead,
                **kw,
            )

        return build

    def test_single_bucket_cost_matches_serial_model(self, bert_model):
        serial = bert_model()
        assert serial.bucketed_allreduce_time(1) == serial.allreduce_time()

    def test_overlap_flag_selects_exposed_accounting(self, bert_model):
        serial = bert_model().breakdown()
        overlapped = bert_model(overlap=True, overlap_buckets=8).breakdown()
        assert serial.exposed_allreduce is None
        assert overlapped.exposed_allreduce is not None
        assert overlapped.exposed_allreduce < overlapped.allreduce
        assert overlapped.device_time < serial.device_time

    def test_overlap_single_bucket_equals_serial_step(self, bert_model):
        serial = bert_model().breakdown()
        b1 = bert_model(overlap=True, overlap_buckets=1).breakdown()
        assert b1.device_time == pytest.approx(serial.device_time, rel=1e-9)

    def test_exposed_strictly_decreases_then_latency_bound(self, bert_model):
        model = bert_model(overlap=True)
        sweep = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
        exposed = [model.overlap_result(b).exposed_comm_seconds for b in sweep]
        # Strictly decreasing from one bucket up to the argmin ...
        best = exposed.index(min(exposed))
        assert best > 0
        for a, b in zip(exposed[: best + 1], exposed[1 : best + 1]):
            assert b < a
        # ... and the latency-bound regime exists: past the argmin the
        # per-launch alpha eventually pushes the exposed tail back up.
        assert max(exposed[best:]) > exposed[best]

    def test_serial_path_unchanged_by_default(self, bert_model):
        # overlap=False keeps the seed behavior: plain serial sum.
        b = bert_model().breakdown()
        assert b.device_time == pytest.approx(
            b.compute + b.allreduce + b.mp_comm + b.weight_update + b.embedding
        )

    def test_overlap_schedule_runs_once_per_bucket_count_and_model(
        self, bert_model, monkeypatch
    ):
        runs = []

        def counted(**kw):
            runs.append(kw["num_buckets"])
            return analytic_overlap(**kw)

        monkeypatch.setattr(step_time, "analytic_overlap", counted)
        model = bert_model(overlap=True, overlap_buckets=8)
        result = model.overlap_result()
        breakdown = model.breakdown()
        assert model.overlap_result(8) is result
        model.overlap_result(4)
        assert runs == [8, 4]
        assert breakdown.exposed_allreduce == result.exposed_comm_seconds
        # The memo is the model's own: a new model runs its schedule again.
        bert_model(overlap=True, overlap_buckets=8).breakdown()
        assert runs == [8, 4, 8]

    @pytest.mark.parametrize("buckets", [1, 2, 4, 8, 16, 32])
    def test_overlap_step_never_worse_than_serial(self, bert_model, buckets):
        serial = bert_model().breakdown().device_time
        overlapped = bert_model(
            overlap=True, overlap_buckets=buckets
        ).breakdown().device_time
        assert overlapped <= serial + 1e-12
        if buckets == 1:
            assert overlapped == pytest.approx(serial, rel=1e-9)
        else:
            assert overlapped < serial


class TestMeasuredOverlap:
    def test_measured_overlap_matches_manual_schedule(self):
        r = measured_overlap(
            forward_backward_seconds=3.0,
            bucket_ready_fractions=[0.5, 1.0],
            bucket_comm_s=[0.5, 0.5],
            bucket_bytes=[100.0, 100.0],
        )
        backward = 2.0  # 2/3 of 3.0
        head = 1.0
        assert r.bucket_ready_s == pytest.approx((head + 1.0, 3.0))
        assert r.step_seconds == pytest.approx(3.5)
        assert r.exposed_comm_seconds == pytest.approx(0.5)
