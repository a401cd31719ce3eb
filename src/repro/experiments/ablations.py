"""Ablation studies for the design choices the paper calls out.

* :func:`wus_ablation` — Section 3.2/4.4: weight-update sharding removes
  the ~18% LAMB update from BERT's step at 512 chips and buys SSD ~10%
  even under model parallelism.
* :func:`allreduce_2d_ablation` — Section 3.3: the 2-D hierarchical
  schedule vs a flat 4096-chip ring.
* :func:`maskrcnn_comm_ablation` — Section 4.5: XLA communication
  optimizations (fused gradient all-reduce, reshard minimization, halo
  barriers) cut MaskRCNN's model-parallel communication overhead from
  ~30% to ~10% of the step.
* :func:`shuffle_quality_ablation` — Section 3.5: shuffle order and buffer
  size vs dataset coverage and run-to-run batch bias (BERT).
* :func:`input_pipeline_ablation` — Section 3.5: compressed vs
  uncompressed host pipelines on a multipod (ResNet-50).
* :func:`dlrm_input_ablation` — Section 3.5/4.6: batch-granularity
  parsing + feature stacking + pre-serialization vs naive hosts.
* :func:`auc_ablation` — Section 4.6: sort-based AUC vs the naive
  pairwise definition (timed at laptop scale, extrapolated to 90M).
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm.allreduce import flat_ring_allreduce, two_phase_allreduce
from repro.comm.cost import ring_all_reduce_time
from repro.core.planner import plan_parallelism
from repro.core.step_time import StepTimeModel
from repro.experiments.calibration import CALIBRATIONS, spec_for
from repro.experiments.report import Table
from repro.hardware.topology import multipod, slice_for_chips
from repro.input_pipeline.dlrm_input import (
    DlrmInputConfig,
    dlrm_input_throughput,
    is_input_bound,
)
from repro.input_pipeline.imbalance import multipod_input_imbalance
from repro.input_pipeline.shuffle import simulate_shuffle_policy
from repro.metrics.auc import auc_naive, auc_sorted, synthetic_pctr
from repro.spmd.modelgraphs import maskrcnn_graph, spatial_seeds
from repro.spmd.partitioner import V06_FEATURES, V07_FEATURES
from repro.spmd.plan import ShardingSpec, make_partitioner


def wus_ablation() -> Table:
    """Step-time impact of weight-update sharding (BERT @512, SSD @4096)."""
    table = Table(
        "Weight-update sharding ablation (Section 3.2)",
        ["Benchmark", "Chips", "WUS", "step ms", "update ms", "update %",
         "speedup"],
    )
    for name, chips in (("bert", 512), ("ssd", 4096)):
        spec, cal = spec_for(name), CALIBRATIONS[name]
        plan = plan_parallelism(spec, chips)
        steps = {}
        for wus in (False, True):
            cfg = plan.config.with_(use_weight_update_sharding=wus)
            b = StepTimeModel(
                spec, cfg,
                mxu_efficiency=cal.mxu_efficiency,
                step_overhead=cal.step_overhead,
            ).breakdown()
            steps[wus] = b
        for wus in (False, True):
            b = steps[wus]
            table.add_row(
                name, chips, "on" if wus else "off",
                round(b.device_time * 1e3, 2),
                round(b.weight_update * 1e3, 2),
                round(b.weight_update / b.device_time * 100, 1),
                round(steps[False].device_time / b.device_time, 3),
            )
    return table


def allreduce_2d_ablation() -> Table:
    """Flat single ring vs the 2-D hierarchical schedule (Section 3.3)."""
    table = Table(
        "Gradient all-reduce schedule ablation on the 4096-chip multipod",
        ["Payload", "bytes", "flat ring ms", "2-D hierarchical ms", "speedup"],
    )
    mesh = multipod(4)
    for label, payload in (
        ("resnet50 fp32 grads", 25.6e6 * 4),
        ("bert bf16 grads", 334e6 * 2),
        ("transformer bf16 grads", 210e6 * 2),
    ):
        flat = flat_ring_allreduce(mesh, payload).total
        hier = two_phase_allreduce(mesh, payload).total
        table.add_row(
            label, payload, round(flat * 1e3, 3), round(hier * 1e3, 3),
            round(flat / hier, 2),
        )
    return table


#: MaskRCNN dense-gradient tensors (conv weights, biases, heads).
_MASKRCNN_NUM_GRAD_TENSORS = 60
#: Activation bytes resharded per pass between the spatially partitioned
#: convolution layout and the ROI/einsum layout (FPN pyramid levels).
_MASKRCNN_RESHARD_BYTES_PER_PASS = 45e6
#: Fused gradient bundles in the v0.7 schedule (XLA fuses most, not all).
_V07_GRAD_BUNDLES = 4


def maskrcnn_comm_ablation(mp_cores: int = 4, num_chips: int = 512) -> Table:
    """Model-parallel communication overhead, v0.6 vs v0.7 XLA (Section 4.5).

    Paper claim: the optimizations (minimized resharding, a single gradient
    all-reduce across model cores and replicas, halo barrier fixes) cut
    communication from ~30% to ~10% of the step.  Components modeled:

    * compute — the calibrated step-time model at this slice/layout;
    * partitioner comm — halo/all-gather ops from the IR graph (v0.6 pays
      doubled barrier/reshard steps);
    * resharding — FPN activations moving between the conv layout and the
      ROI/einsum layout, once per pass (v0.7) or twice (v0.6);
    * gradient summation — one fused hierarchical all-reduce in a few
      bundles (v0.7) vs per-tensor two-stage reductions (v0.6).
    """
    table = Table(
        "MaskRCNN model-parallel communication overhead (v0.6 vs v0.7 XLA)",
        ["XLA", "compute ms", "mp comm ms", "reshard ms", "grad sum ms",
         "comm %"],
    )
    spec = spec_for("maskrcnn")
    cal = CALIBRATIONS["maskrcnn"]
    mesh = slice_for_chips(num_chips)
    plan = plan_parallelism(spec, num_chips)
    cfg = plan.config.with_(mp_cores=mp_cores, spatial_partitioning=True)
    step_model = StepTimeModel(
        spec, cfg, mesh=mesh,
        mxu_efficiency=cal.mxu_efficiency, step_overhead=cal.step_overhead,
    )
    compute = step_model.compute_time()
    grad_payload = spec.gradient_bytes / mp_cores
    for features, label in ((V06_FEATURES, "v0.6"), (V07_FEATURES, "v0.7")):
        graph = maskrcnn_graph()
        partitioner = make_partitioner(
            features, mesh=mesh, mxu_efficiency=cal.mxu_efficiency
        )
        est = partitioner.partition(
            graph,
            ShardingSpec.from_seeds(mp_cores, dict(spatial_seeds(graph, mp_cores))),
        ).cost
        reshard_steps = 1 if features.minimize_reshards else 2
        reshard = (
            reshard_steps * 2.0  # forward + backward
            * _MASKRCNN_RESHARD_BYTES_PER_PASS / mesh.link_bandwidth
        )
        if features.optimized_halo_barriers:
            # One fused all-reduce across model cores and replicas, split
            # into a few bundles for overlap.
            per_bundle = grad_payload / _V07_GRAD_BUNDLES
            grad = _V07_GRAD_BUNDLES * two_phase_allreduce(
                mesh, per_bundle, mp_size=max(1, mp_cores // 2)
            ).total
        else:
            # Per-tensor, two-stage: model-group reduction then replica
            # rings, each tensor paying the full latency chain.
            per_tensor = grad_payload / _MASKRCNN_NUM_GRAD_TENSORS
            group = ring_all_reduce_time(
                mp_cores, per_tensor * mp_cores, mesh.link_bandwidth,
                mesh.chip.link_latency, closed=False,
            )
            replica = two_phase_allreduce(mesh, per_tensor).total
            grad = _MASKRCNN_NUM_GRAD_TENSORS * (group + 2.0 * replica)
        comm = est.comm_seconds + reshard + grad
        total = compute + comm
        table.add_row(
            label,
            round(compute * 1e3, 2),
            round(est.comm_seconds * 1e3, 2),
            round(reshard * 1e3, 2),
            round(grad * 1e3, 2),
            round(comm / total * 100, 1),
        )
    return table


def shuffle_quality_ablation() -> Table:
    """BERT shuffle-policy quality (Section 3.5)."""
    table = Table(
        "BERT shuffle quality: policy x buffer size",
        ["Policy", "Buffer", "coverage", "batch bias std"],
    )
    for before in (True, False):
        for buffer_size in (64, 1024):
            rep = simulate_shuffle_policy(
                shuffle_before_repeat=before, buffer_size=buffer_size,
                num_runs=4, hosts_sampled=4, num_batches=24,
            )
            table.add_row(
                rep.policy, buffer_size,
                round(rep.coverage, 4), round(rep.batch_bias_std, 5),
            )
    return table


def input_pipeline_ablation() -> Table:
    """ResNet-50 host pipeline: compressed vs uncompressed (Section 3.5).

    Parameters approximate the 4096-chip run: 128 examples/host/step at a
    ~10.5 ms step; large-JPEG decode throughput makes the compressed
    pipeline marginal on average, so its heavy tail stalls some hosts.
    """
    from repro.hardware.chip import HostSpec

    host = HostSpec(jpeg_decode_rate=50.0e6)
    compressed, uncompressed = multipod_input_imbalance(
        num_hosts=16, batch_per_host=128, device_step_seconds=0.0105,
        steps=30, host=host,
    )
    table = Table(
        "ResNet-50 multipod input pipeline (slowest-host slowdown)",
        ["Pipeline", "max slowdown", "mean slowdown", "stall fraction"],
    )
    for rep in (compressed, uncompressed):
        table.add_row(
            rep.label, round(rep.max_slowdown, 3),
            round(rep.mean_slowdown, 3), round(rep.stall_fraction, 3),
        )
    return table


def dlrm_input_ablation(device_step_seconds: float = 1.4e-3) -> Table:
    """DLRM host input throughput per optimization set (Section 3.5/4.6)."""
    table = Table(
        "DLRM host input pipeline (need >= device rate to not stall)",
        ["Config", "Mexamples/s per host", "feeds device?"],
    )
    batch_per_host = 8192
    configs = [
        DlrmInputConfig(False, False, False),
        DlrmInputConfig(True, False, False),
        DlrmInputConfig(True, True, False),
        DlrmInputConfig(True, True, True),
    ]
    for config in configs:
        rate = dlrm_input_throughput(config, batch_per_host=batch_per_host)
        feeds = not is_input_bound(
            config, device_step_seconds=device_step_seconds, batch_per_host=batch_per_host
        )
        table.add_row(config.label, round(rate / 1e6, 2), "yes" if feeds else "no")
    return table


def auc_ablation(n: int = 2_000_000, seed: int = 0) -> Table:
    """Sorted AUC vs naive pairwise AUC (Section 4.6).

    Times the sort-based implementation at ``n`` samples, checks it against
    the naive definition on a subsample, and extrapolates both to the 90M
    eval set (naive is O(n^2): the extrapolation is why the paper needed a
    custom implementation).
    """
    rng = np.random.default_rng(seed)
    scores, labels = synthetic_pctr(rng, n)
    t0 = time.perf_counter()
    fast = auc_sorted(scores, labels)
    sorted_seconds = time.perf_counter() - t0
    m = 2000
    t0 = time.perf_counter()
    slow = auc_naive(scores[:m], labels[:m])
    naive_seconds_small = time.perf_counter() - t0
    check = auc_sorted(scores[:m], labels[:m])
    target = 89_137_319
    sorted_at_target = sorted_seconds * (target / n) * 1.1  # ~n log n
    naive_at_target = naive_seconds_small * (target / m) ** 2
    table = Table(
        "AUC implementations at the DLRM eval size (89.1M samples)",
        ["Implementation", "AUC @ n", "seconds @ n", "extrapolated s @ 89M"],
    )
    table.add_row("sorted (ours)", round(fast, 5), round(sorted_seconds, 3),
                  round(sorted_at_target, 1))
    table.add_row(f"naive pairwise (n={m})", round(slow, 5),
                  round(naive_seconds_small, 3), f"{naive_at_target:.3g}")
    table.add_row("agreement |delta|", round(abs(slow - check), 8), "-", "-")
    return table


def dlrm_eval_accumulation() -> Table:
    """Multi-step on-device eval accumulation (Section 4.6), on the DES."""
    from repro.core.loop import dlrm_eval_accumulation_ablation

    naive, optimized = dlrm_eval_accumulation_ablation()
    table = Table(
        "DLRM eval: per-step host transfer vs on-device accumulation",
        ["Mode", "total ms", "host sync ms", "eval overhead %"],
    )
    for label, result in (("per-step transfer", naive),
                          ("accumulate on device", optimized)):
        table.add_row(
            label,
            round(result.total_seconds * 1e3, 1),
            round(result.host_sync_seconds * 1e3, 1),
            round(result.eval_overhead_fraction * 100, 1),
        )
    return table


def distributed_batchnorm_ablation() -> Table:
    """Distributed batch-norm group size vs statistics error and cost."""
    import numpy as np

    from repro.core.batchnorm import batch_norm_group_cost, distributed_batch_norm

    rng = np.random.default_rng(0)
    shards = [rng.standard_normal((8, 32)) * 2 + 1 for _ in range(16)]
    pop_mean = np.concatenate(shards).mean(axis=0)
    mesh = slice_for_chips(16)
    table = Table(
        "Distributed batch norm: group size vs moment error and comm cost",
        ["Group", "mean |moment error|", "comm us/layer"],
    )
    for group in (1, 2, 4, 8, 16):
        res = distributed_batch_norm(
            shards, np.ones(32), np.zeros(32), group_size=group
        )
        err = float(np.mean([np.abs(m - pop_mean).mean() for m in res.group_mean]))
        cost = batch_norm_group_cost(
            32, group, mesh.link_bandwidth, mesh.chip.link_latency
        )
        table.add_row(group, round(err, 4), round(cost * 1e6, 2))
    return table


def run() -> list[Table]:
    """All ablations, in paper order."""
    return [
        wus_ablation(),
        allreduce_2d_ablation(),
        maskrcnn_comm_ablation(),
        distributed_batchnorm_ablation(),
        shuffle_quality_ablation(),
        input_pipeline_ablation(),
        dlrm_input_ablation(),
        dlrm_eval_accumulation(),
        auc_ablation(n=500_000),
    ]
