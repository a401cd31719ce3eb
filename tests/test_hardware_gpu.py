"""GPU cluster comparator tests."""

import pytest

from repro.comm.cost import gpu_all_reduce_time
from repro.hardware.gpu import GpuCluster, dgx_cluster
from repro.hardware.chip import GPU_A100


class TestGpuCluster:
    def test_node_count(self):
        c = dgx_cluster(64, "a100")
        assert c.num_nodes == 8

    def test_single_node(self):
        c = dgx_cluster(8, "a100")
        assert c.num_nodes == 1

    def test_invalid_gpu_count(self):
        with pytest.raises(ValueError):
            GpuCluster(GPU_A100, 0)

    def test_non_multiple_of_node(self):
        with pytest.raises(ValueError):
            GpuCluster(GPU_A100, 12, gpus_per_node=8)

    def test_generations(self):
        assert dgx_cluster(16, "v100").chip.name == "gpu-v100"
        with pytest.raises(ValueError):
            dgx_cluster(16, "h100")


class TestGpuAllreduce:
    def test_zero_payload(self):
        """Nothing to move costs nothing, as every ring comm.cost prices."""
        assert gpu_all_reduce_time(dgx_cluster(64), 0.0) == 0.0

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            gpu_all_reduce_time(dgx_cluster(64), -1)

    def test_single_gpu_free(self):
        c = GpuCluster(GPU_A100, 1, gpus_per_node=1)
        assert gpu_all_reduce_time(c, 1e9) == 0.0

    def test_intra_node_only(self):
        c = dgx_cluster(8)
        t = gpu_all_reduce_time(c, 1e9)
        # reduce-scatter + all-gather over NVLink: 2 * 7/8 * 1e9/250e9 + latency
        assert t == pytest.approx(2 * (7 / 8) * 1e9 / 250e9 + 14 * 2e-6, rel=0.01)

    def test_multi_node_slower_than_single(self):
        single = gpu_all_reduce_time(dgx_cluster(8), 1e9)
        multi = gpu_all_reduce_time(dgx_cluster(256), 1e9)
        assert multi > single

    def test_allreduce_scale_insensitive_at_large_n(self):
        """Ring terms converge: 512 -> 2048 GPUs barely changes time."""
        a = gpu_all_reduce_time(dgx_cluster(512), 668e6)
        b = gpu_all_reduce_time(dgx_cluster(2048), 668e6)
        assert b < 1.5 * a

    def test_compute_time(self):
        c = dgx_cluster(8)
        assert c.compute_time(312e12, 1.0) == pytest.approx(1.0)


class TestTpuVsGpuInterconnect:
    def test_tpu_torus_beats_same_generation_ib_hierarchy(self, the_multipod):
        """The Figure 11 mechanism: for BERT-sized gradients at 2048 chips,
        the 2-D torus all-reduce beats the same-generation (V100) NVLink+IB
        hierarchy.  (A100-generation interconnect is newer and faster per
        link, so the comparison is made within the TPU-v3 generation.)"""
        from repro.comm.allreduce import two_phase_allreduce

        payload = 668e6  # BERT bf16 gradients
        tpu = two_phase_allreduce(the_multipod, payload).total
        gpu = gpu_all_reduce_time(dgx_cluster(2048, "v100"), payload)
        assert tpu < gpu
