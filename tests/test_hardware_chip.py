"""Chip and host specification tests."""

import pytest

from repro.hardware.chip import (
    ChipSpec,
    GPU_A100,
    GPU_V100,
    HostSpec,
    TPU_V2,
    TPU_V3,
    TPU_V4,
)


class TestChipSpec:
    def test_tpu_v3_basics(self):
        assert TPU_V3.cores == 2
        assert TPU_V3.peak_matmul_flops == pytest.approx(123e12)
        assert TPU_V3.hbm_bytes == 32 * 2**30
        assert TPU_V3.routing_table_entries == 1024
        assert TPU_V3.num_links == 4

    def test_generations_increase_flops(self):
        assert TPU_V2.peak_matmul_flops < TPU_V3.peak_matmul_flops
        assert TPU_V3.peak_matmul_flops < TPU_V4.peak_matmul_flops

    def test_gpu_specs_present(self):
        assert GPU_V100.cores == 1
        assert GPU_A100.peak_matmul_flops > GPU_V100.peak_matmul_flops

    def test_per_core_flops(self):
        assert TPU_V3.per_core_matmul_flops == pytest.approx(61.5e12)

    def test_matmul_time_scales_with_efficiency(self):
        full = TPU_V3.matmul_time(1e12, efficiency=1.0)
        half = TPU_V3.matmul_time(1e12, efficiency=0.5)
        assert half == pytest.approx(2 * full)

    def test_matmul_time_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            TPU_V3.matmul_time(1e12, efficiency=0.0)
        with pytest.raises(ValueError):
            TPU_V3.matmul_time(1e12, efficiency=1.5)

    def test_hbm_time(self):
        assert TPU_V3.hbm_time(900e9) == pytest.approx(1.0)

    def test_invalid_chip_fields_rejected(self):
        with pytest.raises(ValueError):
            ChipSpec("bad", 0, 1, 1, 1, 1, 1)
        with pytest.raises(ValueError):
            ChipSpec("bad", 2, -1, 1, 1, 1, 1)


class TestHostSpec:
    def test_defaults(self):
        host = HostSpec()
        assert host.chips_per_host == 8
        assert host.cpu_cores == 96

    def test_invalid_chips_per_host(self):
        with pytest.raises(ValueError):
            HostSpec(chips_per_host=0)
