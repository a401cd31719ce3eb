"""Halo-exchange and spatial-shard tests."""

import pytest

from repro.comm.halo import (
    conv_halo_rows,
    halo_exchange_time,
    load_imbalance,
    spatial_shard_shape,
)


class TestSpatialShards:
    def test_even_split(self):
        shards = spatial_shard_shape(300, 300, 64, 4)
        assert [s.rows for s in shards] == [75, 75, 75, 75]

    def test_uneven_split_ceiling_first(self):
        shards = spatial_shard_shape(38, 38, 256, 8)
        rows = [s.rows for s in shards]
        assert sum(rows) == 38
        assert max(rows) - min(rows) == 1
        assert rows == sorted(rows, reverse=True)

    def test_elements(self):
        (s,) = spatial_shard_shape(10, 20, 3, 1)
        assert s.elements == 600

    def test_too_many_partitions(self):
        with pytest.raises(ValueError):
            spatial_shard_shape(4, 300, 64, 8)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            spatial_shard_shape(0, 300, 64, 2)
        with pytest.raises(ValueError):
            spatial_shard_shape(300, 300, 64, 0)


class TestLoadImbalance:
    def test_balanced(self):
        shards = spatial_shard_shape(300, 300, 64, 4)
        assert load_imbalance(shards) == pytest.approx(1.0)

    def test_unbalanced_real(self):
        shards = spatial_shard_shape(38, 38, 256, 8)
        imb = load_imbalance(shards)
        assert imb == pytest.approx(5 * 8 / 38)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            load_imbalance([])


class TestHaloExchange:
    def test_zero_for_single_partition(self, pod):
        assert halo_exchange_time(pod, width=300, channels=64, halo_rows=1,
                                  num_partitions=1) == 0.0

    def test_cost_formula(self, pod):
        t = halo_exchange_time(pod, width=300, channels=64, halo_rows=1,
                               dtype_bytes=2, num_partitions=4)
        expected = pod.chip.link_latency + 300 * 64 * 2 / pod.link_bandwidth
        assert t == pytest.approx(expected)

    def test_negative_halo_rejected(self, pod):
        with pytest.raises(ValueError):
            halo_exchange_time(pod, width=1, channels=1, halo_rows=-1)

    @pytest.mark.parametrize("bad,field", [
        ({"width": -300, "channels": -64}, "width"),  # the signs used to cancel
        ({"channels": -64}, "channels"),
        ({"dtype_bytes": 0}, "dtype_bytes"),
        ({"num_partitions": -3}, "num_partitions"),  # used to return 0.0
        ({"num_partitions": 0}, "num_partitions"),
        ({"width": 30.0}, "width"),
        ({"halo_rows": 0.5}, "halo_rows"),
        ({"channels": 0, "num_partitions": 1}, "channels"),
    ])
    def test_bad_geometry_is_refused_by_name(self, pod, bad, field):
        args = dict(width=300, channels=64, halo_rows=1, dtype_bytes=2, num_partitions=4)
        with pytest.raises(ValueError, match=field):
            halo_exchange_time(pod, **{**args, **bad})


class TestConvHalo:
    @pytest.mark.parametrize("k,h", [(1, 0), (3, 1), (5, 2), (7, 3)])
    def test_rows(self, k, h):
        assert conv_halo_rows(k) == h

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            conv_halo_rows(4)
