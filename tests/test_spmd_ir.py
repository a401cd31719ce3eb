"""Tensor IR tests: shapes, flops, builders."""

import pytest

from repro.spmd.ir import Graph, ShapeError


class TestBuilders:
    def test_conv2d_shapes(self):
        g = Graph()
        x = g.input((1, 32, 32, 3))
        w = g.parameter((3, 3, 3, 16))
        y = g.conv2d(x, w)
        assert g.node(y).shape == (1, 32, 32, 16)

    def test_conv2d_stride(self):
        g = Graph()
        x = g.input((1, 32, 32, 3))
        w = g.parameter((7, 7, 3, 64))
        y = g.conv2d(x, w, stride=2)
        assert g.node(y).shape == (1, 16, 16, 64)

    def test_conv2d_channel_mismatch(self):
        g = Graph()
        x = g.input((1, 8, 8, 3))
        w = g.parameter((3, 3, 4, 16))
        with pytest.raises(ShapeError):
            g.conv2d(x, w)

    def test_matmul_shapes(self):
        g = Graph()
        a = g.input((8, 16))
        b = g.parameter((16, 4))
        y = g.matmul(a, b)
        assert g.node(y).shape == (8, 4)

    def test_matmul_mismatch(self):
        g = Graph()
        a = g.input((8, 16))
        b = g.parameter((15, 4))
        with pytest.raises(ShapeError):
            g.matmul(a, b)

    def test_add_shape_check(self):
        g = Graph()
        a = g.input((4, 4))
        b = g.input((4, 5))
        with pytest.raises(ShapeError):
            g.add(a, b)

    def test_topk(self):
        g = Graph()
        x = g.input((1, 100))
        y = g.topk(x, 10)
        assert g.node(y).shape == (1, 10)
        with pytest.raises(ShapeError):
            g.topk(x, 200)

    def test_gather(self):
        g = Graph()
        x = g.input((1, 50, 84, 256))
        y = g.gather(x, 1000, 7 * 7 * 256)
        assert g.node(y).shape == (1000, 7 * 7 * 256)

    def test_unknown_input_id(self):
        g = Graph()
        with pytest.raises(ShapeError):
            g.elementwise(99)

    def test_reduce_scalar(self):
        g = Graph()
        x = g.input((4, 4))
        y = g.reduce(x)
        assert g.node(y).shape == ()
        assert g.node(y).elements == 1


class TestFlops:
    def test_matmul_flops(self):
        g = Graph()
        a = g.input((8, 16))
        b = g.parameter((16, 4))
        y = g.matmul(a, b)
        assert g.node_flops(g.node(y)) == 2 * 8 * 16 * 4

    def test_conv_flops(self):
        g = Graph()
        x = g.input((1, 10, 10, 3))
        w = g.parameter((3, 3, 3, 8))
        y = g.conv2d(x, w)
        assert g.node_flops(g.node(y)) == 2 * 1 * 10 * 10 * 8 * 9 * 3

    def test_inputs_free(self):
        g = Graph()
        x = g.input((100, 100))
        assert g.node_flops(g.node(x)) == 0.0

    def test_total_flops_accumulates(self):
        g = Graph()
        a = g.input((8, 16))
        b = g.parameter((16, 4))
        g.matmul(a, b)
        g.matmul(a, b)
        assert g.total_flops() == 2 * (2 * 8 * 16 * 4)

    def test_output_bytes(self):
        g = Graph()
        x = g.input((4, 4))
        assert g.node(x).output_bytes(2) == 32


class TestTables:
    def test_tables_hold_what_the_per_node_readers_compute(self):
        g = Graph()
        a = g.input((8, 16), name="a")
        b = g.parameter((16, 4), name="b")
        g.matmul(a, b, name="y")
        tables = g.tables()
        assert tables.flops == tuple(g.node_flops(n) for n in g.nodes)
        assert tables.output_bytes == tuple(n.output_bytes() for n in g.nodes)
        assert tables.ids_by_name == {"a": 0, "b": 1, "y": 2}
        assert g.tables() is tables  # built once

    def test_tables_are_dropped_when_a_node_is_appended(self):
        g = Graph()
        a = g.input((8, 16), name="a")
        stale = g.tables()
        g.elementwise(a, name="relu")
        assert g.tables() is not stale
        assert g.tables().ids_by_name == {"a": 0, "relu": 1}
        assert len(g.tables().flops) == 2
