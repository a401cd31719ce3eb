"""VirtualMesh buffer management and collective dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.collectives import (
    _dtype_for,
    _reference_ring_all_reduce,
    _reference_two_phase_all_reduce,
)
from repro.runtime.mesh import VirtualMesh


class TestBuffers:
    def test_put_get(self):
        m = VirtualMesh(2, 2)
        m.put("w", (1, 1), np.arange(4.0))
        assert np.array_equal(m.get("w", (1, 1)), np.arange(4.0))

    def test_put_replicated(self):
        m = VirtualMesh(2, 3)
        m.put_replicated("w", np.ones(5))
        for d in m.devices():
            assert np.array_equal(m.get("w", d), np.ones(5))

    def test_replication_copies(self):
        m = VirtualMesh(2, 1)
        src = np.zeros(3)
        m.put_replicated("w", src)
        m.get("w", (0, 0))[0] = 99.0
        assert m.get("w", (1, 0))[0] == 0.0

    def test_missing_buffer(self):
        m = VirtualMesh(1, 1)
        with pytest.raises(KeyError):
            m.get("nope", (0, 0))

    def test_bad_device(self):
        m = VirtualMesh(2, 2)
        with pytest.raises(ValueError):
            m.put("w", (2, 0), np.zeros(1))

    def test_devices_order(self):
        m = VirtualMesh(2, 2)
        assert list(m.devices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            VirtualMesh(0, 1)

    def test_put_coerces_ndarray_subclasses(self):
        # Regression: inputs arriving as ndarray subclasses must land as
        # base-class arrays, not leak subclass behavior into collectives.
        class Tagged(np.ndarray):
            pass

        mesh = VirtualMesh(2, 1)
        mesh.put("w", (0, 0), np.arange(4.0).view(Tagged))
        stored = mesh.get("w", (0, 0))
        assert type(stored) is np.ndarray
        assert np.array_equal(stored, np.arange(4.0))


class TestMeshCollectives:
    def _fill(self, m, name, size=12):
        for i, d in enumerate(m.devices()):
            m.put(name, d, np.full(size, float(i + 1)))

    def test_flat_all_reduce(self):
        m = VirtualMesh(4, 1)
        self._fill(m, "g")
        m.all_reduce("g", "f64")
        expected = np.full(12, 1.0 + 2 + 3 + 4)
        for d in m.devices():
            assert np.allclose(m.get("g", d), expected)

    def test_hierarchical_all_reduce(self):
        m = VirtualMesh(2, 3)
        self._fill(m, "g")
        m.all_reduce("g", "f64")
        expected = np.full(12, float(sum(range(1, 7))))
        for d in m.devices():
            assert np.allclose(m.get("g", d), expected)

    @pytest.mark.parametrize(
        "shape, schedule", [((4, 1), "ring"), ((1, 4), "ring"), ((2, 2), "2d")]
    )
    def test_schedule_follows_mesh_shape(self, shape, schedule, fresh_telemetry):
        m = VirtualMesh(*shape)
        self._fill(m, "g")
        m.all_reduce("g", "f64")
        assert fresh_telemetry.value("mesh_allreduce_launches", schedule=schedule) == 1
        assert np.array_equal(m.get("g", (0, 0)), np.full(12, 10.0))

    def test_fused_multi_name_all_reduce(self):
        """A sequence of names travels in ONE bucketed collective."""
        m = VirtualMesh(4, 1)
        self._fill(m, "g0", size=7)
        self._fill(m, "g1", size=5)
        m.all_reduce(["g0", "g1"], "f64")
        for d in m.devices():
            assert np.allclose(m.get("g0", d), np.full(7, 10.0))
            assert np.allclose(m.get("g1", d), np.full(5, 10.0))

    def test_fused_multi_name_matches_separate(self):
        fused = VirtualMesh(2, 2)
        separate = VirtualMesh(2, 2)
        rng = np.random.default_rng(5)
        for i, d in enumerate(fused.devices()):
            a = rng.standard_normal(9)
            b = rng.standard_normal((3, 4))
            fused.put("a", d, a.copy())
            fused.put("b", d, b.copy())
            separate.put("a", d, a.copy())
            separate.put("b", d, b.copy())
        fused.all_reduce(["a", "b"], "f64")
        separate.all_reduce("a", "f64")
        separate.all_reduce("b", "f64")
        for d in fused.devices():
            assert np.allclose(fused.get("a", d), separate.get("a", d))
            assert np.allclose(fused.get("b", d), separate.get("b", d))

    def test_bucket_layout_cached(self):
        m = VirtualMesh(2, 1)
        self._fill(m, "g")
        m.all_reduce("g", "f64")
        first = m._buckets
        assert len(first) == 1
        m.all_reduce("g", "f64")
        assert m._buckets is first and len(first) == 1


class TestOneStorage:
    """A name is one device-major value: no second copy to go stale, one
    shape and dtype across the mesh."""

    def test_put_replicated_replaces_collective_result(self):
        # Regression: the replicated all-reduce result used to shadow the
        # rows put_replicated wrote, so get() kept returning the old sum.
        m = VirtualMesh(2, 1)
        for d in m.devices():
            m.put("w", d, np.ones(3))
        m.all_reduce("w", "f64")
        m.put_replicated("w", np.zeros(3))
        for d in m.devices():
            assert np.array_equal(m.get("w", d), np.zeros(3))

    def test_put_replicated_replaces_stacked_value(self):
        m = VirtualMesh(2, 1)
        for d in m.devices():
            m.put("p", d, np.ones((2, 3)))  # one (2, 2, 3) block, distinct rows
        m.put_replicated("p", np.full(3, 7.0))
        for d in m.devices():
            assert np.array_equal(m.get("p", d), np.full(3, 7.0))

    def test_put_rejects_shape_mismatch(self):
        # Regression: all_reduce silently broadcast the length-1 buffer.
        m = VirtualMesh(2, 1)
        m.put("w", (0, 0), np.ones(4))
        with pytest.raises(ValueError, match=r"\(4,\).*\(1,\)"):
            m.put("w", (1, 0), np.ones(1))
        assert np.array_equal(m.get("w", (0, 0)), np.ones(4))
        with pytest.raises(KeyError):
            m.get("w", (1, 0))

    def test_put_rejects_dtype_mismatch(self):
        # Regression: an f64 row holding 1e300 beside an f32 row overflowed
        # to inf when the rows were fused.
        m = VirtualMesh(2, 1)
        m.put("w", (0, 0), np.ones(2, dtype=np.float32))
        with pytest.raises(ValueError, match="float32.*float64"):
            m.put("w", (1, 0), np.full(2, 1e300))
        m.put("w", (1, 0), np.ones(2, dtype=np.float32))
        m.all_reduce("w", "f32")
        assert np.array_equal(m.get("w", (1, 0)), np.full(2, 2.0, dtype=np.float32))

    def test_sole_holder_may_change_shape(self):
        m = VirtualMesh(2, 1)
        m.put("w", (0, 0), np.ones(4))
        m.put("w", (0, 0), np.zeros((2, 3), dtype=np.float32))
        assert m.get("w", (0, 0)).shape == (2, 3)
        m.put("w", (1, 0), np.ones((2, 3), dtype=np.float32))  # the new shape pins
        with pytest.raises(ValueError):
            m.put("w", (0, 0), np.ones(4))

    def test_put_copies_and_scalars_round_trip(self):
        m = VirtualMesh(2, 1)
        src = np.arange(3.0)
        m.put("w", (0, 0), src)
        src[0] = 99.0
        assert m.get("w", (0, 0))[0] == 0.0
        m.put("s", (0, 0), np.float64(2.5))
        got = m.get("s", (0, 0))
        assert isinstance(got, np.ndarray) and got.shape == () and got == 2.5


# --- model-based check of the one-storage mesh ----------------------------------

_SHAPES = ((3,), (2, 2), ())
_DTYPES = (np.float32, np.float64)
_NAMES = ("a", "b")


def _array(seed: int, shape, dtype) -> np.ndarray:
    return np.asarray(np.random.default_rng(seed).standard_normal(shape), dtype=dtype)


class _MeshModel:
    """Dict-of-arrays twin of a four-device ``VirtualMesh``.

    ``rows[name][device]`` is the buffer a device holds.  Arithmetic is the
    per-device-loop reference kernels over the fused flat buffers: a ring
    on a 4x1 mesh, the 2-D schedule on 2x2.
    """

    def __init__(self, mesh_shape) -> None:
        self.shape = mesh_shape
        self.devices = [(x, y) for x in range(mesh_shape[0]) for y in range(mesh_shape[1])]
        self.rows: dict[str, dict[tuple[int, int], np.ndarray]] = {}

    def get(self, name, device):
        return self.rows[name][device]  # KeyError when not held

    def put(self, name, device, array):
        held = self.rows.setdefault(name, {})
        for other, row in held.items():
            if other != device and (row.shape, row.dtype) != (array.shape, array.dtype):
                raise ValueError("one shape and dtype per name")
        held[device] = np.array(array)

    def put_replicated(self, name, array):
        self.rows[name] = {d: np.array(array) for d in self.devices}

    def all_reduce(self, names, policy):
        trees = [[self.get(nm, d) for nm in names] for d in self.devices]
        dtype = np.result_type(*(t.dtype for t in trees[0]))
        fused = [
            np.concatenate([t.reshape(-1) for t in tree]).astype(dtype) for tree in trees
        ]
        if self.shape == (4, 1):
            flat = _reference_ring_all_reduce(fused, policy)[0]
        else:
            flat = _reference_two_phase_all_reduce([fused[:2], fused[2:]], policy)[0][0]
        assert flat.dtype == _dtype_for(policy)
        offset = 0
        for nm, template in zip(names, trees[0]):
            part = flat[offset:offset + template.size].reshape(template.shape)
            offset += template.size
            self.rows[nm] = {d: np.array(part) for d in self.devices}


_seeds = st.integers(min_value=0, max_value=2**16)
_ops = st.one_of(
    st.tuples(
        st.just("put"), st.sampled_from(_NAMES), st.integers(0, 3),
        _seeds, st.sampled_from(_SHAPES), st.sampled_from(_DTYPES),
    ),
    st.tuples(
        st.sampled_from(("put_replicated", "put_each")), st.sampled_from(_NAMES),
        _seeds, st.sampled_from(_SHAPES), st.sampled_from(_DTYPES),
    ),
    st.tuples(
        st.just("all_reduce"),
        st.sampled_from((("a",), ("b",), ("a", "b"))),
        st.sampled_from(("f32", "bf16", "f64")),
    ),
)


def _run(op, mesh: VirtualMesh, model: _MeshModel):
    """Apply one drawn op to both; returns their outcomes (exception types)."""
    kind = op[0]
    if kind == "put":
        _, name, index, seed, shape, dtype = op
        device, array = model.devices[index], _array(seed, shape, dtype)
        calls = (lambda: mesh.put(name, device, array),
                 lambda: model.put(name, device, array))
    elif kind == "put_replicated":
        _, name, seed, shape, dtype = op
        array = _array(seed, shape, dtype)
        calls = (lambda: mesh.put_replicated(name, array),
                 lambda: model.put_replicated(name, array))
    elif kind == "put_each":  # a distinct row per device, as graph_exec puts
        _, name, seed, shape, dtype = op
        rows = _array(seed, (4,) + shape, dtype)

        def put_each(target):
            for device, row in zip(model.devices, rows):
                target.put(name, device, row)

        calls = (lambda: put_each(mesh), lambda: put_each(model))
    else:
        _, names, policy = op
        calls = (lambda: mesh.all_reduce(names if len(names) > 1 else names[0], policy),
                 lambda: model.all_reduce(names, policy))
    outcomes = []
    for call in calls:
        try:
            call()
            outcomes.append(None)
        except (KeyError, ValueError) as exc:
            outcomes.append(type(exc))
    return outcomes


def _assert_same_state(mesh: VirtualMesh, model: _MeshModel) -> None:
    for name in _NAMES:
        live = []
        for device in model.devices:
            try:
                want = model.get(name, device)
            except KeyError:
                with pytest.raises(KeyError):
                    mesh.get(name, device)
                continue
            got = mesh.get(name, device)
            assert isinstance(got, np.ndarray)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
            live.append(got)
        for i, a in enumerate(live):
            for b in live[i + 1:]:
                if a.flags.writeable or b.flags.writeable:
                    assert not np.shares_memory(a, b)


class TestMeshAgainstModel:
    @given(
        mesh_shape=st.sampled_from(((4, 1), (2, 2))),
        ops=st.lists(_ops, max_size=14),
    )
    @settings(max_examples=200, deadline=None)
    def test_random_sequences_match_dict_of_arrays_model(self, mesh_shape, ops):
        """put (one device or a distinct row on each) / put_replicated /
        all_reduce (ring on 4x1, 2-D on 2x2, single and fused names) / get
        in any order: the same bits, the same exception types, and no two
        devices sharing writable memory."""
        mesh, model = VirtualMesh(*mesh_shape), _MeshModel(mesh_shape)
        for op in ops:
            got, want = _run(op, mesh, model)
            assert got == want, op
            _assert_same_state(mesh, model)
