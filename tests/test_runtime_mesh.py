"""VirtualMesh buffer management and collective dispatch."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.faults import DeviceLostError
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

    def test_apply(self):
        m = VirtualMesh(2, 1)
        m.put_replicated("w", np.ones(3))
        m.apply("w", lambda a: 2 * a)
        assert np.array_equal(m.get("w", (1, 0)), 2 * np.ones(3))

    def test_apply_inplace(self):
        m = VirtualMesh(2, 1)
        m.put_replicated("w", np.ones(3))
        before = [m.get("w", d) for d in m.devices()]

        def scale(buf):
            buf *= 3.0

        m.apply_inplace("w", scale)
        for d, buf in zip(m.devices(), before):
            assert np.shares_memory(m.get("w", d), buf)  # no copies
            assert np.array_equal(buf, 3.0 * np.ones(3))

    def test_apply_inplace_missing_buffer(self):
        m = VirtualMesh(1, 1)
        with pytest.raises(KeyError):
            m.apply_inplace("nope", lambda b: None)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            VirtualMesh(0, 1)


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

    def test_hierarchical_forced_off(self):
        m = VirtualMesh(2, 2)
        self._fill(m, "g")
        m.all_reduce("g", "f64", hierarchical=False)
        expected = np.full(12, 10.0)
        assert np.allclose(m.get("g", (0, 0)), expected)

    def test_shard_transform_needs_hierarchical(self):
        m = VirtualMesh(4, 1)
        self._fill(m, "g")
        with pytest.raises(ValueError):
            m.all_reduce("g", hierarchical=False, shard_transform=lambda s: s)

    def test_fused_shard_transform(self):
        m = VirtualMesh(2, 2)
        self._fill(m, "g")
        m.all_reduce("g", "f64", shard_transform=lambda s: 0.5 * s)
        expected = np.full(12, 0.5 * 10.0)
        assert np.allclose(m.get("g", (1, 1)), expected)

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
        m.put_stacked("p", np.ones((2, 3)))
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
        # A dead device's row is unobservable, so it does not pin the shape.
        m.put("w", (1, 0), np.zeros((2, 3), dtype=np.float32))
        m.fail_device((1, 0))
        m.put("w", (0, 0), np.ones(5))
        assert np.array_equal(m.get("w", (0, 0)), np.ones(5))

    def test_apply_may_change_shape_and_dtype(self):
        m = VirtualMesh(2, 1)
        m.put_replicated("w", np.arange(4.0))
        m.apply("w", lambda a: a[:2].astype(np.float32))
        for d in m.devices():
            got = m.get("w", d)
            assert got.dtype == np.float32
            assert np.array_equal(got, np.arange(2.0))

    def test_put_copies_and_scalars_round_trip(self):
        m = VirtualMesh(2, 1)
        src = np.arange(3.0)
        m.put("w", (0, 0), src)
        src[0] = 99.0
        assert m.get("w", (0, 0))[0] == 0.0
        m.put("s", (0, 0), np.float64(2.5))
        got = m.get("s", (0, 0))
        assert isinstance(got, np.ndarray) and got.shape == () and got == 2.5

    def test_heal_then_apply_inplace_owns_rows(self):
        m = VirtualMesh(2, 2)
        for i, d in enumerate(m.devices()):
            m.put("g", d, np.full(3, float(i + 1)))
        m.fail_device((0, 1))  # held 2.0
        m.all_reduce("g", "f64", on_fault="heal")
        survivors = list(m.alive_devices())
        assert not any(m.get("g", d).flags.writeable for d in survivors)

        def bump(buf):
            buf += 1.0

        m.apply_inplace("g", bump)
        rows = [m.get("g", d) for d in survivors]
        for row in rows:
            assert np.array_equal(row, np.full(3, 1.0 + 3.0 + 4.0 + 1.0))
        rows[0][0] = -1.0
        assert rows[1][0] == 9.0 and rows[2][0] == 9.0

    def test_restore_leaves_other_holders_intact(self):
        m = VirtualMesh(3, 1)
        for i, d in enumerate(m.devices()):
            m.put("w", d, np.full(2, float(i)))
        m.put_replicated("r", np.ones(2))
        m.fail_device((1, 0))
        m.restore_device((1, 0))
        for name in ("w", "r"):
            with pytest.raises(KeyError):
                m.get(name, (1, 0))
        assert np.array_equal(m.get("w", (0, 0)), np.full(2, 0.0))
        assert np.array_equal(m.get("w", (2, 0)), np.full(2, 2.0))
        assert np.array_equal(m.get("r", (2, 0)), np.ones(2))
        # The repaired device re-joins by being re-populated.
        m.put("w", (1, 0), np.full(2, 5.0))
        assert np.array_equal(m.get("w", (1, 0)), np.full(2, 5.0))
        assert np.array_equal(m.get("w", (2, 0)), np.full(2, 2.0))


# --- model-based check of the one-storage mesh ----------------------------------

_DEVICES = [(0, 0), (0, 1), (1, 0), (1, 1)]
_NAMES = ("a", "b")
_SHAPES = ((3,), (2, 2), ())
_DTYPES = (np.float32, np.float64)


def _array(seed: int, shape, dtype) -> np.ndarray:
    return np.asarray(np.random.default_rng(seed).standard_normal(shape), dtype=dtype)


class _MeshModel:
    """Dict-of-arrays twin of a 2x2 ``VirtualMesh``.

    ``rows[name][device]`` is the buffer a live device holds; a failed
    device's rows are dropped at once (the mesh keeps them, unobservably,
    until ``restore_device`` drops them).  Arithmetic is the per-device-loop
    reference kernels over the fused flat buffers.
    """

    def __init__(self) -> None:
        self.rows: dict[str, dict[tuple[int, int], np.ndarray]] = {}
        self.dead: set[tuple[int, int]] = set()

    def alive(self):
        return [d for d in _DEVICES if d not in self.dead]

    def _check_alive(self, device):
        if device in self.dead:
            raise DeviceLostError(device)

    def get(self, name, device):
        self._check_alive(device)
        return self.rows[name][device]  # KeyError when not held

    def put(self, name, device, array):
        self._check_alive(device)
        held = self.rows.setdefault(name, {})
        for other, row in held.items():
            if other != device and (row.shape, row.dtype) != (array.shape, array.dtype):
                raise ValueError("one shape and dtype per name")
        held[device] = np.array(array)

    def put_all(self, name, rows):
        self.rows[name] = {
            d: np.array(rows[i]) for i, d in enumerate(_DEVICES) if d not in self.dead
        }

    def fail(self, device):
        self.dead.add(device)
        for held in self.rows.values():
            held.pop(device, None)

    def restore(self, device):
        self.dead.discard(device)

    def apply(self, name, fn):
        alive = self.alive()
        new = [fn(self.get(name, d)) for d in alive]
        self.rows[name].clear()
        self.rows[name].update(zip(alive, new))

    def apply_inplace(self, name, fn):
        for row in self.rows[name].values():
            fn(row)

    def all_reduce(self, names, policy, hierarchical, on_fault):
        degraded = bool(self.dead)
        if degraded and (on_fault == "raise" or not self.alive()):
            raise DeviceLostError(sorted(self.dead))
        alive = self.alive()
        trees = [[self.get(nm, d) for nm in names] for d in alive]
        dtype = np.result_type(*(t.dtype for t in trees[0]))
        fused = [
            np.concatenate([t.reshape(-1) for t in tree]).astype(dtype) for tree in trees
        ]
        if degraded or hierarchical is False:
            flat = _reference_ring_all_reduce(fused, policy)[0]
        else:
            flat = _reference_two_phase_all_reduce([fused[:2], fused[2:]], policy)[0][0]
        assert flat.dtype == _dtype_for(policy)
        offset = 0
        for nm, template in zip(names, trees[0]):
            part = flat[offset:offset + template.size].reshape(template.shape)
            offset += template.size
            self.rows[nm] = {d: np.array(part) for d in alive}


def _double(buf):
    buf *= 2.0


_seeds = st.integers(min_value=0, max_value=2**16)
_ops = st.one_of(
    st.tuples(
        st.just("put"), st.sampled_from(_NAMES), st.sampled_from(_DEVICES),
        _seeds, st.sampled_from(_SHAPES), st.sampled_from(_DTYPES),
    ),
    st.tuples(
        st.sampled_from(("put_replicated", "put_stacked")), st.sampled_from(_NAMES),
        _seeds, st.sampled_from(_SHAPES), st.sampled_from(_DTYPES),
    ),
    st.tuples(
        st.just("all_reduce"),
        st.sampled_from((("a",), ("b",), ("a", "b"))),
        st.sampled_from(("f32", "bf16", "f64")),
        st.sampled_from((None, False, True)),
        st.sampled_from(("raise", "heal")),
    ),
    st.tuples(st.sampled_from(("apply", "apply_inplace")), st.sampled_from(_NAMES)),
    st.tuples(st.sampled_from(("fail", "restore")), st.sampled_from(_DEVICES)),
)


def _run(op, mesh: VirtualMesh, model: _MeshModel):
    """Apply one drawn op to both; returns their outcomes (exception types)."""
    kind = op[0]
    if kind == "put":
        _, name, device, seed, shape, dtype = op
        array = _array(seed, shape, dtype)
        calls = (lambda: mesh.put(name, device, array),
                 lambda: model.put(name, device, array))
    elif kind in ("put_replicated", "put_stacked"):
        _, name, seed, shape, dtype = op
        if kind == "put_replicated":
            array = _array(seed, shape, dtype)
            calls = (lambda: mesh.put_replicated(name, array),
                     lambda: model.put_all(name, [array] * 4))
        else:
            block = _array(seed, (4,) + shape, dtype)
            calls = (lambda: mesh.put_stacked(name, block.copy()),
                     lambda: model.put_all(name, block))
    elif kind == "all_reduce":
        _, names, policy, hierarchical, on_fault = op
        calls = (
            lambda: mesh.all_reduce(
                names if len(names) > 1 else names[0], policy,
                hierarchical=hierarchical, on_fault=on_fault,
            ),
            lambda: model.all_reduce(names, policy, hierarchical, on_fault),
        )
    elif kind == "apply":
        grow = lambda a: np.stack([a, a]).astype(np.float64)  # noqa: E731
        calls = (lambda: mesh.apply(op[1], grow), lambda: model.apply(op[1], grow))
    elif kind == "apply_inplace":
        calls = (lambda: mesh.apply_inplace(op[1], _double),
                 lambda: model.apply_inplace(op[1], _double))
    elif kind == "fail":
        calls = (lambda: mesh.fail_device(op[1]), lambda: model.fail(op[1]))
    else:
        calls = (lambda: mesh.restore_device(op[1]), lambda: model.restore(op[1]))
    outcomes = []
    for call in calls:
        try:
            call()
            outcomes.append(None)
        except (DeviceLostError, KeyError, ValueError) as exc:
            outcomes.append(type(exc))
    return outcomes


def _assert_same_state(mesh: VirtualMesh, model: _MeshModel) -> None:
    assert set(mesh.alive_devices()) == set(model.alive())
    for name in _NAMES:
        live = []
        for device in _DEVICES:
            try:
                want = model.get(name, device)
            except (DeviceLostError, KeyError) as exc:
                with pytest.raises(type(exc)):
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
    @given(ops=st.lists(_ops, max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_random_sequences_match_dict_of_arrays_model(self, ops):
        """put / put_replicated / put_stacked / all_reduce (ring and 2-D,
        raise and heal, fused) / apply / apply_inplace / fail / restore in
        any order: the same bits, the same exception types, and no two live
        devices sharing writable memory."""
        mesh, model = VirtualMesh(2, 2), _MeshModel()
        for op in ops:
            got, want = _run(op, mesh, model)
            assert got == want, op
            _assert_same_state(mesh, model)
