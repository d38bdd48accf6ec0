"""Unit tests for the array-backend layer: registry round-trips, the op
dispatcher, the dtype policy and the pooled buffer allocator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    ArrayBackend, BackendOpError, BufferPool, NumpyBackend,
    available_backends, dtype_scope, get_backend, get_default_dtype,
    get_pool, ops, register_backend, set_backend, set_default_dtype,
    use_backend,
)
from repro.backend import registry


class TestRegistry:
    @pytest.fixture(autouse=True)
    def _restore_registry(self):
        # Tests below register stub backends; drop them afterwards so the
        # registered set stays the one a fresh import builds.
        saved = dict(registry._BACKENDS)
        yield
        registry._BACKENDS.clear()
        registry._BACKENDS.update(saved)

    def test_numpy_round_trip(self):
        backend = set_backend("numpy")
        assert backend.name == "numpy"
        assert get_backend() is backend
        assert "numpy" in available_backends()

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("does-not-exist")

    def test_only_eager_backends_registered(self):
        assert available_backends() == ("numpy", "threaded")
        with pytest.raises(ValueError,
                           match=r"registered: \('numpy', 'threaded'\)"):
            set_backend("lazy")

    def test_register_and_activate_custom(self):
        class StubBackend(NumpyBackend):
            name = "stub"

        stub = StubBackend()
        register_backend("stub", stub)
        try:
            with use_backend("stub") as active:
                assert active is stub
                assert get_backend() is stub
            assert get_backend().name == "numpy"
        finally:
            set_backend("numpy")

    def test_factory_registration_memoizes(self):
        created = []

        def factory():
            b = NumpyBackend()
            created.append(b)
            return b

        register_backend("factory-made", factory)
        try:
            with use_backend("factory-made") as first:
                pass
            with use_backend("factory-made") as second:
                pass
            assert first is second
            assert len(created) == 1
        finally:
            set_backend("numpy")


class TestOpDispatch:
    def test_dispatcher_resolves_active_backend(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(ops.matmul(a, b), a @ b)
        np.testing.assert_allclose(
            ops.tensordot(a, b, axes=([1], [0])), np.tensordot(a, b, axes=1))

    def test_missing_op_raises_backend_error(self):
        backend = get_backend()
        with pytest.raises(BackendOpError, match="does not implement"):
            backend.op("definitely_not_an_op")

    def test_subclass_override_is_local(self):
        class Child(NumpyBackend):
            name = "child"

        sentinel = object()
        Child.register_op("tensordot", lambda *a, **k: sentinel)
        child = Child()
        assert child.op("tensordot")(None, None) is sentinel
        # Parent table untouched.
        assert NumpyBackend().op("tensordot") is not child.op("tensordot")

    def test_attribute_access_resolves_ops(self):
        backend = get_backend()
        assert backend.exp is backend.op("exp")
        with pytest.raises(AttributeError):
            backend.nonexistent_op

    def test_scatter_add(self):
        out = np.zeros(4)
        ops.scatter_add(out, np.array([0, 0, 2]), np.array([1.0, 2.0, 5.0]))
        np.testing.assert_allclose(out, [3.0, 0.0, 5.0, 0.0])


class TestDtypePolicy:
    def test_default_is_float32(self):
        assert get_default_dtype() is np.float32

    def test_set_and_restore(self):
        set_default_dtype("float64")
        try:
            assert get_default_dtype() is np.float64
            from repro.autograd import Tensor
            assert Tensor([1.0, 2.0]).dtype == np.float64
        finally:
            set_default_dtype(np.float32)

    def test_scope_restores_on_exit(self):
        with dtype_scope(np.float64):
            assert get_default_dtype() is np.float64
            with dtype_scope("float32"):
                assert get_default_dtype() is np.float32
            assert get_default_dtype() is np.float64
        assert get_default_dtype() is np.float32

    def test_rejects_non_float(self):
        with pytest.raises(ValueError, match="float32 or float64"):
            set_default_dtype(np.int64)

    def test_autograd_reexports_policy(self):
        from repro.autograd import get_default_dtype as ag_get
        assert ag_get() is get_default_dtype()


class TestBufferPool:
    def test_acquire_release_reuses_memory(self):
        pool = BufferPool()
        a = pool.acquire((16, 16), np.float64)
        ptr = a.ctypes.data
        pool.release(a)
        b = pool.acquire((16, 16), np.float64)
        assert b.ctypes.data == ptr
        assert pool.stats.hits == 1
        assert pool.stats.misses == 1

    def test_shape_and_dtype_key_separation(self):
        pool = BufferPool()
        a = pool.acquire((8,), np.float32)
        pool.release(a)
        b = pool.acquire((8,), np.float64)
        assert b.dtype == np.float64
        assert pool.stats.hits == 0  # different dtype bucket

    def test_zeros_is_zero_filled_even_on_reuse(self):
        pool = BufferPool()
        a = pool.acquire((4,), np.float32)
        a[:] = 7.0
        pool.release(a)
        z = pool.zeros((4,), np.float32)
        np.testing.assert_array_equal(z, 0.0)

    def test_views_are_never_pooled(self):
        pool = BufferPool()
        base = pool.acquire((10,), np.float32)
        pool.release(base[2:6])
        assert pool.stats.evictions == 1
        assert pool.stats.bytes_pooled == 0

    def test_capacity_bound(self):
        pool = BufferPool(max_bytes=64)
        small = pool.acquire((4,), np.float32)   # 16 bytes
        big = pool.acquire((100,), np.float64)   # 800 bytes > cap
        pool.release(small)
        pool.release(big)
        assert pool.stats.bytes_pooled == 16
        assert pool.stats.evictions == 1

    def test_disabled_pool_always_allocates(self):
        pool = BufferPool(enabled=False)
        a = pool.acquire((4,), np.float32)
        pool.release(a)
        b = pool.acquire((4,), np.float32)
        assert b.ctypes.data != a.ctypes.data or a is not b
        assert pool.stats.hits == 0

    def test_clear_drops_buffers(self):
        pool = BufferPool()
        pool.release(pool.acquire((32,), np.float32))
        assert pool.stats.bytes_pooled > 0
        pool.clear()
        assert pool.stats.bytes_pooled == 0

    def test_backend_owns_a_pool(self):
        assert isinstance(get_pool(), BufferPool)
        assert get_pool() is get_backend().pool


class TestRingAllreduceUsesPool:
    def test_ring_allreduce_pool_reuse(self):
        from repro.distributed.ring import ring_allreduce

        pool = get_pool()
        bufs = [np.full(1000, float(r)) for r in range(4)]
        ring_allreduce(bufs)
        hits_before = pool.stats.hits
        reduced, _ = ring_allreduce(bufs)
        # Second identical call reuses the four pooled work buffers.
        assert pool.stats.hits >= hits_before + 4
        np.testing.assert_allclose(reduced[0], np.full(1000, 6.0))


class TestBackendThroughStack:
    """Smoke: a training step works identically via the backend seam."""

    def test_conv_module_matches_direct_numpy(self):
        from repro.autograd import Tensor
        from repro.nn.conv import Conv2d

        rng = np.random.default_rng(0)
        layer = Conv2d(3, 8, kernel_size=3, padding=1, rng=7)
        x = rng.standard_normal((2, 3, 12, 12)).astype(np.float32)
        with use_backend("numpy"):
            y = layer(Tensor(x))
        assert y.shape == (2, 8, 12, 12)
        assert np.isfinite(y.data).all()
