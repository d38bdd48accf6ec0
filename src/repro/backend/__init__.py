"""Pluggable array-backend layer.

This package is the acceleration seam of the reproduction: every
array-touching layer (``autograd``, ``nn``, ``fem``, ``multigrid``,
``distributed``) routes its hot-path math through the op-dispatch
registry instead of calling NumPy directly, so an alternative backend
(threaded, GPU, ...) is one new module, not a codebase-wide rewrite.

Public surface::

    from repro.backend import ops as B          # op dispatcher
    from repro.backend import set_backend, get_backend, use_backend
    from repro.backend import set_default_dtype, dtype_scope
    from repro.backend import get_pool          # pooled scratch buffers
    from repro.backend import plan_conv         # planning conv engine
"""

from .base import ArrayBackend, BackendOpError
from .numpy_backend import NumpyBackend
from .pool import BufferPool, PoolStats
from .dtype import get_default_dtype, set_default_dtype, dtype_scope
from .registry import (
    register_backend, available_backends, set_backend, get_backend,
    use_backend, ops,
)
from .threaded import ThreadedBackend

# Lazily constructed so importing repro.backend never spins up a pool;
# the executor itself is created on first threaded contraction.
register_backend("threaded", ThreadedBackend)
from .conv_plan import (
    ConvSignature, ConvPlan, plan_conv, clear_plan_cache, plan_cache_info,
    set_conv_plan_mode, get_conv_plan_mode,
    ConvTransposePlan, plan_conv_transpose,
    host_fingerprint, autotune_cache_path, set_autotune_cache_path,
    autotune_table, clear_autotune_table, save_autotune_table,
)

__all__ = [
    "ArrayBackend", "BackendOpError", "NumpyBackend", "ThreadedBackend",
    "BufferPool", "PoolStats", "get_pool",
    "get_default_dtype", "set_default_dtype", "dtype_scope",
    "register_backend", "available_backends", "set_backend", "get_backend",
    "use_backend", "ops",
    "ConvSignature", "ConvPlan", "plan_conv", "clear_plan_cache",
    "plan_cache_info", "set_conv_plan_mode", "get_conv_plan_mode",
    "ConvTransposePlan", "plan_conv_transpose",
    "host_fingerprint", "autotune_cache_path", "set_autotune_cache_path",
    "autotune_table", "clear_autotune_table", "save_autotune_table",
]


def get_pool() -> BufferPool:
    """The active backend's pooled buffer allocator."""
    return get_backend().pool
