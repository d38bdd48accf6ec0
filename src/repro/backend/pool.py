"""Pooled buffer allocator for hot-loop scratch arrays.

Megavoxel training spends a surprising fraction of its time in
``malloc``/page-faulting freshly allocated NumPy buffers that live for one
conv call and die.  :class:`BufferPool` keeps released buffers on
per-(shape, dtype) free lists so steady-state training loops recycle the
same few large allocations instead of churning the allocator.

Usage contract:

* ``acquire`` returns an *uninitialised* buffer (like ``np.empty``); call
  sites must fully overwrite it.
* ``release`` hands a buffer back.  Only release arrays that own their
  memory and that no live view aliases — the pool will hand the same
  memory to the next ``acquire``.
* Never release an array you return to a caller (or a view of one).

The pool is bounded: releases beyond ``max_bytes`` are dropped (the GC
reclaims them), so it cannot grow without limit on pathological shape
sequences.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BufferPool", "PoolStats"]


@dataclass
class PoolStats:
    """Cumulative accounting of one :class:`BufferPool`.

    ``bytes_recycled`` totals the bytes of every pool hit (allocation
    traffic the pool absorbed); ``high_water_bytes`` is the largest
    ``bytes_pooled`` ever parked — the number to size ``max_bytes``
    from.  Both are surfaced by the autograd profiler report.
    """

    hits: int = 0
    misses: int = 0
    releases: int = 0
    evictions: int = 0
    bytes_pooled: int = 0
    bytes_recycled: int = 0
    high_water_bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> "PoolStats":
        """Point-in-time copy (for delta accounting across a region)."""
        return PoolStats(**vars(self))


class BufferPool:
    """Free-list allocator keyed by (shape, dtype).

    Parameters
    ----------
    max_bytes:
        Cap on the total bytes parked in free lists (default 512 MiB).
    enabled:
        When False, ``acquire`` always allocates and ``release`` drops —
        handy for debugging aliasing suspicions.
    """

    def __init__(self, max_bytes: int = 512 * 1024 * 1024,
                 enabled: bool = True) -> None:
        self.max_bytes = int(max_bytes)
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._free: dict[tuple[tuple[int, ...], str], list[np.ndarray]] = {}
        self.stats = PoolStats()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _key(shape: tuple[int, ...], dtype) -> tuple[tuple[int, ...], str]:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def acquire(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Return an uninitialised array of the requested shape/dtype."""
        key = self._key(shape, dtype)
        if self.enabled:
            with self._lock:
                bucket = self._free.get(key)
                if bucket:
                    arr = bucket.pop()
                    self.stats.hits += 1
                    self.stats.bytes_recycled += arr.nbytes
                    self.stats.bytes_pooled -= arr.nbytes
                    return arr
                self.stats.misses += 1
        return np.empty(key[0], dtype=np.dtype(key[1]))

    def zeros(self, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """Pooled equivalent of ``np.zeros``."""
        arr = self.acquire(shape, dtype)
        arr.fill(0)
        return arr

    def release(self, arr: np.ndarray) -> None:
        """Return a buffer to the pool (drops it when over capacity)."""
        with self._lock:
            self.stats.releases += 1
            if not self.enabled or not isinstance(arr, np.ndarray):
                return
            if (arr.base is not None or not arr.flags.owndata
                    or not arr.flags.c_contiguous):
                # Views don't own memory (pooling them would alias live
                # data), and non-C-contiguous buffers break callers that
                # reshape pooled memory in place.
                self.stats.evictions += 1
                return
            if self.stats.bytes_pooled + arr.nbytes > self.max_bytes:
                self.stats.evictions += 1
                return
            self._free.setdefault(self._key(arr.shape, arr.dtype), []).append(arr)
            self.stats.bytes_pooled += arr.nbytes
            self.stats.high_water_bytes = max(self.stats.high_water_bytes,
                                              self.stats.bytes_pooled)

    def clear(self) -> None:
        """Drop every pooled buffer (stats are kept)."""
        with self._lock:
            self._free.clear()
            self.stats.bytes_pooled = 0

    def __repr__(self) -> str:
        s = self.stats
        return (f"BufferPool(hits={s.hits}, misses={s.misses}, "
                f"pooled={s.bytes_pooled >> 20} MiB, enabled={self.enabled})")
