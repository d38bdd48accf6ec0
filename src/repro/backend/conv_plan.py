"""Planning conv engine: choose *how* to execute each convolution.

The N-d convolution dominates every epoch (``bench_fig2_epoch_time``),
and the best execution strategy depends on the (shape, kernel, stride)
signature:

* **per-offset tensordot** — ``k^d`` GEMMs of shape ``(N*So, Cin) @
  (Cin, Cout)``; peak memory stays O(input).  Wins for big kernels, tiny
  channel counts and megavoxel fields where the patch matrix would not
  fit.
* **im2col/GEMM** — one patch-matrix copy followed by a single
  ``(N*So, Cin*k^d) @ (Cin*k^d, Cout)`` GEMM.  Wins for the small-kernel
  /many-channel signatures of the U-Net trunk, where ``k^d`` separate
  thin GEMMs leave BLAS underfed.

``plan_conv`` maps a :class:`ConvSignature` to a :class:`ConvPlan` once
and memoizes it, so the per-call planning cost in the training loop is a
dict lookup.  The im2col scratch (the one large short-lived buffer) comes
from the active backend's :class:`~repro.backend.pool.BufferPool`.

``REPRO_CONV_PLAN`` (or :func:`set_conv_plan_mode`) forces ``im2col`` /
``tensordot`` globally — used by the parity tests to drive both engines
over identical inputs.

**Measured autotuning** (mode ``autotune``): the heuristic thresholds
above encode one host's cache sizes and BLAS behaviour.  In autotune mode
the planner instead *times both engines* on first sight of a signature
(synthetic data of exactly that shape, warm-up plus best-of-N) and locks
in the measured winner.  Decisions are persisted to a JSON table keyed by
a host fingerprint (``REPRO_AUTOTUNE_CACHE`` or
``~/.cache/repro/conv_autotune.json``), so a server restart — or the next
training run — skips re-timing entirely.  Signatures too large to time
safely fall back to the heuristic and are recorded as such, so they are
not re-examined either.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .registry import get_backend, ops as B
from .tuning import MeasurementCache, host_fingerprint

__all__ = [
    "ConvSignature", "ConvPlan", "plan_conv", "clear_plan_cache",
    "plan_cache_info", "set_conv_plan_mode", "get_conv_plan_mode",
    "run_conv_forward", "run_conv_backward",
    "ConvTransposePlan", "plan_conv_transpose",
    "run_conv_transpose_forward", "run_conv_transpose_backward",
    "host_fingerprint", "autotune_cache_path", "set_autotune_cache_path",
    "autotune_table", "clear_autotune_table", "save_autotune_table",
]

# Heuristic thresholds (see _decide): taps = prod(kernel).
IM2COL_MAX_TAPS = 64            # above: too many offsets, patch blows up
IM2COL_MIN_GEMM_COLS = 16       # below: Cin*taps GEMM too thin to pay for the copy
IM2COL_THIN_GEMM_COLS = 32      # at/below: per-offset GEMMs are so thin that
#                                 im2col wins even for non-resident patches
IM2COL_CACHE_PATCH_BYTES = 384 << 10  # patch must stay cache-resident (384 KiB)
#                                     unless the thin-GEMM rescue applies
IM2COL_MAX_PATCH_BYTES = 1 << 28    # 256 MiB absolute patch-matrix ceiling

_VALID_MODES = ("auto", "im2col", "tensordot", "autotune")
_mode = os.environ.get("REPRO_CONV_PLAN", "auto")
if _mode not in _VALID_MODES:  # pragma: no cover - env misconfiguration
    _mode = "auto"

_CACHE_LOCK = threading.Lock()
_PLAN_CACHE: dict[tuple, "ConvPlan"] = {}
_cache_hits = 0
_cache_misses = 0


def set_conv_plan_mode(mode: str) -> None:
    """Force a conv path globally: 'auto' (default), 'im2col', 'tensordot'."""
    global _mode
    if mode not in _VALID_MODES:
        raise ValueError(f"mode must be one of {_VALID_MODES}, got {mode!r}")
    _mode = mode


def get_conv_plan_mode() -> str:
    return _mode


def clear_plan_cache() -> None:
    global _cache_hits, _cache_misses
    with _CACHE_LOCK:
        _PLAN_CACHE.clear()
        _cache_hits = _cache_misses = 0


def plan_cache_info() -> dict[str, int]:
    with _CACHE_LOCK:
        return {"hits": _cache_hits, "misses": _cache_misses,
                "size": len(_PLAN_CACHE)}


# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ConvSignature:
    """Everything the planner needs to know about one conv call."""

    x_shape: tuple[int, ...]      # unpadded input (N, Cin, *spatial)
    w_shape: tuple[int, ...]      # (Cout, Cin, *kernel)
    stride: tuple[int, ...]
    padding: tuple[int, ...]
    dtype: str

    @property
    def kernel(self) -> tuple[int, ...]:
        return self.w_shape[2:]

    @property
    def taps(self) -> int:
        return math.prod(self.kernel)

    @property
    def padded_spatial(self) -> tuple[int, ...]:
        return tuple(s + 2 * p for s, p in zip(self.x_shape[2:], self.padding))

    @property
    def out_spatial(self) -> tuple[int, ...]:
        return tuple((s - k) // st + 1 for s, k, st in
                     zip(self.padded_spatial, self.kernel, self.stride))

    @property
    def patch_bytes(self) -> int:
        n, cin = self.x_shape[0], self.w_shape[1]
        itemsize = np.dtype(self.dtype).itemsize
        return n * math.prod(self.out_spatial) * cin * self.taps * itemsize


@dataclass(frozen=True)
class ConvPlan:
    """A memoized execution decision for one conv signature.

    ``path`` drives the forward pass.  ``backward_path`` may differ: the
    autotuner times the two directions separately (the backward's
    col2im scatter and dW contraction have their own crossover points);
    heuristic and forced modes keep both directions on one engine.
    """

    signature: ConvSignature
    path: str                     # 'im2col' | 'tensordot'
    reason: str
    backward_path: str | None = None  # None: same engine as forward


def _decide(sig: ConvSignature, mode: str) -> tuple[str, str]:
    if mode != "auto":
        return mode, f"forced by mode={mode!r}"
    taps = sig.taps
    cin = sig.w_shape[1]
    if taps == 1:
        return "tensordot", "1x1 kernel is already a single GEMM"
    if taps > IM2COL_MAX_TAPS:
        return "tensordot", f"kernel taps {taps} > {IM2COL_MAX_TAPS}"
    if cin * taps < IM2COL_MIN_GEMM_COLS:
        return "tensordot", (
            f"GEMM width Cin*taps={cin * taps} < {IM2COL_MIN_GEMM_COLS}")
    if sig.patch_bytes > IM2COL_MAX_PATCH_BYTES:
        return "tensordot", (
            f"patch matrix {sig.patch_bytes >> 20} MiB exceeds ceiling")
    if (sig.patch_bytes > IM2COL_CACHE_PATCH_BYTES
            and cin * taps > IM2COL_THIN_GEMM_COLS):
        # The patch copy leaves cache and the per-offset GEMMs are wide
        # enough to feed BLAS — the copy would be pure overhead.
        return "tensordot", (
            f"patch matrix {sig.patch_bytes >> 10} KiB not cache-resident "
            f"and GEMM width {cin * taps} is BLAS-friendly")
    return "im2col", (
        f"small kernel ({taps} taps), GEMM width {cin * taps}, "
        f"patch {sig.patch_bytes >> 10} KiB")


# --------------------------------------------------------------------- #
# Measured autotuning: time both engines once per signature, persist the
# winner keyed by host fingerprint.
# --------------------------------------------------------------------- #

AUTOTUNE_REPEATS = 3                  # best-of-N timing per engine
AUTOTUNE_MAX_BYTES = 1 << 27          # skip timing above 128 MiB of input:
#                                       a single probe would thrash memory,
#                                       and the heuristic is reliable there

_MEASURE_LOCK = threading.Lock()      # serializes engine timing only:
#                                       concurrent probes would perturb
#                                       each other's measurements, but
#                                       table lookups for already-known
#                                       signatures must never wait on a
#                                       seconds-long timing run

# The persisted measured-decision table: host-fingerprinted JSON managed
# by the shared autotuner seam (repro.backend.tuning).  Memoized plans
# may reference stale decisions when the table moves, hence the
# invalidation hook.
_MEASUREMENTS = MeasurementCache(
    default_path=Path.home() / ".cache" / "repro" / "conv_autotune.json",
    env_var="REPRO_AUTOTUNE_CACHE",
    on_invalidate=lambda: clear_plan_cache())


def autotune_cache_path() -> Path:
    """Where the measured decision table lives on disk."""
    return _MEASUREMENTS.path()


def set_autotune_cache_path(path: str | os.PathLike | None) -> None:
    """Override the persisted-table location (None restores the default)."""
    _MEASUREMENTS.set_path(path)


def save_autotune_table() -> Path | None:
    """Persist pending measured decisions (atomic write); returns the
    path written, or None when nothing changed."""
    return _MEASUREMENTS.save()


def autotune_table() -> dict[str, dict]:
    """Snapshot of this host's measured decisions (sig key -> record)."""
    return _MEASUREMENTS.snapshot()


def clear_autotune_table(memory_only: bool = False) -> None:
    """Drop the in-memory table (and, unless ``memory_only``, the file).

    ``memory_only=True`` simulates a process restart: the next autotuned
    plan reloads the persisted table from disk.
    """
    _MEASUREMENTS.clear(memory_only=memory_only)


def _sig_key(sig: ConvSignature) -> str:
    return (f"x{sig.x_shape}w{sig.w_shape}"
            f"s{sig.stride}p{sig.padding}{sig.dtype}")


def _time_engines(sig: ConvSignature) -> dict[str, float]:
    """Best-of-N wall times of both engines, both directions.

    Forward and backward are timed separately because the plan serves
    both: a forward win (e.g. im2col's single fat GEMM) can coexist with
    a backward loss (its col2im scatter), and training epochs are
    backward-heavy while serving never runs one.
    """
    rng = np.random.default_rng(0)
    dtype = np.dtype(sig.dtype)
    n, cin = sig.x_shape[:2]
    cout = sig.w_shape[0]
    xp = rng.standard_normal((n, cin) + sig.padded_spatial).astype(dtype)
    w = rng.standard_normal(sig.w_shape).astype(dtype)
    out_spatial = sig.out_spatial
    gmoved = rng.standard_normal((n,) + out_spatial + (cout,)).astype(dtype)

    def best(run) -> float:
        run()                                           # warm-up
        t = math.inf
        for _ in range(AUTOTUNE_REPEATS):
            t0 = time.perf_counter()
            run()
            t = min(t, time.perf_counter() - t0)
        return t

    return {
        "fwd_tensordot": best(
            lambda: _forward_tensordot(xp, w, sig.stride, out_spatial)),
        "fwd_im2col": best(
            lambda: _forward_im2col(xp, w, sig.stride, out_spatial)),
        "bwd_tensordot": best(
            lambda: _backward_tensordot(xp, w, gmoved, sig.stride,
                                        out_spatial)),
        "bwd_im2col": best(
            lambda: _backward_im2col(xp, w, gmoved, sig.stride,
                                     out_spatial)),
    }


def _decide_autotune(sig: ConvSignature) -> tuple[str, str, str | None]:
    key = _sig_key(sig)
    rec = _MEASUREMENTS.get(key)
    if rec is None:
        rec = _measure_signature(sig, key)
    if rec.get("measured"):
        t = rec["times"]
        reason = (
            f"autotuned: fwd td {t['fwd_tensordot'] * 1e3:.2f} / i2c "
            f"{t['fwd_im2col'] * 1e3:.2f} ms, bwd td "
            f"{t['bwd_tensordot'] * 1e3:.2f} / i2c "
            f"{t['bwd_im2col'] * 1e3:.2f} ms")
        return rec["path"], reason, rec.get("backward_path")
    return rec["path"], f"autotune fallback: {rec['reason']}", None


def _measure_signature(sig: ConvSignature, key: str) -> dict:
    heuristic_path, heuristic_reason = _decide(sig, "auto")
    input_bytes = (math.prod(sig.x_shape[:2]) * math.prod(sig.padded_spatial)
                   * np.dtype(sig.dtype).itemsize)
    if sig.taps == 1 or input_bytes > AUTOTUNE_MAX_BYTES \
            or sig.patch_bytes > IM2COL_MAX_PATCH_BYTES:
        # Not worth (or not safe) to probe: trust the heuristic, but
        # record the decision so restarts skip this signature too.
        return _MEASUREMENTS.setdefault(
            key, {"path": heuristic_path, "measured": False,
                  "reason": heuristic_reason})
    with _MEASURE_LOCK:
        # Re-check after acquiring: another thread may have finished
        # measuring this signature while we waited for its probe.
        existing = _MEASUREMENTS.get(key)
        if existing is not None:
            return existing
        times = _time_engines(sig)
    return _MEASUREMENTS.setdefault(key, {
        "path": ("im2col" if times["fwd_im2col"]
                 < times["fwd_tensordot"] else "tensordot"),
        "backward_path": ("im2col" if times["bwd_im2col"]
                          < times["bwd_tensordot"]
                          else "tensordot"),
        "measured": True, "times": times,
        "heuristic": heuristic_path,
    })


def plan_conv(x_shape, w_shape, stride, padding, dtype) -> ConvPlan:
    """Return the (memoized) execution plan for a conv signature."""
    global _cache_hits, _cache_misses
    sig = ConvSignature(tuple(x_shape), tuple(w_shape), tuple(stride),
                        tuple(padding), np.dtype(dtype).str)
    mode = _mode
    key = (sig, mode)
    with _CACHE_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _cache_hits += 1
            return plan
        _cache_misses += 1
    backward_path = None
    if mode == "autotune":
        path, reason, backward_path = _decide_autotune(sig)
    else:
        path, reason = _decide(sig, mode)
    plan = ConvPlan(signature=sig, path=path, reason=reason,
                    backward_path=backward_path)
    with _CACHE_LOCK:
        _PLAN_CACHE[key] = plan
    return plan


# --------------------------------------------------------------------- #
# Execution engines.  ``xp`` is the already-padded input (N, Cin, *Sp);
# both engines return the channels-first output (N, Cout, *So) and must
# agree numerically (asserted by the parity tests).
# --------------------------------------------------------------------- #

def _offset_slices(offset, out_spatial, stride):
    return tuple(slice(o, o + (so - 1) * st + 1, st)
                 for o, so, st in zip(offset, out_spatial, stride))


def _forward_tensordot(xp, w, stride, out_spatial):
    n = xp.shape[0]
    cout = w.shape[0]
    kernel = w.shape[2:]
    # Accumulate in channels-last layout so each offset is one GEMM.
    acc = B.zeros((n, *out_spatial, cout), dtype=xp.dtype)
    for offset in product(*(range(k) for k in kernel)):
        sl = _offset_slices(offset, out_spatial, stride)
        xs = xp[(slice(None), slice(None)) + sl]        # (N, Cin, *So)
        wo = w[(slice(None), slice(None)) + offset]      # (Cout, Cin)
        acc += B.tensordot(xs, wo, axes=([1], [1]))      # (N, *So, Cout)
    return B.moveaxis(acc, -1, 1)


def _strided_windows(xp, kernel, stride, nd):
    """Strided window view (N, Cin, *So, *K) of the padded input."""
    win = B.sliding_window_view(xp, kernel, axis=tuple(range(2, 2 + nd)))
    if any(st > 1 for st in stride):
        win = win[(slice(None), slice(None))
                  + tuple(slice(None, None, st) for st in stride)]
    return win


def _forward_im2col(xp, w, stride, out_spatial):
    nd = xp.ndim - 2
    n, cin = xp.shape[:2]
    cout = w.shape[0]
    kernel = w.shape[2:]
    taps = math.prod(kernel)
    win = _strided_windows(xp, kernel, stride, nd)
    # (N, *So, Cin, *K): one contiguous copy into a pooled patch matrix.
    perm = (0,) + tuple(range(2, 2 + nd)) + (1,) + tuple(range(2 + nd, 2 + 2 * nd))
    patches = win.transpose(perm)
    rows = n * math.prod(out_spatial)
    cols = cin * taps
    pool = get_backend().pool
    mat = pool.acquire((rows, cols), xp.dtype)
    B.copyto(mat.reshape(patches.shape), patches)
    out = B.matmul(mat, w.reshape(cout, cols).T)         # (rows, Cout)
    pool.release(mat)
    return B.moveaxis(out.reshape((n,) + tuple(out_spatial) + (cout,)), -1, 1)


def run_conv_forward(plan: ConvPlan, xp, w, stride, out_spatial):
    """Execute the planned forward pass on a padded input."""
    if plan.path == "im2col":
        return _forward_im2col(xp, w, stride, out_spatial)
    return _forward_tensordot(xp, w, stride, out_spatial)


# --------------------------------------------------------------------- #
def _backward_tensordot(xp, w, gmoved, stride, out_spatial):
    nd = len(out_spatial)
    kernel = w.shape[2:]
    dxp = B.zeros_like(xp)
    dw = B.zeros_like(w)
    contract_axes = [0] + list(range(1, 1 + nd))          # N + spatial of gmoved
    xs_axes = [0] + list(range(2, 2 + nd))                # N + spatial of xs
    for offset in product(*(range(k) for k in kernel)):
        sl = _offset_slices(offset, out_spatial, stride)
        idx = (slice(None), slice(None)) + sl
        xs = xp[idx]
        wo = w[(slice(None), slice(None)) + offset]
        dw[(slice(None), slice(None)) + offset] = B.tensordot(
            gmoved, xs, axes=(contract_axes, xs_axes))
        dxs = B.tensordot(gmoved, wo, axes=([nd + 1], [0]))
        dxp[idx] += B.moveaxis(dxs, -1, 1)
    return dxp, dw


def _backward_im2col(xp, w, gmoved, stride, out_spatial):
    nd = len(out_spatial)
    n, cin = xp.shape[:2]
    cout = w.shape[0]
    kernel = w.shape[2:]
    taps = math.prod(kernel)
    rows = n * math.prod(out_spatial)
    cols = cin * taps
    win = _strided_windows(xp, kernel, stride, nd)        # (N, Cin, *So, *K)

    # dW in one contraction over batch+spatial — the im2col GEMM of the
    # backward pass (tensordot materializes the patch matrix internally).
    dw = B.tensordot(
        gmoved, win,
        axes=(tuple(range(0, 1 + nd)), (0,) + tuple(range(2, 2 + nd)))
    ).reshape(w.shape)                                    # (Cout, Cin, *K)

    # dX: one big GEMM into a pooled column buffer, then col2im scatter.
    pool = get_backend().pool
    dcols = pool.acquire((rows, cols), xp.dtype)
    B.matmul(gmoved.reshape(rows, cout), w.reshape(cout, cols), out=dcols)
    dpat = B.moveaxis(
        dcols.reshape((n,) + tuple(out_spatial) + (cin,) + tuple(kernel)),
        1 + nd, 1)                                        # (N, Cin, *So, *K)
    dxp = B.zeros_like(xp)
    for offset in product(*(range(k) for k in kernel)):
        sl = _offset_slices(offset, out_spatial, stride)
        dxp[(slice(None), slice(None)) + sl] += dpat[
            (slice(None), slice(None)) + (slice(None),) * nd + offset]
    pool.release(dcols)
    return dxp, dw


def run_conv_backward(plan: ConvPlan, xp, w, gmoved, stride, out_spatial):
    """Execute the planned backward pass; returns ``(dxp, dw)``."""
    path = plan.backward_path or plan.path
    if path == "im2col":
        return _backward_im2col(xp, w, gmoved, stride, out_spatial)
    return _backward_tensordot(xp, w, gmoved, stride, out_spatial)


# --------------------------------------------------------------------- #
# Transposed convolution: output-scatter GEMM plan.
#
# The composed path (zero-stuff by the stride, pad, flip, stride-1 conv)
# materializes a zero-stuffed input ~stride^d times the original and
# then convolves mostly-zero data.  The scatter plan skips it entirely:
# contract input channels against the whole kernel once (or per tap),
# then scatter-add each tap's contribution into the output at offset
# slices of step ``stride`` — writes touch exactly the nonzero work.
# ``tests/backend/test_conv_transpose_plan.py`` keeps the composed path
# as the parity reference.
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConvTransposePlan:
    """Memoized execution decision for one conv-transpose signature.

    ``path`` selects how the channel contraction is staged:

    * ``'gemm'`` — one ``tensordot(x, w)`` over Cin producing the full
      ``(N, *S, Cout, *K)`` tap tensor, then k^d scatter-adds.  Fastest
      when the tap tensor fits comfortably in memory.
    * ``'tap'``  — k^d thin per-tap GEMMs, O(input) peak memory; the
      megavoxel-safe choice when the tap tensor would exceed the same
      patch ceiling the im2col planner respects.
    """

    x_shape: tuple[int, ...]
    w_shape: tuple[int, ...]
    stride: tuple[int, ...]
    padding: tuple[int, ...]
    output_padding: tuple[int, ...]
    path: str
    reason: str


def plan_conv_transpose(x_shape, w_shape, stride, padding, output_padding,
                        dtype) -> ConvTransposePlan:
    """Return the (memoized) scatter plan for a conv-transpose call."""
    global _cache_hits, _cache_misses
    key = ("convT", tuple(x_shape), tuple(w_shape), tuple(stride),
           tuple(padding), tuple(output_padding), np.dtype(dtype).str)
    with _CACHE_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _cache_hits += 1
            return plan
        _cache_misses += 1
    n = x_shape[0]
    cout = w_shape[1]
    taps = math.prod(w_shape[2:])
    tap_bytes = (n * math.prod(x_shape[2:]) * cout * taps
                 * np.dtype(dtype).itemsize)
    if tap_bytes > IM2COL_MAX_PATCH_BYTES:
        path, reason = "tap", (
            f"tap tensor {tap_bytes >> 20} MiB exceeds patch ceiling")
    else:
        path, reason = "gemm", (
            f"tap tensor {tap_bytes >> 10} KiB, single contraction")
    plan = ConvTransposePlan(
        x_shape=tuple(x_shape), w_shape=tuple(w_shape),
        stride=tuple(stride), padding=tuple(padding),
        output_padding=tuple(output_padding), path=path, reason=reason)
    with _CACHE_LOCK:
        _PLAN_CACHE[key] = plan
    return plan


def _convt_full_spatial(plan: ConvTransposePlan) -> tuple[int, ...]:
    """Scatter extent before the padding crop: (S-1)*st + k + op."""
    return tuple((s - 1) * st + k + op for s, st, k, op in zip(
        plan.x_shape[2:], plan.stride, plan.w_shape[2:],
        plan.output_padding))


def _convt_scatter_slices(offset, spatial, stride):
    """Output slices hit by one kernel tap: start=offset, step=stride."""
    return tuple(slice(o, o + (s - 1) * st + 1, st)
                 for o, s, st in zip(offset, spatial, stride))


def run_conv_transpose_forward(plan: ConvTransposePlan, x, w):
    """Output-scatter transposed convolution: returns (N, Cout, *So).

    ``x`` is (N, Cin, *S), ``w`` is (Cin, Cout, *K).  No zero-stuffed
    intermediate exists at any point.
    """
    n = x.shape[0]
    cout = w.shape[1]
    kernel = w.shape[2:]
    spatial = x.shape[2:]
    full = _convt_full_spatial(plan)
    # Accumulate channels-last so each tap scatter is one strided block.
    acc = np.zeros((n,) + full + (cout,), dtype=x.dtype)
    if plan.path == "gemm":
        cols = B.tensordot(x, w, axes=([1], [0]))
        # cols: (N, *S, Cout, *K)
        for offset in product(*(range(k) for k in kernel)):
            sl = _convt_scatter_slices(offset, spatial, plan.stride)
            acc[(slice(None),) + sl] += cols[(Ellipsis,) + offset]
    else:
        for offset in product(*(range(k) for k in kernel)):
            wo = w[(slice(None), slice(None)) + offset]     # (Cin, Cout)
            tap = B.tensordot(x, wo, axes=([1], [0]))
            sl = _convt_scatter_slices(offset, spatial, plan.stride)
            acc[(slice(None),) + sl] += tap                  # (N, *S, Cout)
    out = np.moveaxis(acc, -1, 1)
    crop = tuple(slice(p, fs - p) for p, fs in zip(plan.padding, full))
    return np.ascontiguousarray(out[(slice(None), slice(None)) + crop])


def run_conv_transpose_backward(plan: ConvTransposePlan, x, w, grad):
    """Gradients of the scatter forward; returns ``(dx, dw)``.

    The data gradient of a transposed convolution is a *forward*
    convolution of the (re-padded) output gradient with the same weights
    — so it reuses the planned conv engines.  The weight gradient is one
    contraction of the input against strided windows of the padded
    gradient.
    """
    nd = x.ndim - 2
    kernel = w.shape[2:]
    spatial = x.shape[2:]
    if any(plan.padding):
        padw = ((0, 0), (0, 0)) + tuple((p, p) for p in plan.padding)
        gp = np.pad(grad, padw)
    else:
        gp = grad
    # dx: conv of gp with w (layout (Cin, Cout, *K) is exactly the conv
    # weight layout with Cout_conv = Cin), same stride, zero padding.
    conv_plan_ = plan_conv(gp.shape, w.shape, plan.stride,
                           (0,) * nd, grad.dtype)
    dx = run_conv_forward(conv_plan_, gp, w, plan.stride, spatial)
    # dw[ci, co, o] = sum_{n,i} x[n,ci,i] * gp[n,co, st*i + o].
    win = _strided_windows(gp, kernel, plan.stride, nd)  # (N, Cout, *S, *K)
    axes = ((0,) + tuple(range(2, 2 + nd)),
            (0,) + tuple(range(2, 2 + nd)))
    dw = B.tensordot(x, win, axes=axes)                  # (Cin, Cout, *K)
    return dx, dw
