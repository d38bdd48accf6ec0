"""Planning conv engine: choose *how* to execute each convolution.

Two engines, chosen per (shape, kernel, stride) signature:

* **flat grid** — every stride-1 conv.  The padded input is flattened to
  ``(N, Cin, P)``, so kernel tap ``t`` is a fixed shift ``s_t`` of the
  flat index and its operand ``xf[:, :, s_t:s_t + L]`` is a contiguous
  view.  Forward (``out += W_t @ x_shift``), dW (``dW_t = sum_n g_flat @
  x_shift^T``) and dX (``dx[:, :, s_t:s_t + L] += W_t^T @ g_flat``) are
  plain ``matmul`` calls in the channels-first layout: no patch matrix,
  no transposition, scratch O(input + output).  Positions that wrap
  around the trailing padded axes are computed and cropped away
  (``Hp*Wp / (H*W)``, 1.13x at 32^3).  Every stage works one cache-sized
  block of ``FLAT_BLOCK_COLS`` flat columns at a time.  Staging: per-tap
  GEMMs when ``Cin * taps`` is wide; tap-stacked (im2col on the flat
  grid, contiguous row copies into one pooled block) when it is narrow —
  the single-channel input conv, the FEM stencils — or the problem tiny.
* **per-offset tensordot** — strided convs (``2^d``/s2 downsampling, the
  data gradient of a strided transposed conv), O(input) peak memory.

Both return C-contiguous outputs.  Plans are memoized per signature, so
the training loop pays a dict lookup.  ``REPRO_CONV_PLAN`` (or
:func:`set_conv_plan_mode`) forces ``flat`` / ``tensordot`` on the
stride-1 convs — the parity tests drive both engines that way.

**Measured autotuning** (mode ``autotune``) times both engines on first
sight of a stride-1 signature (warm-up plus best-of-N, forward and
backward separately) and persists the winners in a JSON table keyed by
host fingerprint (``REPRO_AUTOTUNE_CACHE`` or
``~/.cache/repro/conv_autotune.json``), so restarts skip re-timing.
Strided, 1x1 and too-large signatures keep the heuristic, recorded so
they are not re-examined.  A record that names a removed engine or
lacks a live engine's timing reads as a miss and is measured again.
"""

from __future__ import annotations

import math
import os
import threading
import timeit
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

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

FLAT_STACK_MAX_ROWS = 32        # Cin*taps at/below: tap-stacked blocks
FLAT_STACK_MAX_BYTES = 1 << 20  # whole stacked matrix at/below: same
FLAT_BLOCK_COLS = 4096          # flat columns per block, every stage
TAP_TENSOR_MAX_BYTES = 1 << 28  # 256 MiB ceiling on a transposed conv's
#                                 full tap tensor (plan_conv_transpose)

_ENGINES = ("flat", "tensordot")
_VALID_MODES = ("auto", "autotune") + _ENGINES
_mode = os.environ.get("REPRO_CONV_PLAN", "auto")
if _mode not in _VALID_MODES:  # pragma: no cover - env misconfiguration
    _mode = "auto"

_CACHE_LOCK = threading.Lock()
_PLAN_CACHE: dict[tuple, "ConvPlan"] = {}
_cache_hits = 0
_cache_misses = 0


def set_conv_plan_mode(mode: str) -> None:
    """Force a conv path globally: 'auto' (default), 'flat', 'tensordot'
    or 'autotune'."""
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


@dataclass(frozen=True)
class ConvPlan:
    """A memoized execution decision for one conv signature.

    ``path`` drives the forward pass.  ``backward_path`` may differ: the
    autotuner times the two directions separately; heuristic and forced
    modes keep both directions on one engine.  ``layout`` is the flat
    geometry and staging of a stride-1 signature (None when strided).
    """

    signature: ConvSignature
    path: str                     # 'flat' | 'tensordot'
    reason: str
    backward_path: str | None = None  # None: same engine as forward
    layout: "_FlatLayout | None" = None


class _FlatLayout(NamedTuple):
    strides: tuple[int, ...]   # flat strides of the padded grid
    shifts: tuple[int, ...]    # flat shift of every kernel tap
    length: int                # L: one past the last valid output
    stacked: bool              # staging: tap-stacked blocks vs per tap


def _flat_layout(sig: ConvSignature) -> _FlatLayout | None:
    """Flat-grid geometry of a stride-1 signature, and the staging rule:
    stack the taps into one GEMM when ``Cin * taps`` is too narrow to
    feed per-tap GEMMs, or when the whole stacked matrix is so small
    that per-tap call overhead would dominate."""
    if any(st != 1 for st in sig.stride):
        return None
    (n, cin), padded, kernel = sig.x_shape[:2], sig.padded_spatial, sig.kernel
    strides = tuple(math.prod(padded[d + 1:]) for d in range(len(padded)))
    shifts = tuple(sum(o * s for o, s in zip(offset, strides))
                   for offset in _offsets(kernel))
    length = 1 + sum((p - k) * s for p, k, s in zip(padded, kernel, strides))
    rows = cin * sig.taps
    stacked = sig.taps > 1 and (
        rows <= FLAT_STACK_MAX_ROWS or n * rows * length
        * np.dtype(sig.dtype).itemsize <= FLAT_STACK_MAX_BYTES)
    return _FlatLayout(strides, shifts, length, stacked)


def _decide(sig: ConvSignature, mode: str) -> tuple[str, str]:
    layout = _flat_layout(sig)
    if layout is None:
        return "tensordot", f"stride {sig.stride}: per-offset tensordot"
    if mode in _ENGINES:
        return mode, f"forced by mode={mode!r}"
    return "flat", ("stride 1: " + ("tap-stacked" if layout.stacked
                                    else "per-tap") + " flat grid")


# ---- measured autotuning: time both engines once per stride-1
# signature, persist the winners keyed by host fingerprint.

AUTOTUNE_REPEATS = 3                  # best-of-N timing per engine
AUTOTUNE_MAX_BYTES = 1 << 27          # skip timing above 128 MiB of input:
#                                       a single probe would thrash memory
_TIME_KEYS = frozenset(f"{d}_{e}" for d in ("fwd", "bwd") for e in _ENGINES)

# Serializes engine timing only: concurrent probes would perturb each
# other, but lookups of known signatures must never wait on a probe.
_MEASURE_LOCK = threading.Lock()


def _is_current(rec: dict) -> bool:
    """A persisted record is usable when it names only live engines and,
    if measured, carries a timing for every one of them."""
    paths = {rec.get("path"), rec.get("backward_path") or rec.get("path")}
    return paths <= set(_ENGINES) and (
        not rec.get("measured") or _TIME_KEYS <= set(rec.get("times", ())))


# The persisted table lives in the shared autotuner seam
# (repro.backend.tuning); memoized plans follow it when it moves.
_MEASUREMENTS = MeasurementCache(
    default_path=Path.home() / ".cache" / "repro" / "conv_autotune.json",
    env_var="REPRO_AUTOTUNE_CACHE",
    on_invalidate=lambda: clear_plan_cache(),
    is_current=_is_current)


# The public table API: where it lives, moving it (None restores the
# default), persisting pending decisions, a snapshot of this host's
# records, and dropping them (``memory_only=True`` simulates a restart).
autotune_cache_path = _MEASUREMENTS.path
set_autotune_cache_path = _MEASUREMENTS.set_path
save_autotune_table = _MEASUREMENTS.save
autotune_table = _MEASUREMENTS.snapshot
clear_autotune_table = _MEASUREMENTS.clear


def _sig_key(sig: ConvSignature) -> str:
    return (f"x{sig.x_shape}w{sig.w_shape}"
            f"s{sig.stride}p{sig.padding}{sig.dtype}")


def _time_engines(sig: ConvSignature) -> dict[str, float]:
    """Best-of-N wall times of both engines, forward and backward apart:
    training is backward-heavy while serving never runs one."""
    rng = np.random.default_rng(0)
    xp, w, grad = (rng.standard_normal(shape).astype(sig.dtype) for shape in (
        sig.x_shape[:2] + sig.padded_spatial, sig.w_shape,
        (sig.x_shape[0], sig.w_shape[0]) + sig.out_spatial))
    times = {}
    for engine in _ENGINES:
        plan = ConvPlan(sig, engine, "autotune probe", None, _flat_layout(sig))
        for direction, run in (
                ("fwd", lambda: run_conv_forward(
                    plan, xp, w, sig.stride, sig.out_spatial)),
                ("bwd", lambda: run_conv_backward(
                    plan, xp, w, grad, sig.stride, sig.out_spatial))):
            run()                                           # warm-up
            times[f"{direction}_{engine}"] = min(timeit.repeat(
                run, repeat=AUTOTUNE_REPEATS, number=1))
    return times


def _decide_autotune(sig: ConvSignature) -> tuple[str, str, str | None]:
    key = _sig_key(sig)
    rec = _MEASUREMENTS.get(key) or _measure_signature(sig, key)
    if not rec.get("measured"):
        return rec["path"], f"autotune fallback: {rec['reason']}", None
    t = {k: f"{v * 1e3:.2f}" for k, v in rec["times"].items()}
    return rec["path"], (
        f"autotuned: fwd flat {t['fwd_flat']} / td {t['fwd_tensordot']} ms, "
        f"bwd flat {t['bwd_flat']} / td {t['bwd_tensordot']} ms"
    ), rec.get("backward_path")


def _measure_signature(sig: ConvSignature, key: str) -> dict:
    heuristic_path, heuristic_reason = _decide(sig, "auto")
    input_bytes = (math.prod(sig.x_shape[:2]) * math.prod(sig.padded_spatial)
                   * np.dtype(sig.dtype).itemsize)
    if (heuristic_path != "flat" or sig.taps == 1
            or input_bytes > AUTOTUNE_MAX_BYTES):
        # Nothing to choose (strided, 1x1) or not safe to probe: trust
        # the heuristic, but record it so restarts skip this signature.
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
        "path": min(_ENGINES, key=lambda e: times[f"fwd_{e}"]),
        "backward_path": min(_ENGINES, key=lambda e: times[f"bwd_{e}"]),
        "measured": True, "times": times, "heuristic": heuristic_path})


def _cached(key, build):
    """Memoize ``build()`` under ``key`` in the shared plan cache."""
    global _cache_hits, _cache_misses
    with _CACHE_LOCK:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            _cache_hits += 1
            return plan
        _cache_misses += 1
    plan = build()
    with _CACHE_LOCK:
        _PLAN_CACHE[key] = plan
    return plan


def plan_conv(x_shape, w_shape, stride, padding, dtype) -> ConvPlan:
    """Return the (memoized) execution plan for a conv signature."""
    sig = ConvSignature(tuple(x_shape), tuple(w_shape), tuple(stride),
                        tuple(padding), np.dtype(dtype).str)
    mode = _mode

    def build() -> ConvPlan:
        if mode == "autotune":
            path, reason, backward_path = _decide_autotune(sig)
        else:
            (path, reason), backward_path = _decide(sig, mode), None
        return ConvPlan(sig, path, reason, backward_path, _flat_layout(sig))

    return _cached((sig, mode), build)


# ---- execution: ``xp`` is the padded input (N, Cin, *Sp); both engines
# return the C-contiguous output (N, Cout, *So) and agree numerically.

def _engine(path: str) -> str:
    if path in _ENGINES:
        return path
    raise ValueError(
        f"unknown conv engine {path!r}; expected one of {_ENGINES}")


def run_conv_forward(plan: ConvPlan, xp, w, stride, out_spatial):
    """Execute the planned forward pass on a padded input."""
    if _engine(plan.path) == "flat":
        return _forward_flat(xp, w, out_spatial, plan.layout)
    return _forward_tensordot(xp, w, stride, out_spatial)


def run_conv_backward(plan: ConvPlan, xp, w, grad, stride, out_spatial,
                      need_dx: bool = True, need_dw: bool = True):
    """Execute the planned backward pass for the channels-first output
    gradient; returns ``(dxp, dw)``, ``None`` for a gradient not needed."""
    if _engine(plan.backward_path or plan.path) == "flat":
        return _backward_flat(xp, w, grad, out_spatial, plan.layout,
                              need_dx, need_dw)
    return _backward_tensordot(xp, w, grad, stride, out_spatial,
                               need_dx, need_dw)


# ---- per-offset tensordot (strided convs) --------------------------- #

def _offsets(kernel):
    return product(*(range(k) for k in kernel))


def _offset_slices(offset, spatial, stride):
    """(N, C, ...) index of the ``spatial`` points one kernel tap touches:
    start ``offset``, step ``stride``."""
    return (slice(None), slice(None)) + tuple(
        slice(o, o + (s - 1) * st + 1, st)
        for o, s, st in zip(offset, spatial, stride))


def _forward_tensordot(xp, w, stride, out_spatial):
    # Accumulate in channels-last layout so each offset is one GEMM.
    acc = B.zeros((xp.shape[0], *out_spatial, w.shape[0]),
                  dtype=np.result_type(xp, w))
    for offset in _offsets(w.shape[2:]):
        xs = xp[_offset_slices(offset, out_spatial, stride)]  # (N, Cin, *So)
        acc += B.tensordot(xs, w[(Ellipsis,) + offset], axes=([1], [1]))
    return B.ascontiguousarray(B.moveaxis(acc, -1, 1))


def _backward_tensordot(xp, w, grad, stride, out_spatial, need_dx, need_dw):
    nd = len(out_spatial)
    gmoved = B.moveaxis(grad, 1, -1)                     # (N, *So, Cout)
    dxp = B.zeros_like(xp) if need_dx else None
    dw = B.zeros_like(w) if need_dw else None
    for offset in _offsets(w.shape[2:]):
        idx = _offset_slices(offset, out_spatial, stride)
        if need_dw:       # contract N and spatial of gmoved and the slice
            dw[(Ellipsis,) + offset] = B.tensordot(gmoved, xp[idx], axes=(
                [0, *range(1, 1 + nd)], [0, *range(2, 2 + nd)]))
        if need_dx:
            dxp[idx] += B.moveaxis(B.tensordot(
                gmoved, w[(Ellipsis,) + offset], axes=([nd + 1], [0])), -1, 1)
    return dxp, dw


# ---- flat grid (stride-1 convs) ------------------------------------- #

def _blocks(length):
    """``(j0, width)`` over cache-sized blocks of the flat columns."""
    for j0 in range(0, length, FLAT_BLOCK_COLS):
        yield j0, min(FLAT_BLOCK_COLS, length - j0)


def _tap_blocks(xf, kernel, lay):
    """Yield ``(j0, cols)`` per block: ``cols`` is the ``(N, Cin*taps,
    width)`` im2col block of the flat grid, rows ordered ``(Cin, *K)``
    like a reshaped weight.  Every row is a contiguous run of ``xf``, so
    one strided copy fills the block.  The pooled buffer is reused: each
    block must be consumed before the next is requested."""
    n, cin = xf.shape[:2]
    pool = get_backend().pool
    buf = pool.acquire((n, cin * len(lay.shifts),
                        min(FLAT_BLOCK_COLS, lay.length)), xf.dtype)
    rows = buf.reshape((n, cin) + tuple(kernel) + buf.shape[-1:])
    row_strides = xf.strides[:2] + tuple(
        s * xf.itemsize for s in lay.strides) + (xf.itemsize,)
    try:
        for j0, width in _blocks(lay.length):
            B.copyto(rows[..., :width], as_strided(
                xf[:, :, j0:], rows.shape[:-1] + (width,), row_strides,
                writeable=False))
            yield j0, buf[:, :, :width]
    finally:
        pool.release(buf)


def _tap_weights(w):
    """(Cout, Cin, *K) -> contiguous (taps, Cout, Cin): one GEMM per tap."""
    return B.ascontiguousarray(B.moveaxis(w.reshape(*w.shape[:2], -1), 2, 0))


def _flat_grid(n, c, out_spatial, padded):
    """Shape of a flat-grid result (the valid extent of the leading axis,
    the padded extent of the others: >= L flat columns), the index of its
    valid outputs, and whether any flat position wraps around."""
    grid = (n, c, out_spatial[0]) + tuple(padded[1:])
    valid = (slice(None),) * 3 + tuple(slice(0, so) for so in out_spatial[1:])
    return grid, valid, grid[3:] != tuple(out_spatial[1:])


def _forward_flat(xp, w, out_spatial, lay):
    n, cin = xp.shape[:2]
    cout = w.shape[0]
    dtype = np.result_type(xp, w)
    xf = B.ascontiguousarray(xp).reshape(n, cin, -1)
    grid, valid, wraps = _flat_grid(n, cout, out_spatial, xp.shape[2:])
    pool = get_backend().pool
    # Without wrap-around columns the flat result *is* the output.
    buf = pool.acquire(grid, dtype) if wraps else B.empty(grid, dtype=dtype)
    of = buf.reshape(n, cout, -1)
    matmul = B.matmul
    if lay.stacked:
        wk = B.ascontiguousarray(w.reshape(cout, -1))
        for j0, cols in _tap_blocks(xf, w.shape[2:], lay):
            matmul(wk, cols, out=of[:, :, j0:j0 + cols.shape[-1]])
    else:
        wt = _tap_weights(w)
        tmp = pool.acquire((n, cout, min(FLAT_BLOCK_COLS, lay.length)), dtype)
        for j0, width in _blocks(lay.length):
            acc, part = of[:, :, j0:j0 + width], tmp[:, :, :width]
            matmul(wt[0], xf[:, :, j0:j0 + width], out=acc)  # shift 0
            for t in range(1, len(lay.shifts)):
                s = j0 + lay.shifts[t]
                matmul(wt[t], xf[:, :, s:s + width], out=part)
                acc += part
        pool.release(tmp)
    if not wraps:
        return buf
    out = B.ascontiguousarray(buf[valid])
    pool.release(buf)
    return out


def _backward_flat(xp, w, grad, out_spatial, lay, need_dx, need_dw):
    n, cout = grad.shape[:2]
    grid, valid, wraps = _flat_grid(n, cout, out_spatial, xp.shape[2:])
    pool = get_backend().pool
    if wraps:   # lay the gradient out on the flat grid, zeros at wrap-around
        buf = pool.zeros(grid, grad.dtype)
        buf[valid] = grad
    else:
        buf = B.ascontiguousarray(grad)
    gf = buf.reshape(n, cout, -1)[:, :, :lay.length]
    dxp = _grad_input_flat(xp, w, gf, lay) if need_dx else None
    dw = _grad_weight_flat(xp, w, gf, lay) if need_dw else None
    if wraps:
        pool.release(buf)
    return dxp, dw


def _grad_input_flat(xp, w, gf, lay):
    n, cin = xp.shape[:2]
    taps = len(lay.shifts)
    dxf = B.zeros((n, cin, math.prod(xp.shape[2:])), dtype=xp.dtype)
    if lay.stacked:   # one GEMM yields every tap's rows: (N, Cin, taps, w)
        wt, rows = w.reshape(w.shape[0], -1).T, cin * taps
    else:             # one GEMM per tap
        wt, rows = B.swapaxes(_tap_weights(w), 1, 2), cin
    pool = get_backend().pool
    buf = pool.acquire((n, rows, min(FLAT_BLOCK_COLS, lay.length)), gf.dtype)
    # Cout == 1 contracts nothing: an outer product, slow through matmul.
    matmul = B.matmul if w.shape[0] > 1 else np.multiply
    for j0, width in _blocks(lay.length):
        g, part = gf[:, :, j0:j0 + width], buf[:, :, :width]
        if lay.stacked:
            matmul(wt, g, out=part)
            per_tap = part.reshape(n, cin, taps, width)
        for t, s in enumerate(lay.shifts):
            if not lay.stacked:
                matmul(wt[t], g, out=part)
            dxf[:, :, j0 + s:j0 + s + width] += (
                per_tap[:, :, t] if lay.stacked else part)
    pool.release(buf)
    return dxf.reshape(xp.shape)


def _grad_weight_flat(xp, w, gf, lay):
    n, cin = xp.shape[:2]
    taps = len(lay.shifts)
    xf = B.ascontiguousarray(xp).reshape(n, cin, -1)
    matmul, swap = B.matmul, B.swapaxes
    if lay.stacked:
        dw = B.zeros((w.shape[0], cin * taps), dtype=w.dtype)
        for j0, cols in _tap_blocks(xf, w.shape[2:], lay):
            g = gf[:, :, j0:j0 + cols.shape[-1]]
            dw += matmul(g, swap(cols, 1, 2)).sum(axis=0)
        return dw.reshape(w.shape)
    dw = B.zeros((w.shape[0], cin, taps), dtype=w.dtype)
    for j0, width in _blocks(lay.length):
        g = gf[:, :, j0:j0 + width]
        for t, s in enumerate(lay.shifts):
            xs = xf[:, :, j0 + s:j0 + s + width]
            dw[:, :, t] += matmul(g, swap(xs, 1, 2)).sum(axis=0)
    return dw.reshape(w.shape)


# ---- transposed convolution: output-scatter GEMM plan.  Contract the
# input channels against the kernel once (or per tap), then scatter-add
# each tap into the output at offset slices of step ``stride``; no
# zero-stuffed input (the composed path, the parity reference in
# ``tests/backend/test_conv_transpose_plan.py``) ever exists.

@dataclass(frozen=True)
class ConvTransposePlan:
    """Memoized conv-transpose decision.  ``path`` stages the channel
    contraction: ``'gemm'`` — one ``tensordot(x, w)`` into the full
    ``(N, *S, Cout, *K)`` tap tensor, then k^d scatter-adds; ``'tap'`` —
    k^d per-tap GEMMs, O(input) memory, once the tap tensor would exceed
    ``TAP_TENSOR_MAX_BYTES``."""

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
    args = tuple(tuple(a) for a in (x_shape, w_shape, stride, padding,
                                    output_padding))

    def build() -> ConvTransposePlan:
        tap_bytes = (x_shape[0] * math.prod(x_shape[2:]) * math.prod(
            w_shape[1:]) * np.dtype(dtype).itemsize)
        if tap_bytes > TAP_TENSOR_MAX_BYTES:
            return ConvTransposePlan(*args, "tap", (
                f"tap tensor {tap_bytes >> 20} MiB exceeds ceiling"))
        return ConvTransposePlan(*args, "gemm", (
            f"tap tensor {tap_bytes >> 10} KiB, single contraction"))

    return _cached(("convT",) + args + (np.dtype(dtype).str,), build)


def run_conv_transpose_forward(plan: ConvTransposePlan, x, w):
    """Output-scatter transposed convolution: returns (N, Cout, *So).

    ``x`` is (N, Cin, *S), ``w`` is (Cin, Cout, *K).  No zero-stuffed
    intermediate exists at any point.
    """
    spatial = x.shape[2:]
    # Scatter extent before the padding crop: (S-1)*st + k + op.
    full = tuple((s - 1) * st + k + op for s, st, k, op in zip(
        spatial, plan.stride, w.shape[2:], plan.output_padding))
    # Accumulate channels-last so each tap scatter is one strided block.
    acc = np.zeros((x.shape[0],) + full + (w.shape[1],), dtype=x.dtype)
    if plan.path == "gemm":
        cols = B.tensordot(x, w, axes=([1], [0]))         # (N, *S, Cout, *K)
    for offset in _offsets(w.shape[2:]):
        tap = (cols[(Ellipsis,) + offset] if plan.path == "gemm" else
               B.tensordot(x, w[(Ellipsis,) + offset], axes=([1], [0])))
        acc[_offset_slices(offset, spatial, plan.stride)[1:]] += tap
    out = np.moveaxis(acc, -1, 1)
    crop = tuple(slice(p, fs - p) for p, fs in zip(plan.padding, full))
    return np.ascontiguousarray(out[(slice(None), slice(None)) + crop])


def run_conv_transpose_backward(plan: ConvTransposePlan, x, w, grad,
                                need_dx: bool = True, need_dw: bool = True):
    """Gradients of the scatter forward; returns ``(dx, dw)``, ``None``
    for a gradient not needed.  dx is a planned *forward* conv of the
    re-padded output gradient with the same weights; dw one contraction
    of the input against strided windows of that gradient."""
    nd = x.ndim - 2
    gp = (np.pad(grad, ((0, 0), (0, 0)) + tuple((p, p) for p in plan.padding))
          if any(plan.padding) else grad)
    dx = dw = None
    if need_dx:
        # Conv of gp with w (layout (Cin, Cout, *K) is exactly the conv
        # weight layout with Cout_conv = Cin), same stride, zero padding.
        conv_plan_ = plan_conv(gp.shape, w.shape, plan.stride,
                               (0,) * nd, grad.dtype)
        dx = run_conv_forward(conv_plan_, gp, w, plan.stride, x.shape[2:])
    if need_dw:
        # dw[ci, co, o] = sum_{n,i} x[n,ci,i] * gp[n,co, st*i + o].
        spatial = tuple(range(2, 2 + nd))
        win = B.sliding_window_view(gp, w.shape[2:], axis=spatial)[
            (slice(None), slice(None))
            + tuple(slice(None, None, st) for st in plan.stride)]
        dw = B.tensordot(x, win, axes=((0,) + spatial, (0,) + spatial))
    return dx, dw
