"""Benchmark-side tracing for the traced (``--trace 1``) runs.

Nothing here changes the program: :class:`Timers` swaps public entry
points for timing wrappers and restores them on exit, and :class:`OpTrace`
layers region attribution and convolution FLOP counts on top of
:func:`repro.autograd.profile`.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

from repro.autograd import Function, profile
from repro.fem.energy import EnergyLoss

# Autograd op classes grouped into the layers the benchmark reports.
NORM_OPS = {"BatchNorm", "BatchNormInference"}
ACT_OPS = {"LeakyReLU", "Sigmoid", "ReLU", "Tanh", "Exp", "Log",
           "Softplus", "Abs"}
CONV_OPS = {"ConvNd", "ConvTransposeNd"}

_INHERITED = object()


class Timers:
    """Accumulate the wall time of patched callables.

    ``targets`` is a list of ``(owner, attribute, label)``; ``owner`` is a
    class or module.
    """

    def __init__(self, targets) -> None:
        self.targets = targets
        self.seconds: dict = defaultdict(float)
        self._saved: list = []

    def _wrap(self, fn, label):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[label] += time.perf_counter() - t0
        return timed

    def __enter__(self) -> "Timers":
        for owner, attr, label in self.targets:
            # A class may inherit the attribute: restore by deleting ours.
            original = vars(owner).get(attr, _INHERITED)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), label))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()


def _conv_flops(name: str, args, out) -> float:
    """Multiply-add FLOPs of one convolution, from its operand shapes."""
    x, w = args[0].data, args[1].data
    kernel = math.prod(w.shape[2:])
    if name == "ConvNd":       # w: (Cout, Cin, *K), one MAC per output tap
        n, cout = out.data.shape[:2]
        return 2.0 * n * cout * math.prod(out.data.shape[2:]) \
            * w.shape[1] * kernel
    # ConvTransposeNd, w: (Cin, Cout, *K), one MAC per input tap
    n, cin = x.shape[:2]
    return 2.0 * n * cin * math.prod(x.shape[2:]) * w.shape[1] * kernel


class OpTrace:
    """Per-op table, pool deltas, conv FLOPs and energy-loss attribution.

    Wraps :func:`repro.autograd.profile`; additionally times
    ``EnergyLoss.__call__`` (``energy_fwd_s``) and the backward of every
    op recorded inside it (``energy_bwd_s``), and counts forward and
    backward convolution FLOPs (a backward computes both the input and
    the weight gradient, twice the forward work).
    """

    def __init__(self) -> None:
        self.flops: dict = defaultdict(float)
        self.energy_fwd_s = 0.0
        self.energy_bwd_s = 0.0
        self._in_energy = False

    def __enter__(self) -> "OpTrace":
        self._profile = profile()
        self.prof = self._profile.__enter__()
        self._inner_apply = Function.apply.__func__
        self._energy_call = EnergyLoss.__call__
        trace = self

        def apply(cls, *args, **kwargs):
            out = trace._inner_apply(cls, *args, **kwargs)
            name = cls.__name__
            flops = 0.0
            if name in CONV_OPS:
                flops = _conv_flops(name, args, out)
                trace.flops[f"{name}.fwd"] += flops
            if out._fn is not None and (flops or trace._in_energy):
                out._fn = trace._wrap_backward(out._fn, name, flops,
                                               trace._in_energy)
            return out

        def energy_call(loss_self, u, nu):
            t0 = time.perf_counter()
            trace._in_energy = True
            try:
                return trace._energy_call(loss_self, u, nu)
            finally:
                trace._in_energy = False
                trace.energy_fwd_s += time.perf_counter() - t0

        Function.apply = classmethod(apply)
        EnergyLoss.__call__ = energy_call
        return self

    def _wrap_backward(self, fn, name, flops, in_energy):
        trace = self
        inner = fn.backward

        class _Traced(fn):  # type: ignore[misc, valid-type]
            @staticmethod
            def backward(ctx, grad):
                t0 = time.perf_counter()
                res = inner(ctx, grad)
                if in_energy:
                    trace.energy_bwd_s += time.perf_counter() - t0
                trace.flops[f"{name}.bwd"] += 2.0 * flops
                return res

        _Traced.__name__ = fn.__name__
        return _Traced

    def __exit__(self, *exc) -> None:
        EnergyLoss.__call__ = self._energy_call
        Function.apply = classmethod(self._inner_apply)
        self._profile.__exit__(*exc)

    # ------------------------------------------------------------------ #
    def layer_metrics(self, units: int) -> dict:
        """Autograd, energy and pool metrics per unit of work."""
        fwd, bwd = self.prof.forward, self.prof.backward

        def secs(table, names):
            return sum(s.seconds for n, s in table.items() if n in names)

        def calls(table, names):
            return sum(s.calls for n, s in table.items() if n in names)

        other = set(fwd) | set(bwd)
        other -= NORM_OPS | ACT_OPS | CONV_OPS
        conv_fwd = secs(fwd, {"ConvNd"})
        conv_bwd = secs(bwd, {"ConvNd"})
        gflop_fwd = (self.flops["ConvNd.fwd"]
                     + self.flops["ConvTransposeNd.fwd"]) / 1e9
        gflop_bwd = (self.flops["ConvNd.bwd"]
                     + self.flops["ConvTransposeNd.bwd"]) / 1e9
        conv_fwd_all = conv_fwd + secs(fwd, {"ConvTransposeNd"})
        conv_bwd_all = conv_bwd + secs(bwd, {"ConvTransposeNd"})
        pool = self.prof.pool
        per = 1.0 / max(units, 1)
        return {
            "conv.fwd_s": conv_fwd * per,
            "conv.bwd_s": conv_bwd * per,
            "conv.fwd_calls": calls(fwd, {"ConvNd"}) * per,
            "conv.bwd_calls": calls(bwd, {"ConvNd"}) * per,
            "conv.bwd_fwd_ratio": conv_bwd / conv_fwd if conv_fwd else 0.0,
            "convT.fwd_s": secs(fwd, {"ConvTransposeNd"}) * per,
            "convT.bwd_s": secs(bwd, {"ConvTransposeNd"}) * per,
            "conv.gflop": gflop_fwd * per,
            "conv.fwd_gflops": gflop_fwd / conv_fwd_all if conv_fwd_all
            else 0.0,
            "conv.bwd_gflops": gflop_bwd / conv_bwd_all if conv_bwd_all
            else 0.0,
            "norm.fwd_s": secs(fwd, NORM_OPS) * per,
            "norm.bwd_s": secs(bwd, NORM_OPS) * per,
            "act.fwd_s": secs(fwd, ACT_OPS) * per,
            "act.bwd_s": secs(bwd, ACT_OPS) * per,
            "elementwise.s": (secs(fwd, other) + secs(bwd, other)) * per,
            "energy.fwd_s": self.energy_fwd_s * per,
            "energy.bwd_s": self.energy_bwd_s * per,
            "pool.hit_rate": pool.hit_rate,
            "pool.recycled_mb": pool.bytes_recycled / 2 ** 20 * per,
            "pool.high_water_mb": pool.high_water_bytes / 2 ** 20,
        }
