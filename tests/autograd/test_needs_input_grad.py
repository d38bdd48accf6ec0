"""Per-input gradient mask: ``Function.apply`` records which inputs want
a gradient, and the conv backward computes only those.

The two cases that used to pay for gradients nobody asked for: the
constant Q1 stencils of the energy loss (weight gradient) and the input
conv of MGDiffNet (data gradient of the network input).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.autograd.ops_conv as ops_conv
import repro.backend.conv_plan as cp
from repro import MGDiffNet, PoissonProblem3D
from repro.autograd import Function, Tensor, no_grad

RES = 8


class _Probe(Function):
    seen: tuple = ()

    @staticmethod
    def forward(ctx, a, b, scale):
        _Probe.seen = ctx.needs_input_grad
        return a * b * scale

    @staticmethod
    def backward(ctx, grad):
        return grad, grad, None


def test_apply_records_one_flag_per_positional_arg():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3))
    _Probe.apply(a, b, 2.0)
    assert _Probe.seen == (True, False, False)
    with no_grad():
        _Probe.apply(a, b, 2.0)
    assert _Probe.seen == (False, False, False)


@pytest.fixture
def engine_spy(monkeypatch):
    """Record the weight shape of every conv data/weight gradient the
    engines compute."""
    seen = {"dx": [], "dw": []}
    for name, kind in (("_grad_input_flat", "dx"),
                       ("_grad_weight_flat", "dw")):
        original = getattr(cp, name)

        def spy(xp, w, *rest, _kind=kind, _original=original):
            seen[_kind].append(w.shape)
            return _original(xp, w, *rest)

        monkeypatch.setattr(cp, name, spy)
    strided = cp._backward_tensordot

    def spy_strided(xp, w, grad, stride, out_spatial, need_dx, need_dw):
        dxp, dw = strided(xp, w, grad, stride, out_spatial, need_dx, need_dw)
        for kind, result in (("dx", dxp), ("dw", dw)):
            if result is not None:
                seen[kind].append(w.shape)
        return dxp, dw

    monkeypatch.setattr(cp, "_backward_tensordot", spy_strided)
    return seen


def _step(problem, model):
    ds = problem.make_dataset(2, skip=1)
    chi_int, u_bc = problem.masks(RES, dtype=np.float64)
    x = ds.inputs_at(RES).astype(np.float64)
    u = model(Tensor(x), chi_int, u_bc)
    loss = problem.energy(RES)(u, ds.nu_at(RES).astype(np.float64))
    loss.backward()
    return {name: p.grad.copy() for name, p in model.named_parameters()}


def _model():
    model = MGDiffNet(ndim=3, base_filters=2, depth=1, rng=5)
    for p in model.parameters():
        p.data = p.data.astype(np.float64)
    return model


def test_energy_backward_never_computes_a_stencil_weight_grad(engine_spy):
    problem = PoissonProblem3D(RES)
    u = Tensor(np.random.default_rng(0).standard_normal((2, 1) + (RES,) * 3),
               requires_grad=True)
    nu = np.ones(u.shape)
    problem.energy(RES)(u, nu).backward()
    assert engine_spy["dx"], "the energy loss must still reach u"
    assert engine_spy["dw"] == []
    assert u.grad is not None


def test_first_conv_never_computes_the_input_grad(engine_spy):
    model = _model()
    first = model.net.enc_blocks[0].conv.weight.shape
    _step(PoissonProblem3D(RES), model)
    assert first in engine_spy["dw"]
    assert first not in engine_spy["dx"]


def test_masked_gradients_equal_a_run_that_computes_both(monkeypatch):
    problem = PoissonProblem3D(RES)
    masked = _step(problem, _model())

    forward_both = ops_conv.run_conv_backward

    def both(plan, xp, w, grad, stride, out_spatial, need_dx, need_dw):
        dxp, dw = forward_both(plan, xp, w, grad, stride, out_spatial)
        return (dxp if need_dx else None), (dw if need_dw else None)

    monkeypatch.setattr(ops_conv, "run_conv_backward", both)
    full = _step(problem, _model())
    assert masked.keys() == full.keys()
    for name in masked:
        np.testing.assert_array_equal(masked[name], full[name], err_msg=name)
