"""Planner tests: path selection, memoization, and numerical parity
between the flat-grid and tensordot execution engines."""

from __future__ import annotations

import numpy as np
import pytest

import repro.backend.conv_plan as cp
from repro.backend.conv_plan import (
    ConvPlan, ConvSignature, clear_plan_cache, get_conv_plan_mode,
    plan_cache_info, plan_conv, run_conv_backward, run_conv_forward,
    set_conv_plan_mode,
)


@pytest.fixture(autouse=True)
def _fresh_planner():
    clear_plan_cache()
    set_conv_plan_mode("auto")
    yield
    clear_plan_cache()
    set_conv_plan_mode("auto")


def _pad(x, padding):
    if not any(padding):
        return x
    return np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))


def _out_spatial(xp, w_shape, stride):
    return tuple((s - k) // st + 1
                 for s, k, st in zip(xp.shape[2:], w_shape[2:], stride))


class TestPlanSelection:
    def test_stride_one_picks_flat(self):
        # The U-Net trunk signature: 3^d kernel, wide channels.
        plan = plan_conv((2, 16, 16, 16), (32, 16, 3, 3), (1, 1), (1, 1),
                         np.float32)
        assert plan.path == "flat"

    def test_3d_unet_signature_picks_flat(self):
        plan = plan_conv((1, 8, 6, 6, 6), (16, 8, 3, 3, 3),
                         (1, 1, 1), (1, 1, 1), np.float32)
        assert plan.path == "flat"

    def test_pointwise_kernel_picks_flat(self):
        # A 1x1 conv on the flat grid is one GEMM straight into the output.
        plan = plan_conv((2, 64, 16, 16), (32, 64, 1, 1), (1, 1), (0, 0),
                         np.float32)
        assert plan.path == "flat"
        assert not plan.layout.stacked

    def test_single_channel_stencil_is_tap_stacked(self):
        # Cin=1 with a 2^d FEM stencil kernel: per-tap GEMMs would be
        # outer products, so the taps are stacked into one GEMM.
        plan = plan_conv((4, 1, 33, 33, 33), (24, 1, 2, 2, 2),
                         (1, 1, 1), (0, 0, 0), np.float64)
        assert plan.path == "flat"
        assert plan.layout.stacked and "tap-stacked" in plan.reason

    def test_wide_large_conv_is_per_tap(self):
        plan = plan_conv((2, 16, 32, 32, 32), (8, 16, 3, 3, 3),
                         (1, 1, 1), (1, 1, 1), np.float32)
        assert plan.path == "flat"
        assert not plan.layout.stacked and "per-tap" in plan.reason

    def test_wide_tiny_conv_is_tap_stacked(self):
        # The whole stacked matrix fits the budget: per-tap call overhead
        # would dominate, so the taps are stacked.
        plan = plan_conv((1, 16, 4, 4), (8, 16, 3, 3), (1, 1), (1, 1),
                         np.float32)
        assert plan.layout.stacked

    def test_strided_conv_picks_tensordot(self):
        args = ((2, 8, 16, 16), (8, 8, 2, 2), (2, 2), (0, 0), np.float32)
        assert plan_conv(*args).path == "tensordot"
        assert plan_conv(*args).layout is None
        # The flat engine has no strided form: forcing it changes nothing.
        set_conv_plan_mode("flat")
        assert plan_conv(*args).path == "tensordot"

    def test_megavoxel_signature_stays_flat(self):
        # No patch matrix: the tap-stacked scratch is one column block,
        # whatever the grid size.
        sig = ConvSignature((1, 1, 256, 256, 256), (8, 1, 3, 3, 3),
                            (1, 1, 1), (1, 1, 1), "<f4")
        plan = plan_conv(sig.x_shape, sig.w_shape, sig.stride, sig.padding,
                         np.float32)
        assert plan.path == "flat" and plan.layout.stacked
        assert plan.layout.length > 1000 * cp.FLAT_BLOCK_COLS

    def test_forced_modes(self):
        args = ((2, 1, 8, 8), (4, 1, 3, 3), (1, 1), (0, 0), np.float32)
        set_conv_plan_mode("flat")
        assert plan_conv(*args).path == "flat"
        set_conv_plan_mode("tensordot")
        assert plan_conv(*args).path == "tensordot"
        assert get_conv_plan_mode() == "tensordot"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            set_conv_plan_mode("winograd")
        with pytest.raises(ValueError, match="mode must be one of"):
            set_conv_plan_mode("im2col")


class TestMemoization:
    def test_plans_are_cached_per_signature(self):
        args = ((2, 8, 16, 16), (16, 8, 3, 3), (1, 1), (1, 1), np.float32)
        first = plan_conv(*args)
        second = plan_conv(*args)
        assert first is second
        info = plan_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1 and info["size"] == 1

    def test_distinct_signatures_get_distinct_plans(self):
        plan_conv((2, 8, 16, 16), (16, 8, 3, 3), (1, 1), (1, 1), np.float32)
        plan_conv((2, 8, 16, 16), (16, 8, 3, 3), (2, 2), (1, 1), np.float32)
        assert plan_cache_info()["size"] == 2

    def test_mode_change_invalidates_lookup(self):
        args = ((2, 8, 16, 16), (16, 8, 3, 3), (1, 1), (1, 1), np.float32)
        auto_plan = plan_conv(*args)
        set_conv_plan_mode("tensordot")
        forced = plan_conv(*args)
        assert forced.path == "tensordot"
        assert forced is not auto_plan


class TestUnknownEngine:
    SIG = ConvSignature((1, 2, 5, 5), (3, 2, 3, 3), (1, 1), (0, 0), "<f8")

    def _operands(self):
        rng = np.random.default_rng(0)
        return (rng.standard_normal(self.SIG.x_shape),
                rng.standard_normal(self.SIG.w_shape),
                rng.standard_normal((1, 3, 3, 3)))

    def test_forward_names_the_engine(self):
        xp, w, _ = self._operands()
        plan = ConvPlan(signature=self.SIG, path="im2col", reason="stale")
        with pytest.raises(ValueError, match="'im2col'"):
            run_conv_forward(plan, xp, w, (1, 1), (3, 3))

    def test_backward_names_the_engine(self):
        xp, w, g = self._operands()
        plan = ConvPlan(signature=self.SIG, path="flat", reason="stale",
                        backward_path="winograd")
        with pytest.raises(ValueError, match="'winograd'"):
            run_conv_backward(plan, xp, w, g, (1, 1), (3, 3))


class TestEngineParity:
    """Both engines must produce identical outputs on identical inputs."""

    CASES = [
        # (x_shape, w_shape, stride, padding)
        ((2, 3, 9, 9), (5, 3, 3, 3), (1, 1), (0, 0)),
        ((2, 3, 9, 9), (5, 3, 3, 3), (2, 2), (1, 1)),
        ((1, 4, 8, 8), (6, 4, 2, 2), (2, 2), (0, 0)),
        ((2, 2, 6, 6, 6), (4, 2, 3, 3, 3), (1, 1, 1), (1, 1, 1)),
        ((1, 3, 7, 7, 7), (2, 3, 2, 2, 2), (2, 2, 2), (0, 0, 0)),
        ((2, 4, 10, 8), (3, 4, 3, 2), (2, 1), (1, 0)),  # anisotropic
    ]

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", CASES)
    def test_forward_parity(self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        xp = _pad(x, padding)
        out_spatial = _out_spatial(xp, w_shape, stride)

        set_conv_plan_mode("tensordot")
        ref = run_conv_forward(plan_conv(x_shape, w_shape, stride, padding,
                                         x.dtype), xp, w, stride, out_spatial)
        set_conv_plan_mode("flat")
        fast = run_conv_forward(plan_conv(x_shape, w_shape, stride, padding,
                                          x.dtype), xp, w, stride, out_spatial)
        np.testing.assert_allclose(fast, ref, rtol=1e-12, atol=1e-12)

    # Stride-1 signatures run through both flat stagings: Cin=1 in 1D,
    # 2D and 3D, wide channels, Cout=1, a 1x1 kernel, anisotropic
    # padding, and a 7-column block so that no flat length L is a
    # multiple of it.
    STAGING_CASES = [
        ((2, 1, 11), (3, 1, 3), (1,)),
        ((2, 1, 9, 9), (4, 1, 3, 3), (1, 1)),
        ((2, 1, 6, 7, 5), (5, 1, 2, 2, 2), (0, 0, 0)),
        ((1, 6, 5, 6, 5), (3, 6, 3, 3, 3), (1, 1, 1)),
        ((2, 3, 7, 7), (1, 3, 3, 3), (1, 1)),
        ((2, 4, 10, 8), (3, 4, 3, 2), (1, 0)),
        ((2, 5, 6, 6), (3, 5, 1, 1), (0, 0)),
        ((2, 5, 6, 6), (1, 5, 1, 1), (0, 0)),
    ]

    @pytest.mark.parametrize("staging", ["stacked", "per_tap"])
    @pytest.mark.parametrize("block", [7, 4096])
    @pytest.mark.parametrize("x_shape,w_shape,padding", STAGING_CASES)
    def test_flat_stagings_match_tensordot(self, monkeypatch, staging, block,
                                           x_shape, w_shape, padding):
        if staging == "stacked":
            monkeypatch.setattr(cp, "FLAT_STACK_MAX_ROWS", 10 ** 9)
        else:
            monkeypatch.setattr(cp, "FLAT_STACK_MAX_ROWS", 0)
            monkeypatch.setattr(cp, "FLAT_STACK_MAX_BYTES", 0)
        monkeypatch.setattr(cp, "FLAT_BLOCK_COLS", block)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(x_shape)
        w = rng.standard_normal(w_shape)
        xp = _pad(x, padding)
        stride = (1,) * len(padding)
        out_spatial = _out_spatial(xp, w_shape, stride)
        g = rng.standard_normal((x_shape[0], w_shape[0]) + out_spatial)

        results = {}
        for mode in ("tensordot", "flat"):
            set_conv_plan_mode(mode)
            plan = plan_conv(x_shape, w_shape, stride, padding, x.dtype)
            assert plan.path == mode
            out = run_conv_forward(plan, xp, w, stride, out_spatial)
            assert out.flags.c_contiguous
            results[mode] = (out,) + run_conv_backward(
                plan, xp, w, g, stride, out_spatial)
        taps = int(np.prod(w_shape[2:]))
        assert plan.layout.stacked == (staging == "stacked" and taps > 1)
        if block == 7:   # several blocks, the last one partial
            assert plan.layout.length > block and plan.layout.length % block
        for fast, ref in zip(results["flat"], results["tensordot"]):
            np.testing.assert_allclose(fast, ref, rtol=1e-11, atol=1e-11)

    @pytest.mark.parametrize("need_dx,need_dw",
                             [(True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("mode", ["flat", "tensordot"])
    def test_backward_skips_unneeded_gradients(self, mode, need_dx, need_dw):
        rng = np.random.default_rng(3)
        xp = rng.standard_normal((2, 3, 7, 7))
        w = rng.standard_normal((4, 3, 3, 3))
        g = rng.standard_normal((2, 4, 5, 5))
        set_conv_plan_mode(mode)
        plan = plan_conv(xp.shape, w.shape, (1, 1), (0, 0), xp.dtype)
        full = run_conv_backward(plan, xp, w, g, (1, 1), (5, 5))
        part = run_conv_backward(plan, xp, w, g, (1, 1), (5, 5),
                                 need_dx=need_dx, need_dw=need_dw)
        for need, got, ref in zip((need_dx, need_dw), part, full):
            if need:
                np.testing.assert_array_equal(got, ref)
            else:
                assert got is None

    def test_forced_modes_drive_different_engines(self, monkeypatch):
        """The mode reaches the engine through the autograd layer: a
        stride-1 ``conv_nd`` runs exactly the forced engine."""
        from repro.autograd import Tensor, conv_nd

        calls = []
        for name in ("_forward_flat", "_forward_tensordot",
                     "_backward_flat", "_backward_tensordot"):
            original = getattr(cp, name)

            def spy(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(cp, name, spy)
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
        ran = {}
        for mode in ("flat", "tensordot"):
            set_conv_plan_mode(mode)
            calls.clear()
            conv_nd(x, w, padding=1).sum().backward()
            ran[mode] = set(calls)
        assert ran["flat"] == {"_forward_flat", "_backward_flat"}
        assert ran["tensordot"] == {"_forward_tensordot",
                                    "_backward_tensordot"}

    def test_flat_uses_the_buffer_pool(self):
        from repro.backend import get_pool

        pool = get_pool()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 8, 12, 12)).astype(np.float32)
        w = rng.standard_normal((16, 8, 3, 3)).astype(np.float32)
        set_conv_plan_mode("flat")
        plan = plan_conv(x.shape, w.shape, (1, 1), (0, 0), x.dtype)
        out_spatial = (10, 10)
        run_conv_forward(plan, x, w, (1, 1), out_spatial)
        hits_before = pool.stats.hits
        run_conv_forward(plan, x, w, (1, 1), out_spatial)
        assert pool.stats.hits > hits_before
