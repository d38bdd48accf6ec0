"""Convolution family: shape algebra, reference values, gradients,
adjointness of conv / conv-transpose."""

import numpy as np
import pytest

from repro.autograd import (Tensor, conv_nd, conv_transpose_nd, max_pool_nd,
                            avg_pool_nd, conv_output_shape,
                            conv_transpose_output_shape, gradcheck, tuplify)

from tests.conftest import t64


@pytest.fixture
def rng():
    return np.random.default_rng(21)


class TestShapeAlgebra:
    @pytest.mark.parametrize("s,k,st,p,expected", [
        (8, 3, 1, 1, 8),    # 'same'
        (8, 3, 1, 0, 6),    # valid
        (8, 2, 2, 0, 4),    # downsample x2
        (9, 3, 2, 1, 5),
    ])
    def test_conv_output(self, s, k, st, p, expected):
        assert conv_output_shape((s,), (k,), (st,), (p,)) == (expected,)

    def test_conv_output_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_output_shape((2,), (5,), (1,), (0,))

    @pytest.mark.parametrize("s,k,st,p,op,expected", [
        (4, 2, 2, 0, 0, 8),     # upsample x2
        (4, 3, 1, 1, 0, 4),     # 'same'
        (4, 4, 2, 1, 0, 8),
    ])
    def test_transpose_output(self, s, k, st, p, op, expected):
        assert conv_transpose_output_shape((s,), (k,), (st,), (p,), (op,)) == (expected,)

    def test_tuplify(self):
        assert tuplify(3, 2) == (3, 3)
        assert tuplify((1, 2), 2) == (1, 2)
        with pytest.raises(ValueError):
            tuplify((1, 2, 3), 2)


class TestConvReference:
    def test_identity_kernel(self, rng):
        x = rng.standard_normal((1, 1, 5, 5)).astype(np.float64)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv_nd(Tensor(x), Tensor(w), padding=1)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_averaging_kernel_constant_input(self):
        x = np.full((1, 1, 6, 6), 2.0)
        w = np.full((1, 1, 3, 3), 1.0 / 9)
        out = conv_nd(Tensor(x), Tensor(w)).data
        np.testing.assert_allclose(out, 2.0, rtol=1e-6)

    def test_matches_scipy_correlate_2d(self, rng):
        from scipy.signal import correlate

        x = rng.standard_normal((4, 5)).astype(np.float64)
        w = rng.standard_normal((3, 3)).astype(np.float64)
        ours = conv_nd(Tensor(x[None, None]), Tensor(w[None, None])).data[0, 0]
        ref = correlate(x, w, mode="valid")
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_matches_scipy_correlate_3d(self, rng):
        from scipy.signal import correlate

        x = rng.standard_normal((4, 4, 5)).astype(np.float64)
        w = rng.standard_normal((2, 3, 2)).astype(np.float64)
        ours = conv_nd(Tensor(x[None, None]), Tensor(w[None, None])).data[0, 0]
        ref = correlate(x, w, mode="valid")
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_multi_channel_sums_inputs(self, rng):
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float64)
        w = rng.standard_normal((2, 3, 1, 1)).astype(np.float64)
        out = conv_nd(Tensor(x), Tensor(w)).data
        ref = np.einsum("ncij,ocmn->noij", x, w)
        np.testing.assert_allclose(out, ref, atol=1e-12)

    def test_bias_broadcast(self, rng):
        x = Tensor(rng.standard_normal((2, 1, 4, 4)))
        w = Tensor(np.zeros((3, 1, 1, 1)))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = conv_nd(x, w, b).data
        for c in range(3):
            np.testing.assert_allclose(out[:, c], c + 1.0, rtol=1e-6)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)))
        w = Tensor(rng.standard_normal((1, 3, 3, 3)))
        with pytest.raises(ValueError):
            conv_nd(x, w)


class TestConvGradients:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_conv2d(self, rng, stride, padding):
        x = t64((2, 2, 6, 5), rng)
        w = t64((3, 2, 3, 3), rng)
        b = t64((3,), rng)
        gradcheck(lambda x, w, b: conv_nd(x, w, b, stride=stride,
                                          padding=padding), [x, w, b])

    def test_conv3d(self, rng):
        x = t64((1, 2, 4, 4, 4), rng)
        w = t64((2, 2, 3, 3, 3), rng)
        gradcheck(lambda x, w: conv_nd(x, w, padding=1), [x, w])

    def test_conv1_kernel(self, rng):
        x = t64((2, 3, 4, 4), rng)
        w = t64((2, 3, 1, 1), rng)
        gradcheck(lambda x, w: conv_nd(x, w), [x, w])


class TestConvTranspose:
    def test_upsample_shape_2d(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((4, 2, 2, 2)).astype(np.float32))
        assert conv_transpose_nd(x, w, stride=2).shape == (1, 2, 10, 10)

    def test_upsample_shape_3d(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 3, 3, 3)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 1, 2, 2, 2)).astype(np.float32))
        assert conv_transpose_nd(x, w, stride=2).shape == (1, 1, 6, 6, 6)

    def test_gradcheck(self, rng):
        x = t64((1, 2, 3, 3), rng)
        w = t64((2, 2, 2, 2), rng)
        b = t64((2,), rng)
        gradcheck(lambda x, w, b: conv_transpose_nd(x, w, b, stride=2),
                  [x, w, b])

    def test_stride1_padding(self, rng):
        x = t64((1, 1, 5, 5), rng)
        w = t64((1, 1, 3, 3), rng)
        out = conv_transpose_nd(x, w, stride=1, padding=1)
        assert out.shape == (1, 1, 5, 5)
        gradcheck(lambda x, w: conv_transpose_nd(x, w, stride=1, padding=1),
                  [x, w])

    def test_adjointness(self, rng):
        """conv_transpose(.; W) is the adjoint of conv(.; W):
        <conv(x), y> == <x, conv_transpose(y)> for a stride-2 conv."""
        x = rng.standard_normal((1, 2, 8, 8))
        w = rng.standard_normal((3, 2, 2, 2))  # (Cout, Cin, k, k)
        y = rng.standard_normal((1, 3, 4, 4))
        cx = conv_nd(Tensor(x), Tensor(w), stride=2).data
        cty = conv_transpose_nd(Tensor(y), Tensor(w), stride=2).data
        lhs = float((cx * y).sum())
        rhs = float((x * cty).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)
        # And it equals the autograd input-gradient of the conv.
        np.testing.assert_allclose(cty, _manual_adjoint(y, w), atol=1e-12)

    def test_invalid_padding_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((1, 1, 2, 2)).astype(np.float32))
        with pytest.raises(ValueError):
            conv_transpose_nd(x, w, stride=2, padding=3)


class TestContiguity:
    """Conv outputs are C-contiguous, so the norm and activation layers
    downstream read them with unit strides."""

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("nd", [1, 2, 3])
    def test_conv_nd_output(self, rng, nd, stride, bias):
        x = Tensor(rng.standard_normal((2, 3) + (6,) * nd))
        w = Tensor(rng.standard_normal((4, 3) + (3,) * nd))
        b = Tensor(rng.standard_normal(4)) if bias else None
        out = conv_nd(x, w, b, stride=stride, padding=1)
        assert out.data.flags.c_contiguous

    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 0)])
    @pytest.mark.parametrize("nd", [1, 2, 3])
    def test_conv_transpose_nd_output(self, rng, nd, stride, padding, bias):
        x = Tensor(rng.standard_normal((2, 3) + (4,) * nd))
        w = Tensor(rng.standard_normal((3, 4) + (2 + stride % 2,) * nd))
        b = Tensor(rng.standard_normal(4)) if bias else None
        out = conv_transpose_nd(x, w, b, stride=stride, padding=padding)
        assert out.data.flags.c_contiguous


def _manual_adjoint(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of stride-2 conv via autograd backward (ground truth)."""
    x = Tensor(np.zeros((1, w.shape[1], 8, 8)), requires_grad=True,
               dtype=np.float64)
    out = conv_nd(x, Tensor(w), stride=2)
    out.backward(y)
    return x.grad


class TestPooling:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = max_pool_nd(Tensor(x), 2).data[0, 0]
        np.testing.assert_allclose(out, [[5, 7], [13, 15]])

    def test_avgpool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = avg_pool_nd(Tensor(x), 2).data[0, 0]
        np.testing.assert_allclose(out, [[2.5, 4.5], [10.5, 12.5]])

    def test_maxpool_grad(self, rng):
        x = t64(rng.permutation(32).astype(np.float64).reshape(1, 2, 4, 4))
        gradcheck(lambda x: max_pool_nd(x, 2), [x])

    def test_avgpool_grad_3d(self, rng):
        x = t64((1, 1, 4, 4, 4), rng)
        gradcheck(lambda x: avg_pool_nd(x, 2), [x])

    def test_indivisible_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 4)).astype(np.float32))
        with pytest.raises(ValueError):
            max_pool_nd(x, 2)
        with pytest.raises(ValueError):
            avg_pool_nd(x, 2)
