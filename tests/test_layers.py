import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from salseg.tensor import Tensor, Rng, finite_diff_check
from salseg import layers
from salseg.layers import (ConvParams, BatchNormParams, conv2d, deconv2d,
                           batch_norm, relu, softmax2, replicate_upsample,
                           concat_channels, replicate_concat)
from salseg.model import ModelConfig, build, forward


def conv_oracle(x, w, b, stride, pad):
    """Direct nested-loop correlation."""
    n, c, h, wd = x.shape
    oc, ic, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, oc, ho, wo))
    for ni in range(n):
        for o in range(oc):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[ni, o, i, j] = (patch * w[o]).sum() + b[o]
    return out


def deconv_oracle(x, w, b, stride, pad):
    """Direct scatter: every input pixel adds its value times its (cout, kh,
    kw) kernel slice into the padded output, which is then cropped; the
    output is ``stride`` times the input size."""
    n, cin, h, wd = x.shape
    _, cout, kh, kw = w.shape
    out = np.zeros((n, cout, stride * h + 2 * pad, stride * wd + 2 * pad))
    for ni in range(n):
        for c in range(cin):
            for i in range(h):
                for j in range(wd):
                    out[ni, :, i * stride:i * stride + kh,
                        j * stride:j * stride + kw] += x[ni, c, i, j] * w[c]
    return (out[:, :, pad:pad + stride * h, pad:pad + stride * wd]
            + b.reshape(1, -1, 1, 1))


def make_conv(rng, oc, ic, k=3, stride=1, dtype=np.float64):
    return ConvParams(
        weight=Tensor(rng.normal((oc, ic, k, k), dtype=dtype), requires_grad=True),
        bias=Tensor(rng.normal((oc,), dtype=dtype), requires_grad=True),
        stride=stride)


class TestConv2d:
    def test_identity_1x1_kernel(self):
        x = Tensor(np.random.default_rng(0).normal(size=(1, 1, 5, 5)))
        p = ConvParams(weight=Tensor(np.ones((1, 1, 1, 1))), bias=Tensor(np.zeros(1)))
        np.testing.assert_allclose(conv2d(x, p).data, x.data)

    def test_ones_kernel_on_constant_image_interior(self):
        c = 0.7
        x = Tensor(np.full((1, 1, 6, 6), c))
        p = ConvParams(weight=Tensor(np.ones((1, 1, 3, 3))), bias=Tensor(np.zeros(1)))
        out = conv2d(x, p).data
        np.testing.assert_allclose(out[0, 0, 2, 3], 9 * c)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_matches_bruteforce(self, stride):
        rng = Rng(1, stride)
        x = rng.normal((2, 3, 6, 6))
        p = make_conv(rng, oc=4, ic=3, stride=stride)
        got = conv2d(Tensor(x), p).data
        want = conv_oracle(x, p.weight.data, p.bias.data, stride, 1)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_channel_mismatch_raises(self):
        rng = Rng(2)
        p = make_conv(rng, oc=2, ic=3)
        with pytest.raises(ValueError):
            conv2d(Tensor(rng.normal((1, 4, 4, 4))), p)

    def test_odd_size_stride2_raises(self):
        rng = Rng(2)
        p = make_conv(rng, oc=2, ic=1, stride=2)
        with pytest.raises(ValueError):
            conv2d(Tensor(rng.normal((1, 1, 5, 5))), p)

    def test_narrow_conv_keeps_no_input_patch_matrix(self):
        # 8 -> 1 channels on 16x16: gathered on the output side, so the
        # closure holds the flipped kernel, not the (8*9, N*H*W) matrix
        rng = Rng(11)
        p = make_conv(rng, oc=1, ic=8)
        x = Tensor(rng.normal((2, 8, 16, 16)), requires_grad=True)
        y = conv2d(x, p)
        held = [cell.cell_contents for cell in y._backward_fn.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert [a.shape for a in arrays] == [(8, 1, 3, 3)]
        np.testing.assert_array_equal(arrays[0], p.weight.data[:, :, ::-1, ::-1]
                                      .transpose(1, 0, 2, 3))

    @pytest.mark.parametrize("oc,ic,k", [(1, 8, 3), (8, 16, 3), (2, 13, 1)])
    def test_narrow_and_gather_paths_agree(self, oc, ic, k):
        """The output-side gather (k = 3) and the 1x1 batched matmul (k = 1)
        against the input-side patch-matrix kernels, called directly."""
        rng = Rng(12, oc)
        p = make_conv(rng, oc=oc, ic=ic, k=k)
        xdata = rng.normal((2, ic, 16, 16))
        n, c, h, w = xdata.shape
        assert k == 1 or layers._narrow_side(n, c, h, w, p.weight.data.shape, 1)
        gy = rng.normal((2, oc, 16, 16))

        x = Tensor(xdata, requires_grad=True)
        y = conv2d(x, p)
        held = [cell.cell_contents for cell in y._backward_fn.__closure__]
        assert not any(isinstance(a, np.ndarray) and a.shape[0] == ic * k * k
                       and a.ndim == 2 for a in held), "no patch matrix kept"
        y.backward(gy)
        fast = y.data, x.grad, p.weight.grad, p.bias.grad

        wd, pad = p.weight.data, (k - 1) // 2
        cols, out_hw = layers._patches(xdata, k, k, 1, pad)
        gather = (layers._conv_fwd(cols, wd, n, out_hw) + p.bias.data.reshape(1, -1, 1, 1),
                  layers._conv_bwd_data(gy, wd, 1, pad, (h, w)),
                  layers._conv_bwd_w(cols, gy, wd.shape),
                  gy.sum(axis=(0, 2, 3)))
        for a, b in zip(fast, gather):
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("weight_grad", [True, False])
    def test_patch_matrix_kept_only_for_weight_gradient(self, weight_grad):
        rng = Rng(10)
        p = make_conv(rng, oc=4, ic=3)
        p.weight.requires_grad = weight_grad
        x = Tensor(rng.normal((2, 3, 8, 8)), requires_grad=True)
        y = conv2d(x, p)
        held = [cell.cell_contents for cell in y._backward_fn.__closure__]
        patch_matrices = [a for a in held
                          if isinstance(a, np.ndarray) and a.shape == (3 * 9, 2 * 64)]
        assert len(patch_matrices) == int(weight_grad)
        y.backward(rng.normal(y.data.shape))
        assert (p.weight.grad is not None) == weight_grad
        assert x.grad is not None

    def test_gradients_match_finite_differences(self):
        rng = Rng(3)
        p = make_conv(rng, oc=2, ic=2, stride=2)
        point = Tensor(rng.normal((2, 2, 4, 4)))
        err = finite_diff_check(lambda x: conv2d(x, p).square().sum(), point)
        assert err < 1e-4

    def test_weight_gradient_matches_finite_differences(self):
        rng = Rng(4)
        x = Tensor(rng.normal((1, 2, 4, 4)))
        b = Tensor(np.zeros(2))
        w0 = rng.normal((2, 2, 3, 3))

        def fn(w):
            return conv2d(x, ConvParams(weight=w.reshape(2, 2, 3, 3), bias=b)).square().sum()

        assert finite_diff_check(lambda w: fn(w), Tensor(w0.reshape(-1))) < 1e-4


    # a 2x2 kernel has no padding, so it needs a map of at least 2x2
    @pytest.mark.parametrize("k,size", [(1, 1), (1, 2), (1, 16), (2, 2),
                                        (2, 16), (3, 1), (3, 2), (3, 16)])
    def test_stride1_data_gradient_matches_per_tap_scatter(self, k, size):
        """Stride-1 col2im on the flattened padded map against a scatter that
        adds each tap's contribution into the padded input separately."""
        pad = (k - 1) // 2
        out = size + 2 * pad - k + 1
        rng = Rng(13, 100 * k + size)
        n, ic, oc = 2, 3, 4
        w = rng.normal((oc, ic, k, k))
        gy = rng.normal((n, oc, out, out))
        want = np.zeros((n, ic, size + 2 * pad, size + 2 * pad))
        for i in range(k):
            for j in range(k):
                want[:, :, i:i + out, j:j + out] += np.einsum(
                    "noyx,oc->ncyx", gy, w[:, :, i, j])
        want = want[:, :, pad:pad + size, pad:pad + size]
        got = layers._conv_bwd_data(gy, w, 1, pad, (size, size))
        assert got.shape == want.shape and got.flags.c_contiguous
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("oc,ic,k,size,stride,transposed", [
        (4, 3, 3, 8, 1, False),    # input side
        (1, 8, 3, 16, 1, False),   # output side
        (2, 13, 1, 4, 1, False),   # 1x1 matmul
        (3, 1, 1, 1, 1, False),    # 1x1 matmul on a 1x1 map, one input channel
        (4, 3, 2, 2, 2, False),    # stride 2
        (4, 3, 2, 1, 2, True),     # transposed
    ])
    def test_output_never_aliases_the_bias(self, oc, ic, k, size, stride,
                                           transposed):
        rng = Rng(14)
        shape = (ic, oc, k, k) if transposed else (oc, ic, k, k)
        p = ConvParams(weight=Tensor(rng.normal(shape)),
                       bias=Tensor(rng.normal((oc,))), stride=stride)
        bias = p.bias.data.copy()
        y = (deconv2d if transposed else conv2d)(Tensor(rng.normal((1, ic, size, size))), p)
        assert not np.shares_memory(y.data, p.bias.data)
        np.testing.assert_array_equal(p.bias.data, bias)
        y.data += 1.0
        np.testing.assert_array_equal(p.bias.data, bias)


class TestDeconv2d:
    def test_support_of_1x1_kernel(self):
        v = 3.25
        p = ConvParams(weight=Tensor(np.ones((1, 1, 1, 1))), bias=Tensor(np.zeros(1)),
                       stride=2)
        out = deconv2d(Tensor(np.full((1, 1, 1, 1), v)), p).data
        assert out.shape == (1, 1, 2, 2)
        assert out[0, 0, 0, 0] == v
        assert np.count_nonzero(out) == 1

    def test_doubles_spatial_size(self):
        rng = Rng(5)
        p = ConvParams(weight=Tensor(rng.normal((4, 2, 3, 3))),
                       bias=Tensor(np.zeros(2)), stride=2)
        out = deconv2d(Tensor(rng.normal((1, 4, 5, 5))), p)
        assert out.data.shape == (1, 2, 10, 10)

    def test_adjoint_of_conv(self):
        # <deconv(x), y> == <x, conv(y)> for bias-free kernels.
        rng = Rng(6)
        w = rng.normal((3, 2, 3, 3))  # deconv layout: (cin, cout, kh, kw)
        x = rng.normal((1, 3, 4, 4))
        y = rng.normal((1, 2, 8, 8))
        dp = ConvParams(weight=Tensor(w), bias=Tensor(np.zeros(2)), stride=2)
        cp = ConvParams(weight=Tensor(w), bias=Tensor(np.zeros(3)), stride=2)
        lhs = (deconv2d(Tensor(x), dp).data * y).sum()
        rhs = (x * conv2d(Tensor(y), cp).data).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_equals_conv_backward_data_oracle(self):
        rng = Rng(7)
        w = rng.normal((3, 2, 3, 3))
        x = rng.normal((1, 3, 4, 4))
        dp = ConvParams(weight=Tensor(w), bias=Tensor(np.zeros(2)), stride=2)
        got = deconv2d(Tensor(x), dp).data
        # oracle: backprop x through a stride-2 conv with the same kernel
        xin = Tensor(np.zeros((1, 2, 8, 8)), requires_grad=True)
        cp = ConvParams(weight=Tensor(w), bias=Tensor(np.zeros(3)), stride=2)
        conv2d(xin, cp).backward(x)
        np.testing.assert_allclose(got, xin.grad, atol=1e-8)

    def test_weight_gradient_without_input_gradient(self):
        rng = Rng(11)
        p = ConvParams(weight=Tensor(rng.normal((3, 2, 3, 3)), requires_grad=True),
                       bias=Tensor(np.zeros(2)), stride=2)
        x0, g = rng.normal((2, 3, 4, 4)), rng.normal((2, 2, 8, 8))
        deconv2d(Tensor(x0), p).backward(g)
        alone = p.weight.grad
        p.weight.grad = None
        x = Tensor(x0, requires_grad=True)
        deconv2d(x, p).backward(g)
        np.testing.assert_array_equal(alone, p.weight.grad)
        assert x.grad is not None

    def test_requires_stride_2(self):
        p = ConvParams(weight=Tensor(np.ones((1, 1, 3, 3))), bias=Tensor(np.zeros(1)),
                       stride=1)
        with pytest.raises(ValueError):
            deconv2d(Tensor(np.ones((1, 1, 2, 2))), p)

    def test_gradients_match_finite_differences(self):
        rng = Rng(8)
        p = ConvParams(weight=Tensor(rng.normal((2, 2, 3, 3)), requires_grad=True),
                       bias=Tensor(rng.normal((2,)), requires_grad=True), stride=2)
        point = Tensor(rng.normal((1, 2, 3, 3)))
        assert finite_diff_check(lambda x: deconv2d(x, p).square().sum(), point) < 1e-4

    def test_weight_gradient_matches_finite_differences(self):
        rng = Rng(9)
        x = Tensor(rng.normal((1, 2, 3, 3)))

        def fn(w):
            p = ConvParams(weight=w.reshape(2, 2, 3, 3), bias=Tensor(np.zeros(2)),
                           stride=2)
            return deconv2d(x, p).square().sum()

        assert finite_diff_check(fn, Tensor(rng.normal((2 * 2 * 3 * 3,)))) < 1e-4


class TestConvProperties:
    """conv2d and deconv2d against ``conv_oracle`` / ``deconv_oracle`` over
    map sizes 1x1 to 32x32, kernels 1, 2 and 3, strides 1 and 2, one to four
    channels, batch 1-3, float32 and float64: the forward map, the data
    gradient through <f(x), y> == <x, f^T(y)>, and the weight gradient
    through <f_dw(x), y> == <dw, grad_w> (f is linear in x and in w).  A 2x2
    kernel (padding 0) and the transposed conv are stride 2 only.  Stride-1
    convs that narrow the channels enough take the output-side path, and
    short tap rows (Wo <= 4) are gathered; the examples pin both sides of
    each rule."""

    @given(n=st.integers(1, 3), cin=st.integers(1, 4), cout=st.integers(1, 4),
           h=st.integers(1, 32), w=st.integers(1, 32),
           k=st.sampled_from([1, 2, 3]), stride=st.sampled_from([1, 2]),
           transposed=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 16))
    @example(n=2, cin=4, cout=4, h=1, w=1, k=3, stride=1, transposed=False,
             dtype=np.float64, seed=0)
    @example(n=3, cin=4, cout=1, h=32, w=32, k=3, stride=1, transposed=False,
             dtype=np.float32, seed=1)
    @example(n=3, cin=4, cout=1, h=32, w=32, k=3, stride=2, transposed=False,
             dtype=np.float64, seed=2)
    @example(n=1, cin=1, cout=3, h=2, w=2, k=3, stride=2, transposed=False,
             dtype=np.float64, seed=3)
    @example(n=2, cin=3, cout=2, h=1, w=1, k=1, stride=1, transposed=False,
             dtype=np.float32, seed=4)
    # the live-tap kernels of the model: 2x2 -> 1x1 conv, 1x1 -> 2x2 deconv
    @example(n=2, cin=4, cout=3, h=2, w=2, k=2, stride=2, transposed=False,
             dtype=np.float64, seed=5)
    # a scale extractor (C -> 1), gathered on its output side
    @example(n=2, cin=8, cout=1, h=32, w=32, k=3, stride=1, transposed=False,
             dtype=np.float32, seed=8)
    @example(n=2, cin=8, cout=1, h=32, w=32, k=3, stride=1, transposed=False,
             dtype=np.float64, seed=9)
    # a 16 -> 8 conv on either side of the element-count rule
    @example(n=2, cin=16, cout=8, h=16, w=16, k=3, stride=1, transposed=False,
             dtype=np.float64, seed=10)
    @example(n=1, cin=16, cout=8, h=2, w=2, k=3, stride=1, transposed=False,
             dtype=np.float64, seed=11)
    # 1x1 convs: a 1x1 map at the desk batch (the bottleneck, whose weight
    # gradient is one einsum) and one image with H*W > 1
    @example(n=5, cin=8, cout=4, h=1, w=1, k=1, stride=1, transposed=False,
             dtype=np.float32, seed=12)
    @example(n=5, cin=8, cout=4, h=1, w=1, k=1, stride=1, transposed=False,
             dtype=np.float64, seed=13)
    @example(n=1, cin=3, cout=2, h=4, w=5, k=1, stride=1, transposed=False,
             dtype=np.float64, seed=14)
    @example(n=3, cin=4, cout=2, h=1, w=1, k=2, stride=2, transposed=True,
             dtype=np.float64, seed=6)
    @example(n=2, cin=3, cout=4, h=1, w=1, k=2, stride=2, transposed=True,
             dtype=np.float32, seed=7)
    # either side of the gathered-taps rule (Wo <= 4 on the small side)
    @example(n=1, cin=4, cout=3, h=4, w=4, k=3, stride=1, transposed=False,
             dtype=np.float64, seed=15)
    @example(n=5, cin=4, cout=3, h=5, w=5, k=3, stride=1, transposed=False,
             dtype=np.float32, seed=16)
    @example(n=5, cin=4, cout=1, h=4, w=4, k=3, stride=1, transposed=False,
             dtype=np.float32, seed=17)
    @example(n=5, cin=3, cout=4, h=8, w=8, k=3, stride=2, transposed=False,
             dtype=np.float32, seed=18)
    @example(n=1, cin=3, cout=4, h=10, w=10, k=3, stride=2, transposed=False,
             dtype=np.float64, seed=19)
    @example(n=1, cin=4, cout=3, h=4, w=4, k=3, stride=2, transposed=True,
             dtype=np.float64, seed=20)
    @example(n=5, cin=4, cout=3, h=2, w=2, k=3, stride=2, transposed=True,
             dtype=np.float32, seed=21)
    @example(n=5, cin=4, cout=3, h=5, w=5, k=3, stride=2, transposed=True,
             dtype=np.float32, seed=22)
    def test_matches_oracle(self, n, cin, cout, h, w, k, stride, transposed,
                            dtype, seed):
        if k == 2 or transposed:
            stride = 2
        if stride == 2 and not transposed:  # conv2d halves even sizes only
            h, w = h + h % 2, w + w % 2
        op, oracle = (deconv2d, deconv_oracle) if transposed else (conv2d, conv_oracle)
        tol = 1e-4 if dtype == np.float32 else 1e-10
        pad = (k - 1) // 2
        rng = Rng(seed)
        shape = (cin, cout, k, k) if transposed else (cout, cin, k, k)
        p = ConvParams(weight=Tensor(rng.normal(shape, dtype=dtype), requires_grad=True),
                       bias=Tensor(rng.normal((cout,), dtype=dtype), requires_grad=True),
                       stride=stride)
        x = Tensor(rng.normal((n, cin, h, w), dtype=dtype), requires_grad=True)
        wt, b = p.weight.data.astype(np.float64), p.bias.data.astype(np.float64)
        x64 = x.data.astype(np.float64)

        y = op(x, p)
        want = oracle(x64, wt, b, stride, pad)
        assert y.data.dtype == dtype and y.data.shape == want.shape
        np.testing.assert_allclose(y.data, want, rtol=0, atol=tol * (
            np.abs(x64).max() * np.abs(wt).sum() + np.abs(b).max()))

        gy = rng.normal(want.shape, dtype=dtype)
        y.backward(gy)
        gy64 = gy.astype(np.float64)
        # sum of |w| * ||x|| * ||gy|| bounds the sum of |terms| of either side
        norms = np.linalg.norm(x64) * np.linalg.norm(gy64)
        lhs = ((want - b.reshape(1, -1, 1, 1)) * gy64).sum()
        rhs = (x64 * x.grad).sum()
        assert abs(lhs - rhs) <= tol * np.abs(wt).sum() * norms

        dw = rng.normal(wt.shape)
        lhs = (oracle(x64, dw, np.zeros(cout), stride, pad) * gy64).sum()
        rhs = (dw * p.weight.grad).sum()
        assert abs(lhs - rhs) <= tol * np.abs(dw).sum() * norms


def patches_by_slices(x, kh, kw, stride, pad):
    """The patch matrix built one strided slice copy per tap: the loop
    ``layers._patches`` runs on long tap rows."""
    n, c, h, wd = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    xp = np.zeros((c, n, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + stride * (ho - 1) + 1:stride,
                               j:j + stride * (wo - 1) + 1:stride]
    return cols.reshape(c * kh * kw, n * ho * wo), (ho, wo)


def col2im_by_slices(gy, w, stride, pad, in_hw):
    """The data gradient with one slice-add per tap: contiguous runs on the
    padded grid at stride 1, strided slices at stride 2; the loops
    ``layers._conv_bwd_data`` runs on long tap rows."""
    n, oc, ho, wo = gy.shape
    _, ic, kh, kw = w.shape
    h, wd = in_hw
    hp, wp = h + 2 * pad, wd + 2 * pad
    wmat = w.reshape(oc, -1).T
    if stride == 1:
        gyp = np.zeros((oc, n, hp, wp), dtype=gy.dtype)
        gyp[:, :, :ho, :wo] = gy.transpose(1, 0, 2, 3)
        run = n * hp * wp
        dcols = (wmat @ gyp.reshape(oc, run)).reshape(ic, kh, kw, run)
        gxp = np.zeros((ic, run), dtype=dcols.dtype)
        for i in range(kh):
            for j in range(kw):
                off = i * wp + j
                gxp[:, off:] += dcols[:, i, j, :run - off]
        gxp = gxp.reshape(ic, n, hp, wp)
    else:
        dcols = (wmat @ layers._rows(gy)).reshape(ic, kh, kw, n, ho, wo)
        gxp = np.zeros((ic, n, hp, wp), dtype=dcols.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * (ho - 1) + 1:stride,
                    j:j + stride * (wo - 1) + 1:stride] += dcols[:, i, j]
    return np.ascontiguousarray(
        gxp[:, :, pad:pad + h, pad:pad + wd].transpose(1, 0, 2, 3))


def _desk_kernel_calls():
    """Every ``_patches`` and ``_conv_bwd_data`` call of one forward and
    backward of the desk model (64x64, base 4): at batch 1 in inference
    mode and at batch 5 in train mode.  Each is (kernel, batch, arguments
    with the array replaced by its shape), without repeats."""
    calls = []
    real_patches, real_bwd = layers._patches, layers._conv_bwd_data

    def patches(x, kh, kw, stride, pad):
        calls.append(("patches", x.shape[0], (x.shape, kh, kw, stride, pad)))
        return real_patches(x, kh, kw, stride, pad)

    def bwd(gy, w, stride, pad, in_hw):
        calls.append(("col2im", gy.shape[0], (gy.shape, w.shape, stride, pad, in_hw)))
        return real_bwd(gy, w, stride, pad, in_hw)

    params = build(ModelConfig(input_size=64, base_channels=4), Rng(0))
    layers._patches, layers._conv_bwd_data = patches, bwd
    try:
        for n, mode in ((1, "inference"), (5, "train")):
            out = forward(params, Tensor(Rng(1).normal((n, 3, 64, 64))), mode=mode)
            (out.embedding.sum() + out.ce_probs.sum()).backward()
    finally:
        layers._patches, layers._conv_bwd_data = real_patches, real_bwd
    return list(dict.fromkeys(calls))


# one shape on each side of ``_short_rows``'s boundary (Wo = 4 and 5), per
# kernel and stride
BOUNDARY_CALLS = [
    ("patches", 1, ((1, 8, 4, 4), 3, 3, 1, 1)),
    ("patches", 1, ((1, 8, 5, 5), 3, 3, 1, 1)),
    ("patches", 5, ((5, 8, 8, 8), 3, 3, 2, 1)),
    ("patches", 5, ((5, 8, 10, 10), 3, 3, 2, 1)),
    ("col2im", 5, ((5, 8, 4, 4), (8, 6, 3, 3), 1, 1, (4, 4))),
    ("col2im", 5, ((5, 8, 5, 5), (8, 6, 3, 3), 1, 1, (5, 5))),
    ("col2im", 1, ((1, 8, 4, 4), (8, 6, 3, 3), 2, 1, (8, 8))),
    ("col2im", 1, ((1, 8, 5, 5), (8, 6, 3, 3), 2, 1, (10, 10))),
]
# a stride-1 col2im of full rows in which each of several channels spills
# into the next one's head, over several images
FULL_ROW_CALLS = [
    ("col2im", 3, ((3, 5, 12, 12), (5, 4, 3, 3), 1, 1, (12, 12))),
]
DESK_CALLS = _desk_kernel_calls()
KERNEL_CASES = [(kind, args, dtype)
                for kind, n, args in DESK_CALLS + BOUNDARY_CALLS + FULL_ROW_CALLS
                for dtype in ((np.float32, np.float64) if n == 1 else (np.float32,))]


def _with_negative_zeros(a):
    """``a`` with its smallest entries set to -0.0, as a ReLU's backward
    leaves them; the kernels carry each sign through."""
    a[np.abs(a) < 0.2] = -0.0
    return a


class TestGatheredTaps:
    """On short tap rows the patch matrix and col2im are one gather through
    a cached index plan; everywhere else the per-tap slice loops run.  Both
    give the same bytes."""

    @pytest.mark.parametrize(
        "kind,args,dtype", KERNEL_CASES,
        ids=[f"{kind}-{args}-{np.dtype(dt).name}".replace(" ", "")
             for kind, args, dt in KERNEL_CASES])
    def test_matches_slice_loops_bytewise(self, kind, args, dtype):
        rng = Rng(23)
        if kind == "patches":
            shape, kh, kw, stride, pad = args
            x = _with_negative_zeros(rng.normal(shape, dtype=dtype))
            got, want = (layers._patches(x, kh, kw, stride, pad),
                         patches_by_slices(x, kh, kw, stride, pad))
            assert got[1] == want[1]
            got, want = got[0], want[0]
        else:
            gy_shape, w_shape, stride, pad, in_hw = args
            gy = _with_negative_zeros(rng.normal(gy_shape, dtype=dtype))
            w = _with_negative_zeros(rng.normal(w_shape, dtype=dtype))
            got, want = (layers._conv_bwd_data(gy, w, stride, pad, in_hw),
                         col2im_by_slices(gy, w, stride, pad, in_hw))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_boundary_cases_straddle_the_rule(self):
        assert layers._short_rows(4) and not layers._short_rows(5)

    def test_desk_model_takes_both_paths(self):
        """The desk shapes above cover the gather and the loops of both
        kernels."""
        taken = set()
        for kind, _, args in DESK_CALLS:
            if kind == "patches":
                (_, _, _, wd), _, kw, stride, pad = args
                wo = (wd + 2 * pad - kw) // stride + 1
            else:
                wo = args[0][3]
            taken.add((kind, layers._short_rows(wo)))
        assert taken == {("patches", True), ("patches", False),
                         ("col2im", True), ("col2im", False)}

    def test_plans_are_read_only_and_kept_per_shape(self):
        rng = Rng(24)
        w = rng.normal((5, 3, 3, 3))
        cases = [  # a kernel, then an input shape A and a shape B for it
            (lambda x: layers._patches(x, 3, 3, 1, 1)[0], (1, 3, 4, 4), (2, 3, 2, 2)),
            (lambda x: layers._patches(x, 3, 3, 2, 1)[0], (1, 3, 4, 4), (2, 3, 8, 8)),
            (lambda g: layers._conv_bwd_data(g, w, 1, 1, g.shape[2:]),
             (1, 5, 4, 4), (2, 5, 2, 2)),
            (lambda g: layers._conv_bwd_data(g, w, 2, 1, (2 * g.shape[2], 2 * g.shape[3])),
             (1, 5, 2, 2), (2, 5, 4, 4)),
        ]
        for kernel, shape_a, shape_b in cases:
            a, b = rng.normal(shape_a), rng.normal(shape_b)
            first = kernel(a).tobytes()
            kernel(b)
            assert kernel(a).tobytes() == first
        for build_plan, args in ((layers._patch_plan, (1, 6, 6, 3, 3, 1, 4, 4)),
                                 (layers._col2im_plan, (1, 4, 4, 3, 3, 2, 1, 2, 2)),
                                 (layers._col2im_plan, (2, 4, 4, 3, 3, 1, 1, 4, 4))):
            plan = build_plan(*args)
            assert build_plan(*args) is plan
            assert not plan.flags.writeable
            with pytest.raises(ValueError):
                plan.flat[0] = 0


def batch_norm_oracle(x, g, gamma, beta, rm, rv, eps, mode):
    """Channel-by-channel float64 batch norm with exactly rounded sums
    (``math.fsum``), written from the textbook formulas.  Returns the
    output, the x, gamma and beta gradients for output gradient ``g``, the
    batch mean and biased variance (train mode), and per-channel error
    scales: bounds on the magnitude of the terms behind each quantity, so
    that a tolerance relative to them covers any summation order."""
    n, c, h, w = x.shape
    cnt = n * h * w
    r = {k: np.zeros(x.shape) for k in ("y", "gx", "y_scale", "gx_scale")}
    r.update({k: np.zeros(c) for k in ("gg", "gb", "mean", "var", "gg_scale",
                                       "gb_scale", "stat_scale")})
    for ch in range(c):
        v, gv = x[:, ch].astype(np.float64), g[:, ch].astype(np.float64)
        if mode == "train":
            m = math.fsum(v.ravel()) / cnt
            var = math.fsum(((v - m) ** 2).ravel()) / cnt
        else:
            m, var = rm[ch], rv[ch]
        inv = 1.0 / math.sqrt(var + eps)
        xhat = (v - m) * inv
        big = (np.abs(v).max() + abs(m)) * inv  # |x_hat| before cancellation
        gb = math.fsum(gv.ravel())
        gg = math.fsum((gv * xhat).ravel())
        r["y"][:, ch] = gamma[ch] * xhat + beta[ch]
        if mode == "train":
            r["gx"][:, ch] = gamma[ch] * inv * (gv - gb / cnt - xhat * gg / cnt)
        else:
            r["gx"][:, ch] = gamma[ch] * inv * gv
        r["gg"][ch], r["gb"][ch] = gg, gb
        r["mean"][ch], r["var"][ch] = m, var
        r["y_scale"][:, ch] = abs(gamma[ch]) * big + abs(beta[ch])
        r["gx_scale"][:, ch] = (abs(gamma[ch]) * inv * np.abs(gv).max()
                                * (1 + big) ** 2)
        r["gg_scale"][ch] = np.abs(gv).sum() * big
        r["gb_scale"][ch] = np.abs(gv).sum()
        r["stat_scale"][ch] = (np.abs(v).max() + abs(m)) ** 2 + 1
    return r


class TestBatchNormProperties:
    """batch_norm against ``batch_norm_oracle`` in both modes over batch 1-5
    (2-5 in train mode), one to eight channels, maps 1x1 to 16x16, float32
    and float64: the output, the x, gamma and beta gradients, and the
    running-stat update (momentum 0.9, biased variance).  Each error is
    bounded relative to the oracle's scale for it.  Outputs and gradients
    keep the input's dtype, and neither the input nor the output gradient is
    written to."""

    @given(mode=st.sampled_from(["train", "inference"]), n=st.integers(1, 5),
           c=st.integers(1, 8), h=st.integers(1, 16), w=st.integers(1, 16),
           dtype=st.sampled_from([np.float32, np.float64]),
           seed=st.integers(0, 2 ** 16))
    @example(mode="train", n=2, c=1, h=1, w=1, dtype=np.float64, seed=0)
    @example(mode="train", n=5, c=8, h=16, w=16, dtype=np.float32, seed=1)
    @example(mode="inference", n=1, c=3, h=1, w=1, dtype=np.float32, seed=2)
    @example(mode="inference", n=5, c=8, h=16, w=16, dtype=np.float64, seed=3)
    def test_matches_oracle(self, mode, n, c, h, w, dtype, seed):
        assume(mode == "inference" or n >= 2)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        rng = Rng(seed)
        x = rng.normal((n, c, h, w), mean=float(rng.uniform(-3, 3)),
                       std=float(rng.uniform(0.1, 3)), dtype=dtype)
        gy = rng.normal((n, c, h, w), dtype=dtype)
        gamma = rng.normal((c,), dtype=dtype)
        beta = rng.normal((c,), dtype=dtype)
        rm0, rv0 = rng.normal((c,)), rng.uniform(0.2, 3.0, (c,))
        bn = BatchNormParams(gamma=Tensor(gamma, requires_grad=True),
                             beta=Tensor(beta, requires_grad=True),
                             running_mean=rm0.copy(), running_var=rv0.copy())
        want = batch_norm_oracle(x, gy, gamma, beta, rm0, rv0, bn.eps, mode)
        x_in, gy_in = x.copy(), gy.copy()

        xt = Tensor(x, requires_grad=True)
        y = batch_norm(xt, bn, mode=mode)
        y.backward(gy)
        got = {"y": y.data, "gx": xt.grad, "gg": bn.gamma.grad,
               "gb": bn.beta.grad}
        for key, value in got.items():
            assert value.dtype == dtype and value.shape == want[key].shape, key
            err = np.abs(value - want[key]) - tol * want[key + "_scale"]
            assert err.max() <= 0, key
        np.testing.assert_array_equal(x, x_in)
        np.testing.assert_array_equal(gy, gy_in)

        if mode == "train":
            rm, rv = 0.9 * rm0 + 0.1 * want["mean"], 0.9 * rv0 + 0.1 * want["var"]
        else:
            rm, rv = rm0, rv0
        assert bn.running_mean.dtype == bn.running_var.dtype == np.float64
        assert np.all(np.abs(bn.running_mean - rm) <= tol * want["stat_scale"])
        assert np.all(np.abs(bn.running_var - rv) <= tol * want["stat_scale"])


class TestBatchNorm:
    def make(self, c, rng=None, dtype=np.float64):
        rng = rng or Rng(10)
        return BatchNormParams(gamma=Tensor(np.ones(c), requires_grad=True),
                               beta=Tensor(np.zeros(c), requires_grad=True))

    def test_train_mode_normalizes(self):
        rng = Rng(10)
        bn = self.make(3)
        out = batch_norm(Tensor(rng.normal((4, 3, 5, 5), mean=3.0, std=2.0)), bn).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_inference_formula(self):
        bn = self.make(2)
        bn.gamma = Tensor(np.array([2.0, 0.5]))
        bn.beta = Tensor(np.array([1.0, -1.0]))
        bn.running_mean = np.array([0.3, -0.2])
        bn.running_var = np.array([1.5, 0.7])
        x = Rng(11).normal((2, 2, 3, 3))
        out = batch_norm(Tensor(x), bn, mode="inference").data
        want = (bn.gamma.data.reshape(1, 2, 1, 1)
                * (x - bn.running_mean.reshape(1, 2, 1, 1))
                / np.sqrt(bn.running_var.reshape(1, 2, 1, 1) + bn.eps)
                + bn.beta.data.reshape(1, 2, 1, 1))
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_batch_of_one_rejected_in_train(self):
        bn = self.make(2)
        with pytest.raises(ValueError):
            batch_norm(Tensor(np.ones((1, 2, 3, 3))), bn)

    def test_running_stats_update(self):
        bn = self.make(1)
        x = Rng(12).normal((4, 1, 4, 4), mean=5.0)
        batch_norm(Tensor(x), bn)
        want_mean = 0.9 * 0.0 + 0.1 * x.mean()
        assert bn.running_mean[0] == pytest.approx(want_mean)

    def test_gradients_match_finite_differences(self):
        rng = Rng(13)
        bn = self.make(2)

        def fn(x):
            return batch_norm(x.reshape(2, 2, 3, 3), bn, update_running=False).square().sum()

        assert finite_diff_check(fn, Tensor(rng.normal((2 * 2 * 3 * 3,)))) < 1e-4

    def test_gamma_beta_gradients(self):
        rng = Rng(14)
        x = Tensor(rng.normal((3, 2, 3, 3)))

        def fn2(gb):
            gb2 = gb.reshape(2, 2)
            # split channels by multiplying with masks to stay differentiable
            gamma = (gb2 * np.array([[1.0], [0.0]])).sum(axis=0)
            beta = (gb2 * np.array([[0.0], [1.0]])).sum(axis=0)
            bn = BatchNormParams(gamma=gamma, beta=beta)
            return batch_norm(x, bn, update_running=False).square().sum()

        assert finite_diff_check(fn2, Tensor(rng.normal((4,)))) < 1e-4


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor(np.array([-1.0, 2.0, 0.0]))).data
        np.testing.assert_array_equal(out, [0.0, 2.0, 0.0])

    def test_grad_free_relu_keeps_no_mask(self):
        x = Tensor(np.array([[-2.0, -0.0, 0.0, 1e-300, -1e-300, 3.0]]))
        y = relu(x)
        assert y._backward_fn is None and y._parents == ()
        assert not y.requires_grad and not np.shares_memory(y.data, x.data)
        masked = x.data * (x.data > 0)
        assert y.data.dtype == masked.dtype
        np.testing.assert_array_equal(y.data, masked)
        x32 = Tensor(x.data.astype(np.float32))
        assert relu(x32).data.dtype == np.float32

    def test_relu_gradient_away_from_kink(self):
        point = Tensor(np.array([1.0, -2.0, 0.5]))
        assert finite_diff_check(lambda x: relu(x).sum(), point) < 1e-6

    def test_softmax2_symmetry(self):
        out = softmax2(Tensor(np.zeros((1, 2, 2, 2)))).data
        np.testing.assert_allclose(out, 0.5)

    def test_softmax2_stability(self):
        z = np.zeros((1, 2, 1, 1))
        z[0, 0] = 1000.0
        out = softmax2(Tensor(z)).data
        np.testing.assert_allclose(out[0, 0], 1.0)
        np.testing.assert_allclose(out[0, 1], 0.0, atol=1e-300)

    def test_softmax2_sums_to_one(self):
        out = softmax2(Tensor(Rng(15).normal((2, 2, 4, 4)))).data
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=1e-12)

    def test_softmax2_wrong_channels(self):
        with pytest.raises(ValueError):
            softmax2(Tensor(np.zeros((1, 3, 2, 2))))

    def test_softmax2_gradient(self):
        rng = Rng(16)
        w = rng.normal((1, 2, 2, 2))

        def fn(x):
            return (softmax2(x.reshape(1, 2, 2, 2)) * w).sum()

        assert finite_diff_check(fn, Tensor(rng.normal((8,)))) < 1e-4


class TestReplicateUpsample:
    def test_n1_is_identity(self):
        x = Tensor(Rng(17).normal((1, 2, 3, 3)))
        assert replicate_upsample(x, 1) is x

    def test_block_fill(self):
        out = replicate_upsample(Tensor(np.full((1, 1, 1, 1), 5.0)), 2).data
        np.testing.assert_array_equal(out, np.full((1, 1, 2, 2), 5.0))

    def test_block_indexing(self):
        # input position (row 2, col 1) 1-based with n=2 fills output rows 3-4,
        # cols 1-2 (1-based)
        x = np.zeros((1, 1, 3, 3))
        x[0, 0, 1, 0] = 1.0  # (row 2, col 1) in 1-based indexing
        out = replicate_upsample(Tensor(x), 2).data[0, 0]
        filled = np.argwhere(out == 1.0) + 1  # back to 1-based
        assert {tuple(p) for p in filled} == {(3, 1), (3, 2), (4, 1), (4, 2)}

    def test_n0_rejected(self):
        with pytest.raises(ValueError):
            replicate_upsample(Tensor(np.zeros((1, 1, 2, 2))), 0)

    def test_backward_sums_blocks(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        replicate_upsample(x, 3).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full((1, 1, 2, 2), 9.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("factor,shape", [(2, (2, 3, 3, 4)),
                                              (64, (5, 2, 1, 1))])
    def test_backward_matches_block_sum_oracle(self, factor, shape, dtype):
        rng = Rng(factor)
        x = Tensor(rng.normal(shape, dtype=dtype), requires_grad=True)
        g = rng.normal((shape[0], shape[1], shape[2] * factor,
                        shape[3] * factor), dtype=dtype)
        replicate_upsample(x, factor).backward(g)
        want = np.zeros(shape)
        for i in range(shape[2]):
            for j in range(shape[3]):
                block = g[:, :, i * factor:(i + 1) * factor,
                          j * factor:(j + 1) * factor].astype(np.float64)
                want[:, :, i, j] = block.sum(axis=(2, 3))
        tol = 1e-5 if dtype == np.float32 else 1e-12
        assert x.grad.dtype == dtype
        np.testing.assert_allclose(x.grad, want, rtol=0,
                                   atol=tol * factor * factor)

    def test_upsample_then_block_average_is_identity(self):
        x = Rng(18).normal((2, 3, 4, 4))
        up = replicate_upsample(Tensor(x), 4).data
        down = up.reshape(2, 3, 4, 4, 4, 4).mean(axis=(3, 5))
        np.testing.assert_allclose(down, x, rtol=1e-12)


class TestConcatChannels:
    def test_single_tensor_identity(self):
        x = Tensor(Rng(19).normal((1, 3, 2, 2)))
        np.testing.assert_array_equal(concat_channels([x]).data, x.data)

    def test_channel_counts_and_slices(self):
        rng = Rng(20)
        a, b = rng.normal((1, 3, 4, 4)), rng.normal((1, 13, 4, 4))
        out = concat_channels([Tensor(a), Tensor(b)]).data
        assert out.shape[1] == 16
        np.testing.assert_array_equal(out[:, :3], a)
        np.testing.assert_array_equal(out[:, 3:], b)

    def test_spatial_mismatch_raises(self):
        with pytest.raises(ValueError):
            concat_channels([Tensor(np.zeros((1, 1, 4, 4))),
                             Tensor(np.zeros((1, 1, 3, 3)))])

    def test_gradient_split(self):
        rng = Rng(21)
        w = rng.normal((1, 5, 2, 2))

        def fn(x):
            a = x.reshape(1, 5, 2, 2)
            parts = concat_channels([a * 1.0])
            return (parts * w).square().sum()

        assert finite_diff_check(fn, Tensor(rng.normal((20,)))) < 1e-4


class TestReplicateConcat:
    """One op in place of ``concat_channels`` of ``replicate_upsample``
    outputs: the same bytes forward and backward."""

    DESK_SIZES = (64, 32, 16, 8, 4, 2, 1)  # every scale map of the 64x64 model

    @pytest.mark.parametrize("n,dtype", [(1, np.float64), (5, np.float32)])
    def test_matches_replicate_then_concat_bytewise(self, n, dtype):
        rng = Rng(41)
        maps = [_with_negative_zeros(rng.normal((n, 1, h, h), dtype=dtype))
                for h in self.DESK_SIZES]
        g = _with_negative_zeros(rng.normal((n, len(maps), 64, 64), dtype=dtype))
        got_in = [Tensor(m, requires_grad=True) for m in maps]
        want_in = [Tensor(m, requires_grad=True) for m in maps]
        got = replicate_concat(got_in, 64)
        want = concat_channels([replicate_upsample(t, 64 // t.data.shape[2])
                                for t in want_in])
        assert got.data.dtype == want.data.dtype and got.data.flags.c_contiguous
        assert got.data.tobytes() == want.data.tobytes()
        got.backward(g)
        want.backward(g)
        for a, b in zip(got_in, want_in):
            assert a.grad.dtype == b.grad.dtype and a.grad.shape == b.grad.shape
            assert a.grad.tobytes() == b.grad.tobytes()

    def test_several_channels_per_input(self):
        rng = Rng(42)
        a, b = rng.normal((2, 3, 2, 2)), rng.normal((2, 2, 4, 4))
        out = replicate_concat([Tensor(a), Tensor(b)], 4).data
        np.testing.assert_array_equal(out[:, :3], replicate_upsample(Tensor(a), 2).data)
        np.testing.assert_array_equal(out[:, 3:], b)

    def test_gradient_matches_finite_differences(self):
        rng = Rng(43)
        w = rng.normal((1, 20, 6, 6))

        def fn(x):
            maps = [x.reshape(1, 2, 3, 3), x.reshape(1, 18, 1, 1)]
            return (replicate_concat(maps, 6) * w).square().sum()

        assert finite_diff_check(fn, Tensor(rng.normal((18,)))) < 1e-6

    @pytest.mark.parametrize("shapes,size", [
        ([], 4),
        ([(1, 1, 3, 3)], 4),           # 4 is not a multiple of 3
        ([(1, 1, 2, 4)], 4),           # not square
        ([(1, 1, 2, 2), (2, 1, 2, 2)], 4),  # batch sizes differ
    ])
    def test_rejects_what_it_cannot_stack(self, shapes, size):
        with pytest.raises(ValueError):
            replicate_concat([Tensor(np.zeros(s)) for s in shapes], size)


class TestAdjointConsistency:
    """<J dx, dy> == <dx, J^T dy> for every layer, double precision."""

    def check(self, apply_fn, in_shape, seed):
        rng = Rng(seed)
        x0 = rng.normal(in_shape)
        dx = rng.normal(in_shape)
        x = Tensor(x0, requires_grad=True)
        y = apply_fn(x)
        dy = rng.normal(y.data.shape)
        y.backward(dy)
        jt_dy = x.grad
        # J dx by directional finite differences in double precision
        eps = 1e-6
        y1 = apply_fn(Tensor(x0 + eps * dx)).data
        y0 = apply_fn(Tensor(x0 - eps * dx)).data
        j_dx = (y1 - y0) / (2 * eps)
        lhs = (j_dx * dy).sum()
        rhs = (dx * jt_dy).sum()
        assert lhs == pytest.approx(rhs, rel=1e-5, abs=1e-8)

    def test_conv(self):
        p = make_conv(Rng(30), oc=3, ic=2, stride=2)
        self.check(lambda x: conv2d(x, p), (1, 2, 4, 4), 31)

    def test_deconv(self):
        rng = Rng(32)
        p = ConvParams(weight=Tensor(rng.normal((2, 3, 3, 3))),
                       bias=Tensor(np.zeros(3)), stride=2)
        self.check(lambda x: deconv2d(x, p), (1, 2, 3, 3), 33)

    def test_relu(self):
        self.check(relu, (1, 2, 4, 4), 34)

    def test_upsample(self):
        self.check(lambda x: replicate_upsample(x, 2), (1, 2, 3, 3), 35)

    def test_bn_inference(self):
        bn = BatchNormParams(gamma=Tensor(np.array([1.3, -0.4])),
                             beta=Tensor(np.zeros(2)))
        bn.running_var = np.array([0.5, 2.0])
        self.check(lambda x: batch_norm(x, bn, mode="inference"), (2, 2, 3, 3), 36)


def test_conv_then_deconv_restores_shape():
    rng = Rng(40)
    cp = make_conv(rng, oc=4, ic=2, stride=2)
    dp = ConvParams(weight=Tensor(rng.normal((4, 2, 3, 3))),
                    bias=Tensor(np.zeros(2)), stride=2)
    x = Tensor(rng.normal((1, 2, 8, 8)))
    y = deconv2d(conv2d(x, cp), dp)
    assert y.data.shape == x.data.shape
