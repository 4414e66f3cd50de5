"""Differentiable layers: strided convolution, transposed convolution, batch
normalization, ReLU, two-channel softmax, channel concatenation and
replication upsampling.

Kernels are k x k with zero padding (k - 1) // 2, so 3x3 and 1x1 stride-1
layers preserve spatial size and 3x3 and 2x2 stride-2 layers exactly halve
it; transposed convolutions exactly double it.

Each convolution kernel is one BLAS GEMM.  The forward map and the weight
gradient multiply by the patch matrix: the padded input's kh*kw taps copied
once into a contiguous (C*kh*kw, N*Ho*Wo) array whose rows are in the
kernel's (C, kh, kw) order.  The data gradient (which is also the transposed
convolution's forward map) multiplies by the transposed kernel matrix and
adds the result back into the input, one slice-add per tap (col2im):

* At stride 1 the GEMM runs on the output gradient laid out on the padded
  input grid (zeros outside each Ho x Wo corner), so every tap is one
  contiguous run of the flattened padded map at flat offset i*Wp + j.
* At stride 2 (the encoder's halving convs and every transposed conv) each
  tap is one strided slice whose step is the stride; no zero-dilated copy
  of the input is made.

A 1x1 stride-1 conv (the two heads and the convs at the 1x1 bottleneck)
needs no patch matrix at all: it is one batched matmul of the (oc, C)
kernel with the (N, C, H*W) view of the NCHW input, and its gradients are
matmuls on the same views.

Two shape rules make the weight gradients fast without changing a bit:

* When the patch matrix is wider than it is tall (N*Ho*Wo > C*kh*kw, the
  large maps), its weight gradient is the (C*kh*kw, oc) product of the
  patch matrix with the transposed output gradient, transposed back.
  OpenBLAS runs this orientation of the skinny product about twice as
  fast.  On the small maps, where the patch matrix is taller than wide,
  that form and the copy of its strided result into the parameter's
  gradient take up to three times as long, so they keep the
  (oc, C*kh*kw) product.
* A 1x1 conv on a 1x1 map (the bottleneck) takes its weight gradient as
  one ``einsum`` over the images in place of N rank-1 matmuls and their
  sum.  Larger maps keep the batched matmul, which is already one GEMM
  per image.

Both gave bit-identical results to the forms they replace on every desk
shape, so desk training is unchanged bit for bit.  Together they took a
desk training step (64x64, base 4, batch 5) from 38.7 to 36.5 ms, the
medians of 400 interleaved pairs of steps in one process on a 2-vCPU
host.

A conv gathers its taps on one of two sides:

* Input side (im2col): the forward multiplies the input's patch matrix,
  kept in the closure for the weight gradient when that gradient is
  wanted; the data gradient is col2im.
* Output side (kn2row): at stride 1 with padding (k - 1) // 2, a
  correlation with w (oc, C, k, k) equals the transposed correlation with
  wt = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), so the forward is col2im
  of an (oc*k*k, N*H*W) product and the backward builds the patch matrix of
  the (narrow) output gradient once for both gradients, exactly as
  ``deconv2d`` does.  The closure keeps wt and no patch matrix.

For k > 1, ``conv2d`` takes the output side when that moves fewer elements:
oc*(N*H*W + C) < C*N*H*W, the output-side patch matrix plus one kernel copy
against the input-side patch matrix (per tap).  The rule depends on shapes
only.  In the desk model it picks the 3x3 C -> 1 scale extractors and the
decoder's first conv of the wider blocks; the wide convs on small maps stay
on the input side, where flipping a large kernel would cost more than it
saves.

Each op adds its bias in place into the array it has just computed, and a
ReLU on an input that needs no gradient builds no mask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor


@dataclass
class ConvParams:
    """Weights (out_ch, in_ch, kh, kw) for conv; (in_ch, out_ch, kh, kw) for
    transposed conv.  Padding is implied by kernel size: (k - 1) // 2."""
    weight: Tensor
    bias: Tensor
    stride: int = 1

    @property
    def pad(self) -> int:
        return (self.weight.data.shape[2] - 1) // 2


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray = field(default=None)
    running_var: np.ndarray = field(default=None)
    eps: float = 1e-5
    momentum: float = 0.9

    def __post_init__(self):
        c = self.gamma.data.shape[0]
        if self.running_mean is None:
            self.running_mean = np.zeros(c, dtype=np.float64)
        if self.running_var is None:
            self.running_var = np.ones(c, dtype=np.float64)


# -- raw convolution kernels (shared by forward and adjoint paths) -------------

def _patches(x, kh, kw, stride, pad):
    """The patch matrix of ``x`` (N, C, H, W): a contiguous
    (C*kh*kw, N*Ho*Wo) array whose row (c, i, j) holds padded input pixel
    (c, i + stride*y, j + stride*x) for every output position (n, y, x), in
    that order.  Rows follow the kernel's own (C, kh, kw) order, so a
    (oc, C, kh, kw) kernel multiplies it as ``w.reshape(oc, -1)`` without a
    copy.  Each tap is one strided slice copy; the stride is its step.
    Returns the matrix and (Ho, Wo)."""
    n, c, h, wd = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("input smaller than kernel after padding")
    xp = np.zeros((c, n, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + stride * (ho - 1) + 1:stride,
                               j:j + stride * (wo - 1) + 1:stride]
    return cols.reshape(c * kh * kw, n * ho * wo), (ho, wo)


def _rows(g):
    """(N, C, H, W) -> (C, N*H*W), the column order of the patch matrix."""
    return g.transpose(1, 0, 2, 3).reshape(g.shape[1], -1)


def _conv_fwd(cols, w, n, out_hw):
    """Correlation with ``w`` (oc, C, kh, kw), given the (C*kh*kw, N*Ho*Wo)
    patch matrix of its input (see ``_patches``; the stride is the step of
    its tap slices): one GEMM with the (oc, C*kh*kw) kernel matrix."""
    oc = w.shape[0]
    out = w.reshape(oc, -1) @ cols
    return np.ascontiguousarray(out.reshape(oc, n, *out_hw).transpose(1, 0, 2, 3))


def _conv_bwd_w(cols, gy, w_shape):
    """Gradient of the correlation w.r.t. its kernel of shape ``w_shape``
    (oc, C, kh, kw), given the patch matrix of its input: one GEMM of the
    (oc, N*Ho*Wo) output gradient with the transposed patch matrix, whose
    rows are already in kernel order.  When the patch matrix is wider than
    it is tall, the GEMM runs as the (C*kh*kw, oc) product and is
    transposed back (see the module docstring)."""
    rows = _rows(gy)
    if cols.shape[1] > cols.shape[0]:
        return (cols @ rows.T).T.reshape(w_shape)
    return (rows @ cols.T).reshape(w_shape)


def _conv_bwd_data(gy, w, stride, pad, in_hw):
    """Gradient of a correlation w.r.t. its input; also the forward map of the
    transposed convolution with the same kernel.

    One GEMM gives the gradient of the patch matrix; col2im then adds each
    tap's rows back into the padded input, and a crop removes the padding.
    The kernel is neither flipped nor copied.

    At stride 1 the output gradient is first placed in the top-left Ho x Wo
    corner of each zero Hp x Wp padded map, so the GEMM's columns are the
    flattened padded grid.  Tap (i, j) then shifts every column by the same
    flat offset i*Wp + j, and its add is one contiguous run of N*Hp*Wp
    elements per channel row: an entry that crosses a row or image boundary
    comes from the zero margin, so it adds nothing.  At stride 2 the taps
    interleave, and each is one strided slice-add whose step is the stride,
    so no zero-dilated copy of ``gy`` is made."""
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
        dcols = (wmat @ _rows(gy)).reshape(ic, kh, kw, n, ho, wo)
        gxp = np.zeros((ic, n, hp, wp), dtype=dcols.dtype)
        for i in range(kh):
            for j in range(kw):
                gxp[:, :, i:i + stride * (ho - 1) + 1:stride,
                    j:j + stride * (wo - 1) + 1:stride] += dcols[:, i, j]
    return np.ascontiguousarray(
        gxp[:, :, pad:pad + h, pad:pad + wd].transpose(1, 0, 2, 3))


# -- autodiff-aware layers -----------------------------------------------------

def _flip_t(w):
    """(a, b, kh, kw) -> (b, a, kh, kw) with both spatial axes reversed,
    contiguous.  At stride 1 with padding (k - 1) // 2 a correlation with
    ``w`` is the transposed correlation with ``_flip_t(w)``, and the map is
    its own inverse."""
    return np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


def _narrow_side(n, c, h, wd, w_shape, stride):
    """True when a stride-1 conv should gather its taps on its output side:
    the output-side patch matrix plus one kernel copy, oc*(N*H*W + C)
    elements per tap, is smaller than the input-side patch matrix,
    C*N*H*W.  Depends on shapes only."""
    oc, _, kh, kw = w_shape
    npix = n * h * wd
    return (stride == 1 and kh == kw and kh % 2 == 1
            and oc * (npix + c) < c * npix)


def _scatter_op(x, w, b, stride, pad, out_hw, flipped=False):
    """The transposed correlation of ``x`` with a kernel (in_ch, out_ch, kh,
    kw), plus ``b``, recorded as an op on (x, w, b).  The kernel is
    ``w.data``, or ``_flip_t(w.data)`` when ``flipped``.  The backward pass
    builds the patch matrix of its output gradient once and multiplies it
    for both gradients."""
    kernel = _flip_t(w.data) if flipped else w.data
    n, _, h, wd = x.data.shape
    _, _, kh, kw = kernel.shape
    out = _conv_bwd_data(x.data, kernel, stride, pad, out_hw)
    out += b.data.reshape(1, -1, 1, 1)

    def bwd(g):
        gx = gw = None
        if x.requires_grad or w.requires_grad:
            cols, _ = _patches(g, kh, kw, stride, pad)
            if x.requires_grad:
                gx = _conv_fwd(cols, kernel, n, (h, wd))
            if w.requires_grad:
                gw = _conv_bwd_w(cols, x.data, kernel.shape)
                gw = _flip_t(gw) if flipped else gw
        gb = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        return gx, gw, gb

    return Tensor._make(out, (x, w, b), bwd)


def _pointwise_op(x, w, b):
    """A 1x1 stride-1 correlation, plus ``b``, recorded as an op on (x, w,
    b): one batched matmul of the (oc, C) kernel with the (N, C, H*W) view
    of the input, so there is no patch matrix and no transpose.  The
    backward is gx = w^T @ g per image and gw = sum over images of
    g @ x^T; on a 1x1 map that sum of outer products is one ``einsum``."""
    n, c, h, wd = x.data.shape
    oc = w.data.shape[0]
    wmat = w.data.reshape(oc, c)
    x3 = x.data.reshape(n, c, h * wd)
    out = wmat @ x3
    out += b.data.reshape(1, -1, 1)

    def bwd(g):
        g3 = g.reshape(n, oc, h * wd)
        gx = (wmat.T @ g3).reshape(x.data.shape) if x.requires_grad else None
        gw = None
        if w.requires_grad:
            if h * wd == 1:
                # N rank-1 matmuls are slow; the einsum sums the same
                # products in the same order
                gw = np.einsum("no,nc->oc", g.reshape(n, oc), x.data.reshape(n, c))
            else:
                gw = (g3 @ x3.transpose(0, 2, 1)).sum(axis=0)
            gw = gw.reshape(w.data.shape)
        gb = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        return gx, gw, gb

    return Tensor._make(out.reshape(n, oc, h, wd), (x, w, b), bwd)


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    w, b, stride, pad = params.weight, params.bias, params.stride, params.pad
    if stride not in (1, 2):
        raise ValueError("stride must be 1 or 2")
    n, c, h, wd = x.data.shape
    if c != w.data.shape[1]:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {w.data.shape[1]}")
    if stride == 2 and (h % 2 or wd % 2):
        raise ValueError(f"stride-2 conv needs even spatial size, got {h}x{wd}")
    if stride == 1 and w.data.shape[2:] == (1, 1):
        return _pointwise_op(x, w, b)
    if _narrow_side(n, c, h, wd, w.data.shape, stride):
        return _scatter_op(x, w, b, 1, pad, (h, wd), flipped=True)
    cols, out_hw = _patches(x.data, w.data.shape[2], w.data.shape[3], stride, pad)
    out = _conv_fwd(cols, w.data, n, out_hw)
    out += b.data.reshape(1, -1, 1, 1)
    # the weight gradient is the one reader of the forward's patch matrix:
    # the closure keeps it only when that gradient is wanted
    cols = cols if w.requires_grad else None

    def bwd(g):
        gx = _conv_bwd_data(g, w.data, stride, pad, (h, wd)) if x.requires_grad else None
        gw = _conv_bwd_w(cols, g, w.data.shape) if w.requires_grad else None
        gb = g.sum(axis=(0, 2, 3)) if b.requires_grad else None
        return gx, gw, gb

    return Tensor._make(out, (x, w, b), bwd)


def deconv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Transposed convolution with stride 2; exact adjoint of the matching
    stride-2 convolution, so spatial size doubles."""
    w = params.weight
    if params.stride != 2:
        raise ValueError("deconv2d requires stride 2")
    n, c, h, wd = x.data.shape
    if c != w.data.shape[0]:
        raise ValueError(f"channel mismatch: input has {c}, kernel expects {w.data.shape[0]}")
    return _scatter_op(x, w, params.bias, 2, params.pad, (2 * h, 2 * wd))


def batch_norm(x: Tensor, params: BatchNormParams, mode: str = "train",
               update_running: bool = True) -> Tensor:
    """Per-channel normalisation of ``x`` (N, C, H, W), then gamma * x + beta.

    Every per-channel sum is one contraction over the contiguous (N, C, H*W)
    view.  Train mode centres the input once and reuses the centred array
    for the (biased) variance and, scaled per channel by gamma / sqrt(var +
    eps), for the output, so x_hat = (x - mean) / sqrt(var + eps) is never
    stored; the backward needs only the sums of g and g * x_hat and builds
    the input gradient in place in the centred array.  Inference mode folds
    the running statistics into a per-channel gain and shift, so each
    direction is one scaling."""
    if mode not in ("train", "inference"):
        raise ValueError(f"unknown batch-norm mode {mode!r}")
    gamma, beta = params.gamma, params.beta
    n, c = x.data.shape[:2]
    x3 = x.data.reshape(n, c, -1)

    if mode == "inference":
        dt = x.data.dtype
        rm = params.running_mean.astype(dt)
        s = (1.0 / np.sqrt(params.running_var + params.eps)).astype(dt)
        a = gamma.data * s
        out = x3 * a[:, None]
        out += (beta.data - rm * a)[:, None]

        def bwd(g):
            g3 = g.reshape(n, c, -1)
            gx = g * a.reshape(1, -1, 1, 1) if x.requires_grad else None
            sg = np.einsum("nck->c", g3)
            # sum of g * x_hat, with x_hat = (x - rm) * s never formed
            gg = (s * (np.einsum("nck,nck->c", g3, x3) - rm * sg)
                  if gamma.requires_grad else None)
            return gx, gg, sg if beta.requires_grad else None

        return Tensor._make(out.reshape(x.data.shape), (x, gamma, beta), bwd)

    if n < 2:
        raise ValueError("batch norm in train mode needs batch size >= 2")
    cnt = n * x3.shape[2]
    mean = np.einsum("nck->c", x3) / cnt
    xc = x3 - mean[:, None]
    var = np.einsum("nck,nck->c", xc, xc) / cnt
    inv = 1.0 / np.sqrt(var + params.eps)
    k = gamma.data * inv
    out = xc * k[:, None]
    out += beta.data[:, None]

    if update_running:
        mom = params.momentum
        params.running_mean = mom * params.running_mean + (1 - mom) * mean.astype(np.float64)
        params.running_var = mom * params.running_var + (1 - mom) * var.astype(np.float64)

    def bwd(g):
        g3 = g.reshape(n, c, -1)
        sg = np.einsum("nck->c", g3)
        sgx = np.einsum("nck,nck->c", g3, xc) * inv  # sum of g * x_hat
        gx = None
        if x.requires_grad:
            # gx = k * (g - (sum(g) + x_hat * sum(g * x_hat)) / cnt), built
            # in the centred input's buffer: a graph runs backward only once
            gx = xc
            gx *= (inv * sgx / cnt)[:, None]
            gx += (sg / cnt)[:, None]
            np.subtract(g3, gx, out=gx)
            gx *= k[:, None]
            gx = gx.reshape(x.data.shape)
        return (gx, sgx if gamma.requires_grad else None,
                sg if beta.requires_grad else None)

    return Tensor._make(out.reshape(x.data.shape), (x, gamma, beta), bwd)


def relu(x: Tensor) -> Tensor:
    """max(x, 0).  The mask the backward multiplies by is built only when
    ``x`` needs a gradient; otherwise there is no backward to keep."""
    if not x.requires_grad:
        return Tensor(np.maximum(x.data, 0))
    mask = x.data > 0

    def bwd(g):
        return (g * mask,)

    return Tensor._make(x.data * mask, (x,), bwd)


def softmax2(x: Tensor) -> Tensor:
    """Per-pixel softmax over exactly two channels (axis 1), max-stabilized."""
    if x.data.shape[1] != 2:
        raise ValueError(f"softmax2 expects 2 channels, got {x.data.shape[1]}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def bwd(g):
        dot = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - dot),)

    return Tensor._make(p, (x,), bwd)


def replicate_upsample(x: Tensor, n: int) -> Tensor:
    """Each input value fills an n x n output block; the backward pass sums
    gradients over the block."""
    if n < 1:
        raise ValueError("upsample factor must be >= 1")
    if n == 1:
        return x
    nb, c, h, w = x.data.shape
    out = np.repeat(np.repeat(x.data, n, axis=2), n, axis=3)

    def bwd(g):
        return (g.reshape(nb, c, h, n, w, n).sum(axis=(3, 5)),)

    return Tensor._make(out, (x,), bwd)


def concat_channels(inputs) -> Tensor:
    """Stack (N, C_i, H, W) tensors along the channel axis."""
    inputs = list(inputs)
    if not inputs:
        raise ValueError("concat_channels of empty list")
    hw = inputs[0].data.shape[2:]
    nb = inputs[0].data.shape[0]
    for t in inputs:
        if t.data.shape[2:] != hw or t.data.shape[0] != nb:
            raise ValueError("concat_channels inputs must share N, H, W")
    out = np.concatenate([t.data for t in inputs], axis=1)
    bounds = np.cumsum([0] + [t.data.shape[1] for t in inputs])

    def bwd(g):
        return tuple(g[:, lo:hi].copy() for lo, hi in zip(bounds[:-1], bounds[1:]))

    return Tensor._make(out, tuple(inputs), bwd)
