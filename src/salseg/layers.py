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
  input grid (zeros outside each Ho x Wo corner), so every tap is one add
  of full rows, all channels at once, into one flat accumulator at offset
  i*Wp + j.  The terms that spill past a channel's end into the next
  channel's head come from that channel's last grid positions, outside
  every Ho x Wo corner, so they are exact zeros.  On the desk shapes that
  run this loop, the full-row adds took 0.65-1.03 of the time of the
  per-channel-row adds they replace (batch 1 float64 and float32, batch 5
  float32, medians of 200 interleaved calls, 2-vCPU host).
* At stride 2 (the encoder's halving convs and every transposed conv) each
  tap is one strided slice whose step is the stride; no zero-dilated copy
  of the input is made.

On small maps those per-tap loops cost more than the data they move: at
a 2x2 map each of nine taps copies or adds rows of one to four elements.
So when a tap row holds at most four elements (``_short_rows``: Wo <= 4
on the small side, the patch matrix's output or the output gradient that
col2im scatters), ``_patches`` and ``_conv_bwd_data`` run one ``np.take``
through an index plan instead: one channel's offsets, built with
vectorised numpy on first use, cached per shape and read-only.  col2im
then sums each pixel's gathered terms over the tap axis, from +0.0.  Every
GEMM keeps its operands and its shape, and every element gets the same
terms in the same order, so the results are bit-identical to the loops.
Measured per kernel on every desk shape at batch 1 (float64, float32) and
batch 5 (float32), 2-vCPU host, the gather took 0.35-0.83 of the loop's
time for the patch matrix at Wo <= 4, 0.42-0.87 for stride-2 col2im and
0.57-1.01 for stride-1 col2im.  At Wo = 8 the batch-5 patch matrix of 64
channels took 1.28 (182 -> 234 us), so the boundary is four.

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

import functools
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

def _short_rows(wo):
    """True when a kernel's taps should be one gather instead of a loop:
    the tap rows, one per output row of the small side (the patch
    matrix's Ho x Wo output, or the data gradient's Ho x Wo output
    gradient), hold at most four elements.  Depends on shapes only (see the
    module docstring for the measured boundary)."""
    return wo <= 4


def _read_only(a):
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=128)
def _patch_plan(n, hp, wp, kh, kw, stride, ho, wo):
    """Where the patch matrix finds its entries in one channel's zero-padded
    (N, Hp, Wp) block: offset (i, j, n, y, x) is padded pixel (n, i +
    stride*y, j + stride*x), flattened in the matrix's own row (i, j) and
    column (n, y, x) order.  Read-only; built once per shape."""
    i, j, b, y, x = np.ix_(np.arange(kh) * wp, np.arange(kw),
                           np.arange(n) * (hp * wp), np.arange(ho) * (stride * wp),
                           np.arange(wo) * stride)
    return _read_only((i + j + b + y + x).ravel())


def _patches(x, kh, kw, stride, pad):
    """The patch matrix of ``x`` (N, C, H, W): a contiguous
    (C*kh*kw, N*Ho*Wo) array whose row (c, i, j) holds padded input pixel
    (c, i + stride*y, j + stride*x) for every output position (n, y, x), in
    that order.  Rows follow the kernel's own (C, kh, kw) order, so a
    (oc, C, kh, kw) kernel multiplies it as ``w.reshape(oc, -1)`` without a
    copy.  Each tap is one strided slice copy whose step is the stride, or,
    on short tap rows, all taps are one gather through ``_patch_plan``.
    Returns the matrix and (Ho, Wo)."""
    n, c, h, wd = x.shape
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ValueError("input smaller than kernel after padding")
    hp, wp = h + 2 * pad, wd + 2 * pad
    xp = np.zeros((c, n, hp, wp), dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + wd] = x.transpose(1, 0, 2, 3)
    if _short_rows(wo):
        cols = np.take(xp.reshape(c, -1),
                       _patch_plan(n, hp, wp, kh, kw, stride, ho, wo), axis=1)
        return cols.reshape(c * kh * kw, n * ho * wo), (ho, wo)
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


@functools.lru_cache(maxsize=128)
def _col2im_plan(n, h, wd, kh, kw, stride, pad, ho, wo):
    """Where col2im finds the terms of each input pixel in one channel's
    (kh*kw, width) block of the data gradient's GEMM result: an (R, P)
    array, P = N*H*W, whose column p lists the offsets of pixel p's terms in
    tap order, then the block's last offset, a zero, once for each tap that
    does not reach p.  R is the largest term count.

    At stride 1 a block row is the padded grid (width N*Hp*Wp), and pixel p
    at grid position q gets tap (i, j) from position q - (i*Wp + j) whenever
    that is >= 0: exactly the terms of the run-adds.  The last position lies
    outside every Ho x Wo corner whenever a tap can be missing (k > 1), so
    it holds zero for a finite kernel.  At stride 2 a block row is the (N,
    Ho, Wo) output grid plus one zero column.  A lone pixel (P = 1) is
    listed twice, so that the tap axis is never the sum's inner loop, where
    numpy adds eight or more terms pairwise.  Read-only; built once per
    shape."""
    hp, wp = h + 2 * pad, wd + 2 * pad
    i, j, b, y, x = np.ix_(np.arange(kh), np.arange(kw), np.arange(n),
                           np.arange(pad, pad + h), np.arange(pad, pad + wd))
    if stride == 1:
        width = n * hp * wp
        src = b * (hp * wp) + y * wp + x - (i * wp + j)
        live = src >= 0
    else:
        width = n * ho * wo + 1
        dy, dx = y - i, x - j
        live = ((dy >= 0) & (dy % stride == 0) & (dy < stride * ho)
                & (dx >= 0) & (dx % stride == 0) & (dx < stride * wo))
        src = b * (ho * wo) + dy // stride * wo + dx // stride
    src, live = np.broadcast_arrays((i * kw + j) * width + src, live)
    src = np.where(live, src, width - 1).reshape(kh * kw, -1)
    live = live.reshape(kh * kw, -1)
    first = np.argsort(~live, axis=0, kind="stable")  # live taps first, in order
    plan = np.take_along_axis(src, first, axis=0)[:live.sum(axis=0).max()]
    if plan.shape[1] == 1:
        plan = np.repeat(plan, 2, axis=1)
    return _read_only(np.ascontiguousarray(plan))


def _conv_bwd_data(gy, w, stride, pad, in_hw):
    """Gradient of a correlation w.r.t. its input; also the forward map of the
    transposed convolution with the same kernel.

    One GEMM gives the gradient of the patch matrix; col2im then adds each
    tap's rows back into the padded input, and a crop removes the padding.
    The kernel is neither flipped nor copied.

    At stride 1 the output gradient is first placed in the top-left Ho x Wo
    corner of each zero Hp x Wp padded map, so the GEMM's columns are the
    flattened padded grid.  Tap (i, j) then shifts every column by the same
    flat offset i*Wp + j, and its add is one add of the tap's full
    (C, N*Hp*Wp) rows into the contiguous view at that offset of one flat
    accumulator, C*N*Hp*Wp + (kh - 1)*Wp + kw - 1 long.  A term that
    crosses a row, image or channel boundary comes from the zero margin:
    each channel's last i*Wp + j grid positions lie outside every Ho x Wo
    corner.  It adds an exact zero (+0.0 or -0.0) to a sum that starts at
    +0.0, which leaves the sum unchanged.  At stride 2 the taps
    interleave, and each is one strided slice-add whose step is the stride,
    so no zero-dilated copy of ``gy`` is made.

    On short tap rows (``_short_rows``) col2im is instead one gather of
    every pixel's terms through ``_col2im_plan`` and one sum over the tap
    axis from +0.0: the same terms in the same order as the adds, plus
    zeros, which leave a sum that starts at +0.0 unchanged (such a sum is
    never -0.0).  At stride 2 the GEMM writes its unchanged product into a
    buffer one zero column wider, the zero the plan points missing taps
    at."""
    n, oc, ho, wo = gy.shape
    _, ic, kh, kw = w.shape
    h, wd = in_hw
    hp, wp = h + 2 * pad, wd + 2 * pad
    wmat = w.reshape(oc, -1).T
    gather = _short_rows(wo)
    if stride == 1:
        gyp = np.zeros((oc, n, hp, wp), dtype=gy.dtype)
        gyp[:, :, :ho, :wo] = gy.transpose(1, 0, 2, 3)
        run = n * hp * wp
        dcols = wmat @ gyp.reshape(oc, run)
    elif gather:
        rows = _rows(gy)
        cols = rows.shape[1]
        dcols = np.empty((ic * kh * kw, cols + 1), dtype=np.result_type(wmat, rows))
        dcols[:, cols] = 0
        np.matmul(wmat, rows, out=dcols[:, :cols])
    else:
        dcols = wmat @ _rows(gy)
    if gather:
        plan = _col2im_plan(n, h, wd, kh, kw, stride, pad, ho, wo)
        terms = np.take(dcols.reshape(ic, -1), plan, axis=1)
        gx = np.add.reduce(terms, axis=1, initial=0)[:, :n * h * wd]
        return np.ascontiguousarray(gx.reshape(ic, n, h, wd).transpose(1, 0, 2, 3))
    if stride == 1:
        dcols = dcols.reshape(ic, kh, kw, run)
        span = ic * run
        gxp = np.zeros(span + (kh - 1) * wp + kw - 1, dtype=dcols.dtype)
        for i in range(kh):
            for j in range(kw):
                off = i * wp + j
                acc = gxp[off:off + span].reshape(ic, run)
                acc += dcols[:, i, j]
        gxp = gxp[:span].reshape(ic, n, hp, wp)
    else:
        dcols = dcols.reshape(ic, kh, kw, n, ho, wo)
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


def replicate_concat(inputs, size) -> Tensor:
    """``concat_channels([replicate_upsample(x, size // H), ...])`` of
    square (N, C_i, H, H) tensors, as one op: each input's replication is
    written straight into its channels of one (N, sum C_i, size, size)
    array.  The backward gives each input the copy of its channels of the
    gradient, summed over each replicated block (as the two ops do)."""
    inputs = list(inputs)
    if not inputs:
        raise ValueError("replicate_concat of empty list")
    nb = inputs[0].data.shape[0]
    factors = []
    for t in inputs:
        _, _, h, w = t.data.shape
        if t.data.shape[0] != nb or h != w or h < 1 or size % h:
            raise ValueError(f"replicate_concat: cannot replicate {t.data.shape} "
                             f"to {size}x{size} in a batch of {nb}")
        factors.append(size // h)
    bounds = np.cumsum([0] + [t.data.shape[1] for t in inputs])
    out = np.empty((nb, bounds[-1], size, size),
                   dtype=np.result_type(*(t.data for t in inputs)))
    for t, f, lo, hi in zip(inputs, factors, bounds[:-1], bounds[1:]):
        c, h = t.data.shape[1:3]
        # each row repeated along its contiguous axis once, then copied to
        # its f output rows; splitting an axis of a view is a view, so the
        # copy lands in ``out``
        rows = np.repeat(t.data, f, axis=3) if f > 1 else t.data
        out[:, lo:hi].reshape(nb, c, h, f, size)[...] = rows[:, :, :, None, :]

    def bwd(g):
        grads = []
        for t, f, lo, hi in zip(inputs, factors, bounds[:-1], bounds[1:]):
            gi = g[:, lo:hi].copy()
            if f > 1:
                c, h = t.data.shape[1:3]
                gi = gi.reshape(nb, c, h, f, h, f).sum(axis=(3, 5))
            grads.append(gi)
        return tuple(grads)

    return Tensor._make(out, tuple(inputs), bwd)
