"""Symmetric encoder-decoder network with per-scale feature extraction.

The encoder halves the spatial size and doubles the channel count per block
down to a 1x1 bottleneck; the decoder mirrors it with skip concatenations.
Each of the 2*log2(I)+1 scales (the raw image plus every encoder and decoder
level) contributes one feature map, upsampled by replication to the input
size: one op writes every map's replication straight into its channel of
the stack.  A 16-kernel 1x1 convolution over the stack produces the
per-pixel embedding field, and a 2-kernel 1x1 convolution the foreground /
background probabilities.  That CE head runs when the forward's output is
first asked for ``ce_logits`` or ``ce_probs``, so a caller that reads only
the embedding (the metric-head probe scalar, ``dump-features``) never runs
it; the head has no batch norm, so running it late changes nothing.

The network's structure lives in one place: ``ModelParams.layers``, the
ordered list of ``Layer`` records that ``build`` creates.  A record holds one
convolution or transposed convolution, its optional batch norm, the
parameter-name stems the two own, and its role in the topology (a trunk
layer, possibly a block end whose output is a scale feature or a decoder
block start that joins the mirrored skip; a per-scale extractor; or a head).
``forward``, the parameter and buffer naming (hence the checkpoint blob
directory) and the inference view (batch norm folded into each conv, which
the probes, ``validate``, ``infer`` and the absolute network build on) all
walk that list, in its order, which is also the order of the initializer's
random draws.

Every kernel is stored as its live taps only: the taps that can reach a real
pixel of the layer's map.  A 3x3 conv at the 1x1 bottleneck keeps its centre
tap (a 1x1 kernel), and the stride-2 conv from 2x2 to 1x1 and the transposed
conv from 1x1 to 2x2 keep a 2x2 kernel; the taps cut away would only ever
multiply zero padding, so the network's function is that of the 3x3 one.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from .tensor import Tensor, Rng
from .layers import (ConvParams, BatchNormParams, conv2d, deconv2d, batch_norm,
                     relu, softmax2, concat_channels, replicate_concat)

# every image salseg generates, reads or writes is RGB (PPM P6)
IN_CHANNELS = 3


@dataclass
class ModelConfig:
    input_size: int = 64
    base_channels: int = 8
    convs_per_block: int = 2
    embedding_dim: int = 16

    def __post_init__(self):
        i = self.input_size
        if i < 8 or (i & (i - 1)) != 0:
            raise ValueError(f"input_size must be a power of two >= 8, got {i}")
        if self.convs_per_block < 1:
            raise ValueError("convs_per_block must be >= 1")

    @property
    def levels(self) -> int:
        return int(np.log2(self.input_size))

    @property
    def scale_count(self) -> int:
        return 2 * self.levels + 1

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


@dataclass
class Layer:
    """One convolution of the network and its place in the topology.

    ``role`` is "trunk" (conv, batch norm, ReLU on the running activation),
    "scale" (the single-map extractor of one scale feature, conv and batch
    norm) or "head" (a bare 1x1 conv over the stack; "emb" then "ce").
    """
    role: str
    name: str                       # parameter-name stem of the conv
    conv: ConvParams
    bn_name: str = None             # stem of the batch norm's parameters/buffers
    bn: BatchNormParams = None
    transposed: bool = False        # deconv2d instead of conv2d
    join: int = None                # trunk: scale feature concatenated first
    tap: bool = False               # trunk: output is the next scale feature


@dataclass
class ModelParams:
    config: ModelConfig
    layers: list = field(default_factory=list)  # Layer records, in order

    def named_parameters(self):
        """Ordered (name, Tensor) pairs for every learnable array."""
        out = []
        for layer in self.layers:
            out.append((f"{layer.name}.w", layer.conv.weight))
            out.append((f"{layer.name}.b", layer.conv.bias))
            if layer.bn is not None:
                out.append((f"{layer.bn_name}.gamma", layer.bn.gamma))
                out.append((f"{layer.bn_name}.beta", layer.bn.beta))
        return out

    def named_buffers(self):
        """Ordered (name, ndarray) pairs for the batch-norm running stats."""
        out = []
        for layer in self.layers:
            if layer.bn is not None:
                out.append((f"{layer.bn_name}.running_mean", layer.bn.running_mean))
                out.append((f"{layer.bn_name}.running_var", layer.bn.running_var))
        return out

    def with_role(self, role):
        """The records of one role, in list order."""
        return [layer for layer in self.layers if layer.role == role]


@dataclass
class ForwardOutput:
    """What one forward computes.  The CE head (a bare 1x1 conv of the
    stack, then softmax) runs when ``ce_logits`` or ``ce_probs`` is first
    read, once: a reader of the embedding alone never pays for it.  It
    runs on the parameters as they are at that read, so read ``ce_logits``
    or ``ce_probs`` before the parameters change in place."""
    stack: Tensor             # (N, scale_count, I, I)
    embedding: Tensor         # (N, C, I, I)
    ce_head: Callable = field(repr=False)  # () -> the (N, 2, I, I) logits

    @property
    def scale_maps(self) -> list:
        """The stack's channels: one grad-free (N, 1, I, I) view per scale."""
        return [Tensor(self.stack.data[:, s:s + 1])
                for s in range(self.stack.data.shape[1])]

    @functools.cached_property
    def ce_logits(self) -> Tensor:
        return self.ce_head()

    @functools.cached_property
    def ce_probs(self) -> Tensor:
        return softmax2(self.ce_logits)


def _live_taps(k, size, stride):
    """The per-axis slice of a k x k kernel (padding (k - 1) // 2) that
    holds the taps reaching a real pixel of a size x size input; the others
    only ever multiply zero padding.  A 3x3 kernel keeps its centre tap at a
    1x1 map (stride 1) and taps 1-2 for a 2x2 map at stride 2; larger maps
    keep all taps.  The cut kernel's own padding lines up with the cut."""
    pad = (k - 1) // 2
    out = (size + 2 * pad - k) // stride + 1
    live = slice(max(0, pad - stride * (out - 1)), min(k, pad + size))
    assert (live.stop - live.start - 1) // 2 == pad - live.start
    return live


def _init_conv(weights, cin, cout, k, size, stride, dtype, transposed=False):
    """Kernel ``weights(shape, std)`` with the k x k fan-in-scaled std, shape
    (cout, cin, k, k) for a conv and (cin, cout, k, k) for a transposed
    conv, then cut to its live taps on a size x size input (the output
    map, for a transposed conv); zero bias.  The full k x k draw keeps each
    seed's random stream, and so its function, independent of the cut."""
    shape = (cin, cout, k, k) if transposed else (cout, cin, k, k)
    std = float(np.sqrt(2.0 / (cin * k * k)))
    live = _live_taps(k, size, stride)
    weight = np.ascontiguousarray(weights(shape, std)[:, :, live, live])
    return ConvParams(weight=Tensor(weight, requires_grad=True),
                      bias=Tensor(np.zeros(cout, dtype=dtype), requires_grad=True),
                      stride=stride)


def _init_bn(c, dtype):
    return BatchNormParams(gamma=Tensor(np.ones(c, dtype=dtype), requires_grad=True),
                           beta=Tensor(np.zeros(c, dtype=dtype), requires_grad=True))


def build(config: ModelConfig, rng: Rng, dtype=np.float32) -> ModelParams:
    """Initialize all parameters: fan-in-scaled normal weights, zero biases,
    unit-gain batch norms.  Deterministic given the rng state."""
    return _build(config, lambda shape, std: rng.normal(shape, std=std, dtype=dtype),
                  dtype)


def _build(config: ModelConfig, weights, dtype) -> ModelParams:
    """The layer walk behind ``build``: ``weights(shape, std)`` supplies each
    conv kernel in list order (the checkpoint loader passes zeros, which it
    then overwrites, instead of drawing)."""
    kconv = config.convs_per_block
    levels = config.levels
    p = ModelParams(config=config)
    # (channels, map size) of each scale feature; scale 0 is the raw image
    feats = [(IN_CHANNELS, config.input_size)]

    def add(role, name, cin, cout, size, bn_name=None, k=3, stride=1,
            transposed=False, join=None, tap=False):
        # ``size`` is the input map of a conv and the output map of a
        # transposed conv (the input of the conv it is the adjoint of)
        conv = _init_conv(weights, cin, cout, k, size, stride, dtype, transposed)
        bn = _init_bn(cout, dtype) if bn_name else None
        p.layers.append(Layer(role, name, conv, bn_name, bn, transposed, join, tap))
        if tap:
            feats.append((cout, size if transposed else size // stride))

    c, m = config.base_channels, config.input_size
    add("trunk", "input.conv", IN_CHANNELS, c, m, "input.bn")
    for b in range(levels):
        for j in range(kconv - 1):
            add("trunk", f"enc{b}.conv{j}", c, c, m, f"enc{b}.bn{j}")
        add("trunk", f"enc{b}.conv{kconv - 1}", c, 2 * c, m, f"enc{b}.bn{kconv - 1}",
            stride=2, tap=True)
        c, m = 2 * c, m // 2

    # decoder mirrors: the block input is concatenated with the matching
    # encoder output (scale levels - b, same channel count), convs back to
    # c, deconv to c // 2
    for b in range(levels):
        cin, join = 2 * c, levels - b
        for j in range(kconv - 1):
            add("trunk", f"dec{b}.conv{j}", cin, c, m, f"dec{b}.bn{j}", join=join)
            cin, join = c, None
        add("trunk", f"dec{b}.deconv", cin, c // 2, 2 * m, f"dec{b}.bn{kconv - 1}",
            stride=2, transposed=True, join=join, tap=True)
        c, m = c // 2, 2 * m

    # one single-map extractor per scale: raw image, then every encoder and
    # decoder block output
    for s, (sc, size) in enumerate(feats):
        add("scale", f"scale{s}", sc, 1, size, f"scale{s}.bn")

    stack_ch = config.scale_count
    add("head", "emb", stack_ch, config.embedding_dim, config.input_size, k=1)
    add("head", "ce", stack_ch, 2, config.input_size, k=1)
    return p


def inference_view(params: ModelParams, input_dtype) -> ModelParams:
    """The network as a fixed function of its input, for inference-mode
    forwards that take no gradient.  Each batch norm's running statistics
    are folded into its conv: with a = gamma / sqrt(var + eps), the kernel
    is scaled by a along its output-channel axis (axis 1 of a transposed
    kernel) and the bias becomes a * b + beta - mean * a, so the record has
    no batch norm.  Every weight and bias is cast once to the compute dtype,
    the promotion of ``input_dtype`` and the parameters' dtypes, and no
    tensor requires a gradient.  The view shares no array with ``params``.
    It is not a model to train or save: it has no batch norms, and a
    train-mode forward through it would normalise nothing."""
    dtype = np.result_type(input_dtype,
                           *(p.dtype for _, p in params.named_parameters()))

    def fold(layer):
        w = layer.conv.weight.data.astype(np.float64)
        b = layer.conv.bias.data.astype(np.float64)
        if layer.bn is not None:
            bn = layer.bn
            a = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
            w *= a.reshape((1, -1, 1, 1) if layer.transposed else (-1, 1, 1, 1))
            b = a * b + bn.beta.data - bn.running_mean * a
        conv = ConvParams(weight=Tensor(w.astype(dtype, copy=False)),
                          bias=Tensor(b.astype(dtype, copy=False)),
                          stride=layer.conv.stride)
        return replace(layer, conv=conv, bn_name=None, bn=None)

    return ModelParams(config=params.config,
                       layers=[fold(layer) for layer in params.layers])


def forward(params: ModelParams, image: Tensor, mode: str = "inference",
            update_running: bool = None) -> ForwardOutput:
    """Run the network.  ``mode`` is "train" (batch statistics) or
    "inference" (running statistics).  The robustness bound runs its
    absolute network (non-negative kernels, zero biases, no batch norm)
    through this same forward, where every ReLU input is >= 0."""
    cfg = params.config
    if mode not in ("train", "inference"):
        raise ValueError(f"unknown mode {mode!r}")
    if update_running is None:
        update_running = mode == "train"
    x = image if isinstance(image, Tensor) else Tensor(image)
    n, c, h, w = x.data.shape
    if c != IN_CHANNELS or h != cfg.input_size or w != cfg.input_size:
        raise ValueError(f"image shape {x.data.shape} does not match config "
                         f"(N, {IN_CHANNELS}, {cfg.input_size}, {cfg.input_size})")

    def apply(layer, t):
        # the ops are looked up in this module at call time, so wrapping
        # salseg.model.conv2d & co. from outside sees every call
        t = (deconv2d if layer.transposed else conv2d)(t, layer.conv)
        if layer.bn is None:
            return t
        return batch_norm(t, layer.bn, mode=mode, update_running=update_running)

    feats = [x]  # per-scale trunk activations, scale 0 = raw image
    t = x
    for layer in params.with_role("trunk"):
        if layer.join is not None:
            t = concat_channels([t, feats[layer.join]])
        t = relu(apply(layer, t))
        if layer.tap:
            feats.append(t)

    assert feats[cfg.levels].data.shape[2:] == (1, 1), "bottleneck must be 1x1"

    # the per-scale maps are normalized before stacking; without this the
    # scale convs and the heads form an unnormalized two-layer chain whose
    # weights can grow without bound under the metric objective
    stack = replicate_concat([apply(layer, feat) for feat, layer
                              in zip(feats, params.with_role("scale"))],
                             cfg.input_size)
    emb_head, ce_head = params.with_role("head")
    # the CE head has no batch norm, so running it later changes no state
    return ForwardOutput(stack=stack, embedding=apply(emb_head, stack),
                         ce_head=lambda: apply(ce_head, stack))
