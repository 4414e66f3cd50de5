"""Sensitivity probes for a trained model: exact input gradients and their
statistics, a Monte-Carlo directional derivative estimator, and an
element-wise Jacobian upper bound with the implied Lipschitz constant.

The scalar the probes differentiate is the sum of the metric saliency map
with the background centroid frozen (so the map is a fixed function of the
input), or optionally the sum of the predicted-salient probabilities.  The
upper bound G is obtained by one backward pass through the "absolute
network": every linear coefficient replaced by its absolute value, every
nonlinearity's derivative by 1.  G then dominates |g| at every input, and
M = ‖G‖ bounds the output change per unit input change.

The Monte-Carlo estimator, which only evaluates the scalar, runs through
the model's inference view, built once per call: batch norm folded into
the convs, weights cast once to the compute dtype, no autodiff graph.  A
Monte-Carlo direction computes only what its scalar reads: x + t·n is
formed in the direction's own buffer, the scalar records no op, and on the
metric head (centroid frozen) the CE head of the forward never runs.
``input_gradient`` differentiates the trained parameters themselves.  The
absolute network is the view's magnitudes with zero biases, run through
the plain ``forward`` on all-ones: no ReLU input is negative, and one at
exactly 0 has a zero product on every path to it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .tensor import Tensor, Rng
from .model import IN_CHANNELS, ModelParams, forward, inference_view
from .saliency import background_centroid

_NORM_EPS = 1e-12
_HEADS = ("metric", "ce")
_NORMS = ("l1", "l2", "linf")


@dataclass
class JacobianReport:
    """Statistics of |g| per image plus their arithmetic means."""
    per_image: list   # dicts with keys max, min, median, mean, var
    summary: dict

    columns = ("max", "min", "median", "mean", "var")

    def to_dict(self):
        return asdict(self)


@dataclass
class DirectionalEstimate:
    p: float
    t: float
    n_samples: int
    estimate: float
    stderr: float


@dataclass
class BoundReport:
    bound_field: np.ndarray  # G, same shape as one input image, >= 0
    l1: float
    l2: float
    linf: float
    norm: str
    lipschitz: float

    def to_dict(self):
        return {"l1": self.l1, "l2": self.l2, "linf": self.linf}


def check_head(head):
    """Reject a probe scalar other than "metric" or "ce"."""
    if head not in _HEADS:
        raise ValueError(f"unknown scalarization head {head!r}")


def check_norm(norm):
    """Reject a Lipschitz norm other than "l1", "l2" or "linf"."""
    if norm not in _NORMS:
        raise ValueError(f"unknown norm {norm!r}; expected one of {_NORMS}")


def check_mc(p, t, n_samples):
    """Reject a Monte-Carlo order p < 1, step t <= 0 or no sample."""
    if not t > 0:
        raise ValueError("step t must be positive")
    if not p >= 1:
        raise ValueError("order p must be >= 1")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")


def _frozen_centroid(out):
    return background_centroid(out.embedding.data[0], out.ce_probs.data[0])


def _scalarize(out, head, centroid=None):
    """The probe scalar of a single-image ForwardOutput as one recorded op.

    ``metric``: Σ_p √(‖e_p − c‖² + ε) over the embedding e and the frozen
    background centroid c, gradient (e_p − c) / √(‖e_p − c‖² + ε).
    ``ce``: Σ p₁ over the salient-class probabilities, gradient 1 on
    channel 1.  On an output that needs no gradient ``Tensor._make``
    records nothing."""
    if head == "ce":
        probs = out.ce_probs.data

        def ce_bwd(g):
            grad = np.zeros_like(probs)
            grad[:, 1] = g
            return (grad,)

        return Tensor._make(probs[:, 1].sum(), (out.ce_probs,), ce_bwd)
    if centroid is None:
        centroid = _frozen_centroid(out)
    emb = out.embedding.data
    diff = emb - centroid.reshape(1, -1, 1, 1).astype(emb.dtype)
    # the epsilon keeps the gradient finite where a pixel sits exactly on
    # the centroid; the per-channel derivative stays bounded by 1
    dist = (diff * diff).sum(axis=1)
    dist += _NORM_EPS
    np.sqrt(dist, out=dist)

    def metric_bwd(g):
        return (2.0 * diff * (g * (0.5 / dist))[:, None],)

    return Tensor._make(dist.sum(), (out.embedding,), metric_bwd)


def _probe_forward(view: ModelParams, image):
    """Inference forward of one (C, H, W) image through an inference view."""
    return forward(view, Tensor(image[None]))


def _probe_scalar(view: ModelParams, image, head, centroid) -> float:
    return float(_scalarize(_probe_forward(view, image), head, centroid).data)


def input_gradient(params: ModelParams, image, head="metric") -> np.ndarray:
    """Exact gradient of the probe scalar with respect to one (C, H, W)
    input image; one forward and one backward pass in inference mode
    (train-mode batch statistics would make the scalar batch-dependent).
    The pass also leaves gradients on the model's parameters;
    ``train_loop`` discards any such leftovers before its own backward
    pass."""
    check_head(head)
    x = Tensor(np.asarray(image, dtype=np.float64)[None], requires_grad=True)
    out = forward(params, x)
    _scalarize(out, head).backward(np.ones(()))
    return x.grad[0]


def _field_stats(g):
    a = np.abs(np.asarray(g, dtype=np.float64)).reshape(-1)
    return {"max": float(a.max()), "min": float(a.min()),
            "median": float(np.median(a)), "mean": float(a.mean()),
            "var": float(a.var())}


def jacobian_stats(gradients) -> JacobianReport:
    """Per-image statistics of |g| and their dataset means.  Variance is the
    population variance."""
    per_image = [_field_stats(g) for g in gradients]
    if not per_image:
        raise ValueError("jacobian_stats needs at least one gradient field")
    summary = {k: float(np.mean([row[k] for row in per_image]))
               for k in JacobianReport.columns}
    return JacobianReport(per_image=per_image, summary=summary)


def mc_directional_fn(f, x, p, t, n_samples, rng: Rng) -> DirectionalEstimate:
    """Monte-Carlo estimate of E over unit directions of |f(x+t·n) - f(x)|^p / t^p.

    For a linear f and p = 2 this converges to ‖∇f‖² / d, where d is the
    input dimension; the estimator keeps that d factor rather than
    correcting for it.
    """
    check_mc(p, t, n_samples)
    x = np.asarray(x, dtype=np.float64)
    d = x.size
    f0 = float(f(x))
    vals = np.empty(n_samples)
    for i in range(n_samples):
        # x + t·n, formed in the direction's own buffer
        point = rng.uniform_sphere(d).reshape(x.shape)
        point *= t
        point += x
        vals[i] = abs(float(f(point)) - f0) ** p / t ** p
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples)) if n_samples > 1 else 0.0
    return DirectionalEstimate(p=float(p), t=float(t), n_samples=n_samples,
                               estimate=est, stderr=stderr)


def mc_directional_norm(params: ModelParams, image, p=2.0, t=1e-4,
                        n_samples=100, rng: Rng = None,
                        head="metric") -> DirectionalEstimate:
    """Directional estimator applied to the model's probe scalar around one
    image, with the centroid frozen at the unperturbed input."""
    check_head(head)
    if rng is None:
        rng = Rng(0)
    image = np.asarray(image, dtype=np.float64)
    view = inference_view(params, image.dtype)
    centroid = None
    if head == "metric":
        centroid = _frozen_centroid(_probe_forward(view, image))

    def f(x):
        return _probe_scalar(view, x, head, centroid)

    return mc_directional_fn(f, image, p, t, n_samples, rng)


def _absolute_params(params: ModelParams) -> ModelParams:
    """The inference view with every coefficient replaced by its absolute
    value and every shift dropped.  Batch norm is folded into the convs, so
    a kernel's |a * W| is |gamma| / sqrt(var + eps) times |W|."""
    view = inference_view(params, np.float64)
    for layer in view.layers:
        np.abs(layer.conv.weight.data, out=layer.conv.weight.data)
        layer.conv.bias.data[...] = 0.0
    return view


def lipschitz_bound(params: ModelParams, norm="l2", head="metric") -> BoundReport:
    """Element-wise upper bound G on |input_gradient| at any input, the
    gradient of the absolute network's embedding sum (metric head) or logit
    sum (CE head), and the Lipschitz constant M = ‖G‖ in the selected norm."""
    check_head(head)
    check_norm(norm)
    size = params.config.input_size
    x = Tensor(np.ones((1, IN_CHANNELS, size, size)), requires_grad=True)
    out = forward(_absolute_params(params), x)
    scalar = out.ce_logits.sum() if head == "ce" else out.embedding.sum()
    scalar.backward(np.ones(()))
    g = x.grad[0]
    l1 = float(np.abs(g).sum())
    l2 = float(np.sqrt((g ** 2).sum()))
    linf = float(np.abs(g).max())
    m = {"l1": l1, "l2": l2, "linf": linf}[norm]
    return BoundReport(bound_field=g, l1=l1, l2=l2, linf=linf, norm=norm,
                       lipschitz=m)
