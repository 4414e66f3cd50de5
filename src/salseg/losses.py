"""Training objectives over the mined pixels of a batch: cross entropy, the
centroid form of the metric loss and their combination; the balanced
hard-negative sampler; and the pairwise metric loss as an oracle.

The two training losses take (N, C, H, W) maps and one ``SampleSet`` per
image, ``None`` for an image the step skips; cross entropy also takes the
(N, H, W) labels.  Each returns the mean over the kept images as one
recorded operation with a closed-form backward.

The centroid form of the metric loss, the mean over the P sampled pixels of
||f - own centroid||^2 - ||f - other centroid||^2, is exactly

    -||c+ - c-||^2

because each class's deviations from its own centroid sum to zero, so the
within-class terms cancel.  Its gradient is one vector per class:
-2 (c+ - c-) / m+ on every sampled salient pixel and +2 (c+ - c-) / m- on
every sampled background pixel.  The loss pushes the two centroids apart and
never pulls a class together, so it is unbounded below: scaling the
embedding by s scales it by s^2.

The quadratic pairwise form is kept as an independent oracle.  For a balanced
sample the two are identical; in general

    pairwise - centroid = (m+ - m-) * (var+ - var-) / (m+ + m-)

where var_c is the mean squared deviation of class c from its centroid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

PROB_FLOOR = 1e-7


@dataclass(frozen=True)
class SampleSet:
    """Disjoint flat pixel indices of the two classes used by the losses."""
    positive: np.ndarray  # salient
    negative: np.ndarray  # background

    def __post_init__(self):
        object.__setattr__(self, "positive", np.asarray(self.positive, dtype=np.int64))
        object.__setattr__(self, "negative", np.asarray(self.negative, dtype=np.int64))

    @property
    def all_indices(self):
        return np.concatenate([self.positive, self.negative])


@dataclass
class LossValues:
    l_ce: float
    l_ml_star: float
    lam: float
    total: Tensor  # differentiable combined loss

    @property
    def total_value(self) -> float:
        return float(self.total.data)


def _check_sample(sample: SampleSet):
    if sample.positive.size == 0 or sample.negative.size == 0:
        raise ValueError("sample set must contain pixels of both classes")


def _kept(maps: Tensor, samples) -> list:
    """Batch indices of the images that have a sample set."""
    n = maps.data.shape[0]
    if len(samples) != n:
        raise ValueError(f"{len(samples)} sample sets for a batch of {n}")
    kept = [i for i, s in enumerate(samples) if s is not None]
    if not kept:
        raise ValueError("every image of the batch is skipped")
    return kept


def cross_entropy(ce_probs: Tensor, labels, samples) -> Tensor:
    """Mean over the kept images of the mean -ln P(true class) over each
    image's sampled pixels.  ``ce_probs`` is (N, 2, H, W) with channel 1 =
    salient and ``labels`` (N, H, W).  P is clipped to [PROB_FLOOR,
    1 - PROB_FLOOR], and a pixel outside that range gets no gradient."""
    kept = _kept(ce_probs, samples)
    n, c = ce_probs.data.shape[:2]
    flat = ce_probs.data.reshape(n, c, -1)
    hw = flat.shape[2]
    salient = np.asarray(labels).reshape(n, hw) != 0
    k = len(kept)
    values, at, weights = [], [], []
    for i in kept:
        idx = samples[i].all_indices
        if idx.size == 0:
            raise ValueError("empty sample set")
        y = salient[i, idx].astype(np.int64)
        p = flat[i, y, idx]
        values.append(-(np.log(np.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)).sum()
                        * (1.0 / idx.size)))
        live = (p >= PROB_FLOOR) & (p <= 1.0 - PROB_FLOOR)
        at.append(((i * c + y) * hw + idx)[live])
        weights.append(-1.0 / (k * idx.size) / p[live])
    at, weights = np.concatenate(at), np.concatenate(weights)

    def bwd(g):
        grad = np.zeros(flat.size, dtype=flat.dtype)
        np.add.at(grad, at, g * weights)  # repeated indices add
        return (grad.reshape(ce_probs.data.shape),)

    return Tensor._make(np.asarray(np.mean(values)), (ce_probs,), bwd)


def per_pixel_cross_entropy(ce_probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Plain (H, W) field of -ln P(true class); ranking key for mining."""
    p1 = np.clip(ce_probs[1], PROB_FLOOR, 1.0 - PROB_FLOOR)
    lab = np.asarray(labels, dtype=bool)
    return np.where(lab, -np.log(p1), -np.log(1.0 - p1))


def metric_loss_centroid(embeddings: Tensor, samples) -> Tensor:
    """Mean over the kept images of -||c+ - c-||^2, the centroids taken
    over each image's sampled pixels of the (N, C, H, W) embedding."""
    kept = _kept(embeddings, samples)
    n, c = embeddings.data.shape[:2]
    flat = embeddings.data.reshape(n, c, -1)
    hw = flat.shape[2]
    k = len(kept)
    values, pulls = [], []
    for i in kept:
        s = samples[i]
        _check_sample(s)
        d = flat[i][:, s.positive].mean(axis=1) - flat[i][:, s.negative].mean(axis=1)
        values.append(-np.dot(d, d))
        # per pixel: 1 / (k m+) per salient draw, -1 / (k m-) per
        # background draw, so a repeated index counts each time
        w = (np.bincount(s.positive, minlength=hw) / (k * s.positive.size)
             - np.bincount(s.negative, minlength=hw) / (k * s.negative.size))
        pulls.append((i, d, w.astype(flat.dtype)))

    def bwd(g):
        grad = np.zeros(flat.shape, dtype=flat.dtype)
        for i, d, w in pulls:
            grad[i] = np.multiply.outer(d * (-2.0 * g), w)
        return (grad.reshape(embeddings.data.shape),)

    return Tensor._make(np.asarray(np.mean(values)), (embeddings,), bwd)


def metric_loss_pairwise(embeddings, sample: SampleSet) -> float:
    """Direct O(P^2 C) evaluation of the pairwise form on one (C, H, W)
    image; oracle, not differentiable."""
    _check_sample(sample)
    data = embeddings.data if isinstance(embeddings, Tensor) else np.asarray(embeddings)
    c = data.shape[0]
    flat = data.reshape(c, -1)
    fp = flat[:, sample.positive].T.astype(np.float64)
    fn = flat[:, sample.negative].T.astype(np.float64)
    total = 0.0
    for fi, same, other in [(fp, fp, fn), (fn, fn, fp)]:
        d_same = ((fi[:, None, :] - same[None, :, :]) ** 2).sum(axis=2)
        d_other = ((fi[:, None, :] - other[None, :, :]) ** 2).sum(axis=2)
        total += (d_same.mean(axis=1) - d_other.mean(axis=1)).sum()
    return total / (fp.shape[0] + fn.shape[0])


def combined_loss(embeddings: Tensor, ce_probs: Tensor, labels, samples,
                  lam: float = 1.0) -> LossValues:
    """Centroid metric loss plus lam times cross entropy over the same
    sample sets, each the mean over the kept images."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
    l_ce = cross_entropy(ce_probs, labels, samples)
    l_ml = metric_loss_centroid(embeddings, samples)
    total = l_ml + lam * l_ce
    return LossValues(l_ce=float(l_ce.data), l_ml_star=float(l_ml.data),
                      lam=lam, total=total)


def hard_negative_sample(per_pixel_loss: np.ndarray, labels: np.ndarray) -> SampleSet:
    """Keep the whole minority class; from the majority class take the same
    number of pixels with the largest loss, ties broken by lowest pixel
    index.  The result is balanced 1:1."""
    lab = np.asarray(labels, dtype=bool).reshape(-1)
    loss = np.asarray(per_pixel_loss, dtype=np.float64).reshape(-1)
    pos = np.flatnonzero(lab)
    neg = np.flatnonzero(~lab)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("degenerate image: one class is absent")
    if pos.size <= neg.size:
        minority, majority = pos, neg
    else:
        minority, majority = neg, pos
    m = minority.size
    # every majority pixel above the m-th largest loss, then the lowest-index
    # pixels equal to it (``majority`` is in index order); no full sort
    lm = loss[majority]
    kth = np.partition(lm, lm.size - m)[lm.size - m]
    above = majority[lm > kth]
    picked = np.concatenate([above, majority[lm == kth][:m - above.size]])
    if pos.size <= neg.size:
        return SampleSet(positive=np.sort(pos), negative=np.sort(picked))
    return SampleSet(positive=np.sort(picked), negative=np.sort(neg))
