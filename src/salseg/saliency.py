"""From network outputs to saliency maps: the foreground/background
partition, the probability-weighted background centroid in embedding space,
and the per-pixel distance map."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import adaptive_threshold
from .tensor import Tensor


@dataclass
class RegionPartition:
    salient: np.ndarray     # bool (H, W)
    background: np.ndarray  # bool (H, W)


@dataclass
class SaliencyMaps:
    metric_map: np.ndarray    # (H, W) in [0, 1]
    ce_prob_map: np.ndarray   # (H, W), P(salient)
    binary_map: np.ndarray    # (H, W) bool, adaptive-threshold binarization


def _as_array(x):
    return x.data if isinstance(x, Tensor) else np.asarray(x)


def partition_regions(ce_probs) -> RegionPartition:
    """Pixel is salient iff P(salient) > 0.5; exact ties go to background."""
    p1 = _as_array(ce_probs)[1]
    sal = p1 > 0.5
    return RegionPartition(salient=sal, background=~sal)


def background_centroid(embeddings, ce_probs) -> np.ndarray:
    """Background-probability-weighted mean embedding over the background
    region of ``partition_regions(ce_probs)``; falls back to weighting over
    the whole domain when the predicted background is empty."""
    emb = _as_array(embeddings)
    p0 = _as_array(ce_probs)[0]
    c = emb.shape[0]
    flat = emb.reshape(c, -1).astype(np.float64)
    mask = partition_regions(ce_probs).background.reshape(-1)
    if not mask.any():
        mask = np.ones_like(mask)
    w = p0.reshape(-1).astype(np.float64) * mask
    total = w.sum()
    if total <= 0:
        w = mask.astype(np.float64)
        total = w.sum()
    return flat @ (w / total)


def metric_saliency(embeddings, centroid: np.ndarray):
    """Euclidean distance of each pixel embedding to the centroid, plus the
    max-normalized copy (an all-zero map stays zero)."""
    emb = _as_array(embeddings)
    if centroid.shape[0] != emb.shape[0]:
        raise ValueError("centroid dimension does not match embedding channels")
    diff = emb.astype(np.float64) - centroid.reshape(-1, 1, 1)
    raw = np.sqrt((diff ** 2).sum(axis=0))
    peak = raw.max()
    norm = raw / peak if peak > 0 else raw.copy()
    return raw, norm


def saliency_maps(forward_out, image_index: int = 0) -> SaliencyMaps:
    """Full inference path for one image of a ForwardOutput batch."""
    probs = forward_out.ce_probs.data[image_index]
    emb = forward_out.embedding.data[image_index]
    centroid = background_centroid(emb, probs)
    _, norm = metric_saliency(emb, centroid)
    t = adaptive_threshold(norm)
    return SaliencyMaps(metric_map=norm, ce_prob_map=probs[1].astype(np.float64),
                        binary_map=norm > t)
