"""Saliency evaluation: adaptive-threshold F-measure (beta^2 = 0.3), MAE and
PR curves over the 0..255 threshold grid.

Zero-denominator conventions, used consistently here and in the test oracles:
precision is 1 when nothing is predicted positive, recall is 1 when the
ground truth has no positives, and F is 0 when precision and recall are both
zero.  Binarization is strict ">", so threshold 255 on an 8-bit map predicts
nothing.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

BETA_SQ = 0.3


@dataclass
class EvalReport:
    t_adp: float
    precision: float
    recall: float
    f_beta: float
    mae: float

    def to_dict(self):
        return asdict(self)


@dataclass
class PRCurve:
    thresholds: np.ndarray  # 0..255
    precision: np.ndarray
    recall: np.ndarray


def _check_pair(s, g):
    s = np.asarray(s, dtype=np.float64)
    g = np.asarray(g)
    if s.shape != g.shape:
        raise ValueError(f"map shape {s.shape} != ground truth shape {g.shape}")
    return s, g.astype(bool)


def adaptive_threshold(s) -> float:
    """Twice the mean saliency; not clipped, so a bright map can yield a
    threshold above 1 (empty prediction)."""
    return 2.0 * float(np.asarray(s, dtype=np.float64).mean())


def _prf(tp, fp, fn):
    pred = tp + fp
    pos = tp + fn
    precision = 1.0 if pred == 0 else tp / pred
    recall = 1.0 if pos == 0 else tp / pos
    if precision == 0.0 and recall == 0.0:
        return precision, recall, 0.0
    denom = BETA_SQ * precision + recall
    f = 0.0 if denom == 0 else (1 + BETA_SQ) * precision * recall / denom
    return precision, recall, f


def f_measure(s, g, threshold: float):
    """(precision, recall, F_beta) of the map binarized at ``threshold``
    (strictly greater)."""
    s, g = _check_pair(s, g)
    pred = s > threshold
    tp = float(np.count_nonzero(pred & g))
    fp = float(np.count_nonzero(pred & ~g))
    fn = float(np.count_nonzero(~pred & g))
    return _prf(tp, fp, fn)


def mae(s, g) -> float:
    s, g = _check_pair(s, g)
    return float(np.abs(s - g).mean())


def evaluate(s, g) -> EvalReport:
    t = adaptive_threshold(s)
    p, r, f = f_measure(s, g, t)
    return EvalReport(t_adp=t, precision=p, recall=r, f_beta=f, mae=mae(s, g))


def quantize_8bit(s) -> np.ndarray:
    """The 8-bit levels of a [0, 1] map: round half to even, clip to 0..255.
    Every map salseg writes to disk and every PR curve uses these levels."""
    return np.clip(np.rint(np.asarray(s, dtype=np.float64) * 255.0), 0, 255).astype(np.uint8)


def pr_counts(s_8bit, g):
    """Per-level pixel counts of an 8-bit map, (positives, negatives), each
    of length 256.  Counts of several images add up to the counts of their
    concatenation."""
    s = np.asarray(s_8bit)
    if s.dtype != np.uint8:
        raise ValueError("pr_curve expects an 8-bit map (use quantize_8bit)")
    g = np.asarray(g).astype(bool)
    if s.shape != g.shape:
        raise ValueError("map/ground-truth shape mismatch")
    return np.bincount(s[g], minlength=256), np.bincount(s[~g], minlength=256)


def pr_curve_from_counts(pos_counts, neg_counts) -> PRCurve:
    """All 256 (precision, recall) points from per-level counts."""
    pos_hist = np.asarray(pos_counts, dtype=np.float64)
    neg_hist = np.asarray(neg_counts, dtype=np.float64)
    # predicted positive at threshold t: value > t, i.e. values t+1..255
    tp = np.cumsum(pos_hist[::-1])[::-1]  # tp_geq[v] = count of positives >= v
    fpv = np.cumsum(neg_hist[::-1])[::-1]
    tps = np.concatenate([tp[1:], [0.0]])   # strictly greater than t
    fps = np.concatenate([fpv[1:], [0.0]])
    n_pos = pos_hist.sum()
    precision = np.empty(256)
    recall = np.empty(256)
    for t in range(256):
        p, r, _ = _prf(tps[t], fps[t], n_pos - tps[t])
        precision[t] = p
        recall[t] = r
    return PRCurve(thresholds=np.arange(256), precision=precision, recall=recall)


def pr_curve(s_8bit, g) -> PRCurve:
    """All 256 (precision, recall) points in one histogram pass."""
    return pr_curve_from_counts(*pr_counts(s_8bit, g))


def aggregate(reports) -> EvalReport:
    """Arithmetic mean of per-image reports."""
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to aggregate")
    return EvalReport(**{f.name: sum(getattr(r, f.name) for r in reports) / len(reports)
                         for f in fields(EvalReport)})
