import numpy as np
import pytest

from salseg.tensor import Rng
from salseg.metrics import (BETA_SQ, adaptive_threshold, f_measure, mae,
                            evaluate, quantize_8bit, pr_counts, pr_curve,
                            pr_curve_from_counts, aggregate)


def prf_oracle(pred, g):
    """Set-based reference for precision/recall/F with the same
    zero-denominator conventions as the implementation."""
    tp = np.count_nonzero(pred & g)
    precision = 1.0 if pred.sum() == 0 else tp / pred.sum()
    recall = 1.0 if g.sum() == 0 else tp / g.sum()
    if precision == 0 and recall == 0:
        return precision, recall, 0.0
    f = (1 + BETA_SQ) * precision * recall / (BETA_SQ * precision + recall)
    return precision, recall, f


class TestAdaptiveThreshold:
    def test_constant_map(self):
        assert adaptive_threshold(np.full((4, 4), 0.25)) == pytest.approx(0.5)

    def test_unclipped_above_one(self):
        assert adaptive_threshold(np.full((4, 4), 0.8)) == pytest.approx(1.6)

    def test_zero_map(self):
        assert adaptive_threshold(np.zeros((3, 3))) == 0.0


class TestFMeasure:
    def test_perfect_prediction(self):
        g = np.zeros((4, 4), bool)
        g[:2] = True
        s = g.astype(float)
        p, r, f = f_measure(s, g, 0.5)
        assert (p, r, f) == (1.0, 1.0, 1.0)

    def test_empty_prediction_conventions(self):
        g = np.zeros((4, 4), bool)
        g[0, 0] = True
        p, r, f = f_measure(np.zeros((4, 4)), g, 0.5)
        assert p == 1.0 and r == 0.0 and f == 0.0

    def test_empty_ground_truth(self):
        g = np.zeros((4, 4), bool)
        s = np.zeros((4, 4))
        s[0, 0] = 1.0
        p, r, f = f_measure(s, g, 0.5)
        assert p == 0.0 and r == 1.0 and f == 0.0

    def test_empty_both(self):
        p, r, f = f_measure(np.zeros((4, 4)), np.zeros((4, 4), bool), 0.5)
        assert (p, r, f) == (1.0, 1.0, 1.0)

    def test_strict_binarization(self):
        g = np.ones((2, 2), bool)
        s = np.full((2, 2), 0.5)
        _, r, _ = f_measure(s, g, 0.5)
        assert r == 0.0  # 0.5 > 0.5 is false

    def test_random_oracle(self):
        rng = Rng(11)
        for trial in range(20):
            s = rng.uniform(0, 1, (8, 8))
            g = rng.uniform(0, 1, (8, 8)) > 0.5
            t = float(rng.uniform(0, 1))
            got = f_measure(s, g, t)
            want = prf_oracle(s > t, g)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            f_measure(np.zeros((2, 2)), np.zeros((3, 3), bool), 0.5)


class TestMae:
    def test_identical(self):
        g = np.zeros((4, 4))
        g[:2] = 1
        assert mae(g, g.astype(bool)) == 0.0

    def test_half_off(self):
        s = np.full((4, 4), 0.5)
        assert mae(s, np.zeros((4, 4), bool)) == pytest.approx(0.5)

    def test_oracle(self):
        rng = Rng(12)
        s = rng.uniform(0, 1, (6, 6))
        g = rng.uniform(0, 1, (6, 6)) > 0.5
        assert mae(s, g) == pytest.approx(np.abs(s - g).mean())


class TestEvaluate:
    def test_uses_adaptive_threshold(self):
        rng = Rng(13)
        s = rng.uniform(0, 1, (8, 8))
        g = rng.uniform(0, 1, (8, 8)) > 0.5
        rep = evaluate(s, g)
        assert rep.t_adp == pytest.approx(2 * s.mean())
        p, r, f = f_measure(s, g, rep.t_adp)
        assert (rep.precision, rep.recall, rep.f_beta) == (p, r, f)
        assert rep.mae == pytest.approx(mae(s, g))

    def test_aggregate_is_mean(self):
        rng = Rng(14)
        reports = []
        for _ in range(5):
            s = rng.uniform(0, 1, (8, 8))
            g = rng.uniform(0, 1, (8, 8)) > 0.5
            reports.append(evaluate(s, g))
        agg = aggregate(reports)
        assert agg.f_beta == pytest.approx(np.mean([r.f_beta for r in reports]))
        assert agg.mae == pytest.approx(np.mean([r.mae for r in reports]))

    def test_aggregate_empty(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestQuantize:
    def test_endpoints_and_rounding(self):
        s = np.array([0.0, 1.0, 0.5, 1.5, -0.1])
        q = quantize_8bit(s)
        assert q.dtype == np.uint8
        np.testing.assert_array_equal(q, [0, 255, 128, 255, 0])


class TestPRCurve:
    def pr_oracle(self, s, g):
        """Per-threshold loop, the slow reference implementation."""
        precision = np.empty(256)
        recall = np.empty(256)
        for t in range(256):
            p, r, _ = prf_oracle(s > t, g)
            precision[t] = p
            recall[t] = r
        return precision, recall

    def test_matches_per_threshold_oracle(self):
        rng = Rng(15)
        for trial in range(5):
            s = quantize_8bit(rng.uniform(0, 1, (16, 16)))
            g = rng.uniform(0, 1, (16, 16)) > 0.5
            curve = pr_curve(s, g)
            wp, wr = self.pr_oracle(s, g)
            np.testing.assert_allclose(curve.precision, wp, rtol=1e-12)
            np.testing.assert_allclose(curve.recall, wr, rtol=1e-12)

    def test_top_threshold_predicts_nothing(self):
        rng = Rng(16)
        s = quantize_8bit(rng.uniform(0, 1, (8, 8)))
        g = rng.uniform(0, 1, (8, 8)) > 0.5
        curve = pr_curve(s, g)
        assert curve.precision[255] == 1.0
        assert curve.recall[255] == 0.0

    def test_recall_monotone_nonincreasing(self):
        rng = Rng(17)
        s = quantize_8bit(rng.uniform(0, 1, (16, 16)))
        g = rng.uniform(0, 1, (16, 16)) > 0.5
        curve = pr_curve(s, g)
        assert (np.diff(curve.recall) <= 1e-15).all()

    def test_counts_of_images_add_up_to_their_concatenation(self):
        rng = Rng(18)
        maps = [quantize_8bit(rng.uniform(0, 1, (6, 6))) for _ in range(3)]
        gts = [rng.uniform(0, 1, (6, 6)) > 0.5 for _ in range(3)]
        counts = [pr_counts(s, g) for s, g in zip(maps, gts)]
        pos = sum(c[0] for c in counts)
        neg = sum(c[1] for c in counts)
        whole = pr_curve(np.concatenate([s.ravel() for s in maps]),
                         np.concatenate([g.ravel() for g in gts]))
        split = pr_curve_from_counts(pos, neg)
        np.testing.assert_array_equal(split.precision, whole.precision)
        np.testing.assert_array_equal(split.recall, whole.recall)

    def test_requires_uint8(self):
        with pytest.raises(ValueError):
            pr_curve(np.zeros((4, 4)), np.zeros((4, 4), bool))
