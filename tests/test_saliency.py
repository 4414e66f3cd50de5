import numpy as np
import pytest

from salseg.tensor import Rng
from salseg.saliency import partition_regions, background_centroid, metric_saliency


def probs_from_p1(p1):
    return np.stack([1.0 - p1, p1])


class TestPartition:
    def test_all_salient(self):
        part = partition_regions(probs_from_p1(np.full((3, 3), 0.9)))
        assert part.salient.all() and not part.background.any()

    def test_exact_half_goes_to_background(self):
        part = partition_regions(probs_from_p1(np.full((3, 3), 0.5)))
        assert part.background.all()

    def test_matches_elementwise_oracle(self):
        p1 = Rng(1).uniform(0, 1, (5, 5))
        part = partition_regions(probs_from_p1(p1))
        np.testing.assert_array_equal(part.salient, p1 > 0.5)
        np.testing.assert_array_equal(part.background, ~(p1 > 0.5))
        assert (part.salient ^ part.background).all()


class TestBackgroundCentroid:
    def test_uniform_weights_give_plain_mean(self):
        rng = Rng(2)
        emb = rng.normal((4, 3, 3))
        p1 = np.zeros((3, 3))
        p1[0, :] = 0.9  # first row salient
        got = background_centroid(emb, probs_from_p1(p1))
        want = emb.reshape(4, -1)[:, 3:].mean(axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_single_background_pixel(self):
        rng = Rng(3)
        emb = rng.normal((4, 2, 2))
        p1 = np.full((2, 2), 0.9)
        p1[1, 1] = 0.1
        got = background_centroid(emb, probs_from_p1(p1))
        np.testing.assert_allclose(got, emb[:, 1, 1], rtol=1e-12)

    def test_empty_background_falls_back_to_whole_domain(self):
        rng = Rng(4)
        emb = rng.normal((2, 2, 2))
        p1 = np.full((2, 2), 0.8)
        got = background_centroid(emb, probs_from_p1(p1))
        w = (1 - p1).reshape(-1)
        want = emb.reshape(2, -1) @ (w / w.sum())
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_weighted_sum_oracle(self):
        rng = Rng(5)
        emb = rng.normal((3, 4, 4))
        p1 = rng.uniform(0, 1, (4, 4))
        p1.reshape(-1)[:3] = 0.2  # guarantee some background
        got = background_centroid(emb, probs_from_p1(p1))
        mask = ~(p1 > 0.5)
        w = np.where(mask, 1 - p1, 0.0).reshape(-1)
        want = emb.reshape(3, -1) @ (w / w.sum())
        np.testing.assert_allclose(got, want, rtol=1e-10)


class TestMetricSaliency:
    def test_constant_embeddings_zero_map(self):
        emb = np.ones((4, 3, 3))
        raw, norm = metric_saliency(emb, np.ones(4))
        np.testing.assert_array_equal(raw, 0.0)
        np.testing.assert_array_equal(norm, 0.0)

    def test_two_cluster_binary_map(self):
        a, b = np.array([2.0, 0.0]), np.array([0.0, 0.0])
        emb = np.zeros((2, 2, 2))
        emb[:, 0, :] = a[:, None]
        emb[:, 1, :] = b[:, None]
        raw, norm = metric_saliency(emb, b)
        np.testing.assert_array_equal(norm[0], 1.0)
        np.testing.assert_array_equal(norm[1], 0.0)

    def test_euclidean_oracle(self):
        rng = Rng(6)
        emb = rng.normal((5, 3, 3))
        c = rng.normal((5,))
        raw, norm = metric_saliency(emb, c)
        for i in range(3):
            for j in range(3):
                assert raw[i, j] == pytest.approx(np.linalg.norm(emb[:, i, j] - c))
        assert norm.max() == pytest.approx(1.0)
        assert (raw >= 0).all() and (norm >= 0).all() and (norm <= 1).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metric_saliency(np.zeros((3, 2, 2)), np.zeros(4))

    def test_isometry_invariance(self):
        rng = Rng(7)
        emb = rng.normal((4, 3, 3))
        c = rng.normal((4,))
        q, _ = np.linalg.qr(rng.normal((4, 4)))
        t = rng.normal((4,))
        emb2 = np.einsum("ij,jhw->ihw", q, emb) + t.reshape(-1, 1, 1)
        c2 = q @ c + t
        raw1, _ = metric_saliency(emb, c)
        raw2, _ = metric_saliency(emb2, c2)
        np.testing.assert_allclose(raw1, raw2, atol=1e-5)
