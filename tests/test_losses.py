import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from salseg.tensor import Tensor, Rng, finite_diff_check
from salseg.layers import softmax2
from salseg.model import ModelConfig, build, forward
from salseg.losses import (PROB_FLOOR, SampleSet, cross_entropy,
                           per_pixel_cross_entropy, metric_loss_centroid,
                           metric_loss_pairwise, combined_loss,
                           hard_negative_sample)


def random_case(seed, h=4, w=4, c=3, balanced=True, m=None):
    rng = Rng(seed)
    emb = rng.normal((c, h, w))
    n = h * w
    perm = np.argsort(rng.uniform(shape=(n,)))
    if balanced:
        m = m or n // 2
        sample = SampleSet(positive=perm[:m], negative=perm[m:2 * m])
    else:
        mp = m or 3
        sample = SampleSet(positive=perm[:mp], negative=perm[mp:n])
    return emb, sample


def centroid_value(emb, sample):
    """The metric loss of one (C, H, W) image, as a batch of one."""
    return float(metric_loss_centroid(Tensor(emb[None]), [sample]).data)


def ce_value(probs, labels, sample):
    """Cross entropy of one (2, H, W) image, as a batch of one."""
    return float(cross_entropy(Tensor(probs[None]), labels[None], [sample]).data)


def imbalance_term(emb, sample):
    """pairwise - centroid for one (C, H, W) image: the variance-imbalance
    term of the module docstring."""
    flat = emb.reshape(emb.shape[0], -1)
    fp = flat[:, sample.positive].T
    fn = flat[:, sample.negative].T
    var_p = ((fp - fp.mean(axis=0)) ** 2).sum(axis=1).mean()
    var_n = ((fn - fn.mean(axis=0)) ** 2).sum(axis=1).mean()
    mp, mn = fp.shape[0], fn.shape[0]
    return (mp - mn) * (var_p - var_n) / (mp + mn)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        probs = np.zeros((2, 2, 2))
        labels = np.array([[1, 0], [0, 1]])
        probs[1] = labels
        probs[0] = 1 - labels
        sample = SampleSet(positive=[0, 3], negative=[1, 2])
        val = ce_value(probs, labels, sample)
        assert val == pytest.approx(-np.log(1 - 1e-7), abs=1e-9)

    def test_uniform_gives_ln2(self):
        probs = np.full((2, 3, 3), 0.5)
        labels = (np.arange(9).reshape(3, 3) % 2)
        sample = SampleSet(positive=np.flatnonzero(labels), negative=np.flatnonzero(1 - labels))
        val = ce_value(probs, labels, sample)
        assert val == pytest.approx(np.log(2), rel=1e-9)

    def test_matches_scalar_bruteforce(self):
        rng = Rng(1)
        logits = rng.normal((2, 4, 4))
        e = np.exp(logits - logits.max(axis=0))
        probs = e / e.sum(axis=0)
        labels = (rng.uniform(shape=(4, 4)) > 0.5).astype(int)
        idx = np.arange(16)
        sample = SampleSet(positive=np.flatnonzero(labels),
                           negative=np.flatnonzero(1 - labels))
        got = ce_value(probs, labels, sample)
        want = 0.0
        for i in sample.all_indices:
            y = labels.reshape(-1)[i]
            p = probs.reshape(2, -1)[y, i]
            want -= np.log(np.clip(p, 1e-7, 1 - 1e-7))
        want /= sample.all_indices.size
        assert got == pytest.approx(want, rel=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.full((1, 2, 2, 2), 0.5)), np.zeros((1, 2, 2)),
                          [SampleSet(positive=[], negative=[])])

    def test_gradient_vs_finite_differences(self):
        rng = Rng(2)
        labels = (rng.uniform(shape=(3, 3)) > 0.5).astype(int)
        labels[0, 0], labels[0, 1] = 1, 0
        sample = SampleSet(positive=np.flatnonzero(labels),
                           negative=np.flatnonzero(1 - labels))

        def fn(z):
            return cross_entropy(softmax2(z.reshape(1, 2, 3, 3)), labels[None],
                                 [sample])

        assert finite_diff_check(fn, Tensor(rng.normal((18,)))) < 1e-4


class TestMetricLosses:
    def test_identical_embeddings_zero(self):
        emb = np.ones((4, 3, 3))
        sample = SampleSet(positive=[0, 1, 2], negative=[3, 4, 5])
        assert centroid_value(emb, sample) == pytest.approx(0.0)
        assert metric_loss_pairwise(emb, sample) == pytest.approx(0.0)

    def test_two_cluster_case(self):
        a, b = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
        emb = np.zeros((2, 2, 2))
        emb.reshape(2, -1)[:, :2] = a[:, None]
        emb.reshape(2, -1)[:, 2:] = b[:, None]
        sample = SampleSet(positive=[0, 1], negative=[2, 3])
        want = -float(((a - b) ** 2).sum())
        assert centroid_value(emb, sample) == pytest.approx(want)
        assert metric_loss_pairwise(emb, sample) == pytest.approx(want)

    def test_single_class_rejected(self):
        emb = Rng(3).normal((2, 2, 2))
        with pytest.raises(ValueError):
            metric_loss_centroid(Tensor(emb[None]),
                                 [SampleSet(positive=[0, 1], negative=[])])
        with pytest.raises(ValueError):
            metric_loss_pairwise(emb, SampleSet(positive=[], negative=[0]))

    @pytest.mark.parametrize("seed", range(10))
    def test_balanced_equivalence(self, seed):
        emb, sample = random_case(seed, balanced=True)
        cen = centroid_value(emb, sample)
        pair = metric_loss_pairwise(emb, sample)
        assert abs(pair - cen) <= 1e-6 * (1 + abs(cen))

    @pytest.mark.parametrize("seed", range(10))
    def test_unbalanced_difference_term(self, seed):
        emb, sample = random_case(seed, balanced=False, m=3)
        cen = centroid_value(emb, sample)
        pair = metric_loss_pairwise(emb, sample)
        assert pair - cen == pytest.approx(imbalance_term(emb, sample), abs=1e-9)

    def test_translation_invariance(self):
        emb, sample = random_case(11)
        shifted = emb + Rng(12).normal((emb.shape[0], 1, 1))
        assert centroid_value(shifted, sample) == pytest.approx(
            centroid_value(emb, sample), abs=1e-6)

    @given(s=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_scale_law(self, s):
        emb, sample = random_case(13)
        assert centroid_value(s * emb, sample) == pytest.approx(
            s * s * centroid_value(emb, sample), rel=1e-9)

    def test_gradient_vs_finite_differences(self):
        emb, sample = random_case(14)

        def fn(x):
            return metric_loss_centroid(x.reshape(1, 3, 4, 4), [sample])

        assert finite_diff_check(fn, Tensor(emb.reshape(-1))) < 1e-4


class TestCombinedLoss:
    def setup_case(self, seed=20):
        rng = Rng(seed)
        emb = Tensor(rng.normal((1, 3, 4, 4)))
        p1 = rng.uniform(0.1, 0.9, (4, 4))
        probs = Tensor(np.stack([1 - p1, p1])[None])
        labels = (rng.uniform(shape=(4, 4)) > 0.5).astype(int)
        labels.reshape(-1)[:2] = [0, 1]
        sample = SampleSet(positive=np.flatnonzero(labels),
                           negative=np.flatnonzero(1 - labels))
        return emb, probs, labels[None], [sample]

    def test_lambda_zero(self):
        emb, probs, labels, samples = self.setup_case()
        lv = combined_loss(emb, probs, labels, samples, lam=0.0)
        assert lv.total_value == pytest.approx(lv.l_ml_star)

    def test_components_sum(self):
        emb, probs, labels, samples = self.setup_case()
        lv = combined_loss(emb, probs, labels, samples, lam=1.0)
        assert lv.total_value == pytest.approx(lv.l_ml_star + lv.l_ce, rel=1e-9)
        assert lv.l_ce == pytest.approx(
            float(cross_entropy(probs, labels, samples).data), rel=1e-9)

    def test_default_lambda_is_one(self):
        emb, probs, labels, samples = self.setup_case()
        assert combined_loss(emb, probs, labels, samples).lam == 1.0

    def test_negative_lambda_rejected(self):
        emb, probs, labels, samples = self.setup_case()
        with pytest.raises(ValueError):
            combined_loss(emb, probs, labels, samples, lam=-0.5)


def _batch_case(seed, n, c, h, w, skipped, balanced, duplicates):
    """Float64 embeddings, probabilities and labels for an (n, c, h, w)
    batch, and one sample set per image (None at ``skipped``).  Every
    sampled pixel carries its class's label; unsampled pixels are random."""
    rng = np.random.default_rng(seed)
    hw = h * w
    emb = rng.normal(size=(n, c, h, w)) * rng.uniform(0.5, 3.0)
    p1 = rng.uniform(0.05, 0.95, (n, h, w))
    probs = np.stack([1 - p1, p1], axis=1)
    labels = rng.uniform(size=(n, h, w)) > 0.5
    samples = []
    for i in range(n):
        perm = rng.permutation(hw)
        if balanced:
            m = int(rng.integers(1, hw // 2 + 1))
            pos, neg = perm[:m], perm[m:2 * m]
        else:
            m = int(rng.integers(1, hw))
            pos, neg = perm[:m], perm[m:]
        if duplicates:
            pos = np.concatenate([pos, rng.choice(pos, int(rng.integers(1, 4)))])
            neg = np.concatenate([neg, rng.choice(neg, int(rng.integers(1, 4)))])
        labels[i].reshape(-1)[pos] = True
        labels[i].reshape(-1)[neg] = False
        samples.append(None if i == skipped else SampleSet(positive=pos, negative=neg))
    return emb, probs, labels, samples


class TestBatchLosses:
    """The batch ops against per-image oracles and finite differences."""

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
           c=st.integers(1, 16), h=st.integers(2, 8), w=st.integers(2, 8),
           skip=st.integers(0, 3), balanced=st.booleans(),
           duplicates=st.booleans())
    @settings(max_examples=30)
    def test_batch_values_and_gradients(self, seed, n, c, h, w, skip,
                                        balanced, duplicates):
        # one image is skipped whenever the batch has another to keep
        skipped = skip % n if n > 1 else None
        emb, probs, labels, samples = _batch_case(seed, n, c, h, w, skipped,
                                                  balanced, duplicates)
        kept = [i for i in range(n) if samples[i] is not None]
        ml = [centroid_value(emb[i], samples[i]) for i in kept]
        for i, value in zip(kept, ml):
            want = (metric_loss_pairwise(emb[i], samples[i])
                    - imbalance_term(emb[i], samples[i]))
            assert value == pytest.approx(want, rel=1e-9, abs=1e-9)
        got = float(metric_loss_centroid(Tensor(emb), samples).data)
        assert got == pytest.approx(np.mean(ml), rel=1e-12, abs=1e-12)
        ce = [ce_value(probs[i], labels[i], samples[i]) for i in kept]
        got = float(cross_entropy(Tensor(probs), labels, samples).data)
        assert got == pytest.approx(np.mean(ce), rel=1e-12)

        assert finite_diff_check(
            lambda x: metric_loss_centroid(x.reshape(emb.shape), samples),
            Tensor(emb.reshape(-1))) < 1e-6
        assert finite_diff_check(
            lambda x: cross_entropy(x.reshape(probs.shape), labels, samples),
            Tensor(probs.reshape(-1))) < 1e-6

    def test_clipped_probabilities_get_no_gradient(self):
        # the clip to [PROB_FLOOR, 1 - PROB_FLOOR] is inclusive: a pixel on
        # the floor still gets -1 / (P p), one below it or above the
        # ceiling gets nothing
        p1 = np.array([[0.0, PROB_FLOOR], [0.5, 1.0]])
        probs = Tensor(np.stack([1 - p1, p1])[None], requires_grad=True)
        labels = np.ones((1, 2, 2), dtype=bool)
        labels[0, 0, 0] = False          # its true-class probability is 1
        sample = SampleSet(positive=[1, 2, 3], negative=[0])
        cross_entropy(probs, labels, [sample]).backward()
        want = np.zeros((1, 2, 2, 2))
        want[0, 1, 0, 1] = -1.0 / (4 * PROB_FLOOR)
        want[0, 1, 1, 0] = -1.0 / (4 * 0.5)
        np.testing.assert_array_equal(probs.grad, want)

    def test_metric_gradient_is_constant_per_class(self):
        emb, _, _, samples = _batch_case(3, 2, 5, 4, 4, None, False, True)
        x = Tensor(emb, requires_grad=True)
        metric_loss_centroid(x, samples).backward()
        flat = x.grad.reshape(2, 5, -1)
        for i, s in enumerate(samples):
            f = emb[i].reshape(5, -1)
            d = f[:, s.positive].mean(axis=1) - f[:, s.negative].mean(axis=1)
            pos = np.bincount(s.positive, minlength=16)
            neg = np.bincount(s.negative, minlength=16)
            want = (-2 * d[:, None] * pos / (2 * s.positive.size)
                    + 2 * d[:, None] * neg / (2 * s.negative.size))
            np.testing.assert_allclose(flat[i], want, rtol=1e-12, atol=1e-15)

    def test_all_images_skipped_rejected(self):
        emb, probs, labels, _ = _batch_case(4, 2, 3, 4, 4, None, True, False)
        with pytest.raises(ValueError):
            metric_loss_centroid(Tensor(emb), [None, None])
        with pytest.raises(ValueError):
            cross_entropy(Tensor(probs), labels, [None, None])

    def test_one_sample_set_per_image(self):
        emb, probs, labels, samples = _batch_case(5, 2, 3, 4, 4, None, True, False)
        with pytest.raises(ValueError):
            metric_loss_centroid(Tensor(emb), samples[:1])
        with pytest.raises(ValueError):
            cross_entropy(Tensor(probs), labels, samples + [None])

    def test_combined_loss_adds_at_most_four_graph_nodes(self):
        cfg = ModelConfig(input_size=8, base_channels=2, convs_per_block=1,
                          embedding_dim=4)
        params = build(cfg, Rng(30))
        out = forward(params, Rng(31).uniform(0, 1, (3, 3, 8, 8)), mode="train")
        forward_nodes = {id(t) for head in (out.embedding, out.ce_probs)
                         for t in head._toposort()}
        labels = np.zeros((3, 8, 8), dtype=bool)
        labels[:, 2:5, 3:6] = True
        samples = [hard_negative_sample(
            per_pixel_cross_entropy(out.ce_probs.data[i], labels[i]), labels[i])
            for i in range(3)]
        total = combined_loss(out.embedding, out.ce_probs, labels, samples).total
        assert len(total._toposort()) - len(forward_nodes) <= 4



class TestHardNegativeSample:
    def test_balanced_input_keeps_all(self):
        labels = np.array([[1, 0], [0, 1]])
        loss = np.ones((2, 2))
        s = hard_negative_sample(loss, labels)
        assert s.positive.size == s.negative.size == 2

    def test_majority_top_loss_selected(self):
        labels = np.zeros(110, dtype=int)
        labels[:10] = 1
        rng = Rng(21)
        loss = rng.uniform(0, 1, (110,))
        s = hard_negative_sample(loss, labels)
        assert s.positive.size == s.negative.size == 10
        neg_idx = np.flatnonzero(labels == 0)
        want = neg_idx[np.argsort(-loss[neg_idx], kind="stable")[:10]]
        assert set(s.negative) == set(want)

    def test_uniform_loss_lowest_index_tiebreak(self):
        labels = np.zeros(20, dtype=int)
        labels[[5, 6]] = 1
        loss = np.ones(20)
        s = hard_negative_sample(loss, labels)
        np.testing.assert_array_equal(s.negative, [0, 1])

    def test_minority_background(self):
        labels = np.ones(20, dtype=int)
        labels[[3, 4]] = 0
        loss = np.arange(20.0)
        s = hard_negative_sample(loss, labels)
        np.testing.assert_array_equal(s.negative, [3, 4])
        np.testing.assert_array_equal(s.positive, [18, 19])

    def test_absent_class_rejected(self):
        with pytest.raises(ValueError):
            hard_negative_sample(np.ones(4), np.zeros(4, dtype=int))

    def test_disjoint_and_balanced(self):
        rng = Rng(22)
        labels = (rng.uniform(shape=(64,)) > 0.8).astype(int)
        labels[0] = 1
        loss = rng.uniform(0, 1, (64,))
        s = hard_negative_sample(loss, labels)
        assert s.positive.size == s.negative.size
        assert not set(s.positive) & set(s.negative)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 80), levels=st.integers(1, 4),
           seed=st.integers(0, 2 ** 16))
    def test_matches_full_sort_with_ties(self, n, levels, seed):
        """The partition form picks exactly what a full (-loss, index) sort
        picks; losses rounded to a few levels make ties common."""
        rng = Rng(seed)
        labels = (rng.uniform(shape=(n,)) > rng.uniform()).astype(int)
        labels[:2] = [0, 1]
        loss = np.round(rng.uniform(0, 1, (n,)) * levels) / levels
        lab = labels.astype(bool)
        pos, neg = np.flatnonzero(lab), np.flatnonzero(~lab)
        minority, majority = (pos, neg) if pos.size <= neg.size else (neg, pos)
        order = np.lexsort((majority, -loss[majority]))
        picked = np.sort(majority[order[:minority.size]])
        s = hard_negative_sample(loss.reshape(1, n), labels.reshape(1, n))
        got = s.negative if pos.size <= neg.size else s.positive
        np.testing.assert_array_equal(got, picked)
        np.testing.assert_array_equal(
            s.positive if pos.size <= neg.size else s.negative, minority)


def test_per_pixel_cross_entropy_field():
    probs = np.stack([np.full((2, 2), 0.25), np.full((2, 2), 0.75)])
    labels = np.array([[1, 0], [1, 1]])
    field = per_pixel_cross_entropy(probs, labels)
    assert field[0, 0] == pytest.approx(-np.log(0.75))
    assert field[0, 1] == pytest.approx(-np.log(0.25))
