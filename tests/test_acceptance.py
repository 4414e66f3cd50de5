"""End-to-end acceptance suite.

Trains the two desk-scale reference models once (shared session fixtures) and
checks the headline behaviors: gradient correctness, the algebraic identity
between the two metric-loss forms, segmentation quality of the combined-loss
model, the combined-vs-CE ablation, embedding-space separation, the Jacobian
bound, the Monte-Carlo directional estimator, the evaluation-metric oracles,
the distortion-degradation report, the robustness statistics schema, and
checkpoint determinism.
"""

import json
import os
import time

import numpy as np
import pytest

from salseg.tensor import Tensor, Rng, finite_diff_check
from salseg.model import ModelConfig, build, forward
from salseg.data import generate_synthetic, save_dataset
from salseg.losses import SampleSet, metric_loss_centroid, metric_loss_pairwise
from salseg.train import (TrainConfig, train_loop, validate, load_checkpoint,
                          save_checkpoint)
from salseg.saliency import saliency_maps
from salseg.metrics import (adaptive_threshold, f_measure, mae, pr_curve,
                            quantize_8bit, evaluate, aggregate, BETA_SQ)
from salseg.distortions import DistortionSpec, apply as apply_distortion
from salseg.robustness import (input_gradient, lipschitz_bound,
                               mc_directional_fn)
from salseg.cli import _gradcheck_battery, main as cli_main

DESK_MODEL = dict(input_size=64, base_channels=4, convs_per_block=2,
                  embedding_dim=16)
COMBINED_TRAIN = dict(loss="combined", learning_rate=0.003, clip_norm=1.0,
                      warmup_iterations=600, warmup_learning_rate=0.1,
                      iterations=2400, checkpoint_interval=400, seed=0)
CE_TRAIN = dict(loss="ce", learning_rate=0.1, iterations=1200,
                checkpoint_interval=400, seed=0)

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def desk_data():
    train = generate_synthetic(400, 64, Rng(100))
    test = generate_synthetic(100, 64, Rng(200))
    return train, test


def _train_model(desk_data, out_dir, train_kwargs):
    train, test = desk_data
    params = build(ModelConfig(**DESK_MODEL), Rng(0))
    tc = TrainConfig(**train_kwargs)
    _, history, best = train_loop(params, tc, train, val_set=test,
                                  out_dir=out_dir, log=lambda m: None)
    ck = load_checkpoint(os.path.join(out_dir, "best.ment"))
    return ck.params, history, best


@pytest.fixture(scope="session")
def combined_model(desk_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("combined_run")
    return _train_model(desk_data, str(out), COMBINED_TRAIN) + (str(out),)


@pytest.fixture(scope="session")
def ce_model(desk_data, tmp_path_factory):
    out = tmp_path_factory.mktemp("ce_run")
    return _train_model(desk_data, str(out), CE_TRAIN) + (str(out),)


class TestGradientAudit:
    def test_every_layer_and_loss_matches_finite_differences(self):
        start = time.time()
        errors = {}
        for name, fn, point in _gradcheck_battery(Rng(321)):
            errors[name] = finite_diff_check(fn, Tensor(point), eps=1e-6)
        elapsed = time.time() - start
        bad = {n: e for n, e in errors.items() if not e < 1e-4}
        assert not bad, f"gradient check failures: {bad}"
        assert elapsed < 120.0


class TestLossEquivalence:
    def _random_instance(self, rng, balanced):
        n = int(rng.integers(2, 33)) * 2          # up to 64 pixels
        emb = rng.normal((16, 8, 8)) * float(rng.uniform(0.5, 3.0))
        idx = np.argsort(rng.uniform(0, 1, (64,)))
        if balanced:
            m_pos = n // 2
        else:
            m_pos = int(rng.integers(1, n))
            if m_pos == n - m_pos:                # force imbalance
                m_pos = max(1, m_pos - 1)
        sample = SampleSet(positive=idx[:m_pos], negative=idx[m_pos:n])
        return emb, sample

    def test_balanced_forms_agree(self):
        rng = Rng(41)
        for _ in range(100):
            emb, sample = self._random_instance(rng, balanced=True)
            cen = float(metric_loss_centroid(Tensor(emb[None]), [sample]).data)
            pw = metric_loss_pairwise(emb, sample)
            assert abs(pw - cen) <= 1e-6 * (1.0 + abs(cen))

    def test_unbalanced_difference_is_variance_imbalance_term(self):
        rng = Rng(42)
        for _ in range(100):
            emb, sample = self._random_instance(rng, balanced=False)
            cen = float(metric_loss_centroid(Tensor(emb[None]), [sample]).data)
            pw = metric_loss_pairwise(emb, sample)
            flat = emb.reshape(16, -1)
            fp = flat[:, sample.positive].T
            fn = flat[:, sample.negative].T
            var_p = ((fp - fp.mean(axis=0)) ** 2).sum(axis=1).mean()
            var_n = ((fn - fn.mean(axis=0)) ** 2).sum(axis=1).mean()
            m_pos, m_neg = fp.shape[0], fn.shape[0]
            predicted = (m_pos - m_neg) * (var_p - var_n) / (m_pos + m_neg)
            assert abs((pw - cen) - predicted) <= 1e-6


class TestDeskTraining:
    def test_combined_loss_reaches_quality_targets(self, combined_model,
                                                   desk_data):
        params, history, best, _ = combined_model
        _, test = desk_data
        assert history[-1][0] + 1 <= 5000
        report = validate(params, test)
        print(f"\ncombined: F={report.f_beta:.4f}, MAE={report.mae:.4f}")
        assert report.f_beta >= 0.80, f"F={report.f_beta:.4f}"
        assert report.mae <= 0.10, f"MAE={report.mae:.4f}"

    def test_windowed_loss_decreases(self, combined_model):
        _, history, _, _ = combined_model
        totals = np.array([row[3] for row in history])
        early = totals[:100].mean()
        late = totals[1900:2000].mean()
        assert late < early


class TestAblation:
    def test_combined_not_inferior_to_ce_only(self, combined_model, ce_model,
                                              desk_data):
        _, test = desk_data
        f_combined = validate(combined_model[0], test).f_beta
        f_ce = validate(ce_model[0], test).f_beta
        signed_margin = f_combined - f_ce
        print(f"\nablation: combined F={f_combined:.4f}, "
              f"ce-only F={f_ce:.4f}, signed margin={signed_margin:+.4f}")
        assert f_combined >= f_ce - 0.02


class TestEmbeddingSeparation:
    def test_background_scores_below_half_of_salient(self, combined_model,
                                                     desk_data):
        params, _, _, _ = combined_model
        _, test = desk_data
        bg_means, sal_means = [], []
        for rec in test:
            out = forward(params, rec.image[None].astype(np.float32),
                          mode="inference", update_running=False)
            s = saliency_maps(out).metric_map
            gt = rec.mask.astype(bool)
            if not gt.any() or gt.all():
                continue
            bg_means.append(s[~gt].mean())
            sal_means.append(s[gt].mean())
        assert np.mean(bg_means) < 0.5 * np.mean(sal_means)


class TestBoundDominance:
    def test_bound_field_dominates_exact_gradients(self, combined_model,
                                                   desk_data):
        params, _, _, _ = combined_model
        _, test = desk_data
        bound = lipschitz_bound(params, norm="l2", head="metric")
        g_bound = bound.bound_field
        violations = 0
        for rec in test[:50]:
            g = input_gradient(params, rec.image, head="metric")
            violations += int(np.count_nonzero(np.abs(g) > g_bound))
            assert bound.l2 >= float(np.sqrt((g ** 2).sum()))
        assert violations == 0


class TestMcEstimator:
    def test_linear_probe_matches_gradient_norm(self):
        rng = Rng(77)
        w = rng.normal((3, 8, 8))
        d = w.size

        def f(x):
            return float((np.asarray(x) * w).sum())

        est = mc_directional_fn(f, np.zeros_like(w), p=2.0, t=1e-4,
                                n_samples=10_000, rng=Rng(78))
        expected = float((w ** 2).sum()) / d
        assert abs(est.estimate - expected) <= 3.0 * est.stderr


class TestMetricOracles:
    @staticmethod
    def _naive_prf(pred, gt):
        tp = int(np.count_nonzero(pred & gt))
        fp = int(np.count_nonzero(pred & ~gt))
        fn = int(np.count_nonzero(~pred & gt))
        p = 1.0 if tp + fp == 0 else tp / (tp + fp)
        r = 1.0 if tp + fn == 0 else tp / (tp + fn)
        if p == 0.0 and r == 0.0:
            return p, r, 0.0
        f = (1 + BETA_SQ) * p * r / (BETA_SQ * p + r)
        return p, r, f

    def test_against_naive_reimplementations(self):
        rng = Rng(55)
        for _ in range(1000):
            s = rng.uniform(0, 1, (8, 8))
            g = rng.uniform(0, 1, (8, 8)) > float(rng.uniform(0.1, 0.9))
            t = adaptive_threshold(s)
            assert abs(t - 2.0 * s.mean()) <= 1e-9
            p, r, f = f_measure(s, g, t)
            p2, r2, f2 = self._naive_prf(s > t, g)
            assert abs(p - p2) <= 1e-9
            assert abs(r - r2) <= 1e-9
            assert abs(f - f2) <= 1e-9
            assert abs(mae(s, g) - np.abs(s - g.astype(float)).mean()) <= 1e-9

    def test_pr_curve_against_naive_thresholding(self):
        rng = Rng(56)
        for _ in range(50):
            s8 = quantize_8bit(rng.uniform(0, 1, (8, 8)))
            g = rng.uniform(0, 1, (8, 8)) > 0.5
            curve = pr_curve(s8, g)
            for t in (0, 1, 127, 254, 255):
                p, r, _ = self._naive_prf(s8 > t, g)
                assert abs(curve.precision[t] - p) <= 1e-9
                assert abs(curve.recall[t] - r) <= 1e-9

    def test_f_equals_p_when_p_equals_r(self):
        for v in (0.1, 0.5, 0.9, 1.0):
            f = (1 + BETA_SQ) * v * v / (BETA_SQ * v + v)
            assert abs(f - v) <= 1e-12


class TestDistortionReport:
    SIGMAS = (0.02, 0.05, 0.1, 0.2)
    QUALITIES = (80, 50, 30)

    def _f_under(self, params, records, spec):
        reports = []
        for i, rec in enumerate(records):
            img = rec.image
            if spec is not None:
                img = apply_distortion(img, spec, Rng(spec.seed, stream=i + 1))
            out = forward(params, img[None].astype(np.float32),
                          mode="inference", update_running=False)
            reports.append(evaluate(saliency_maps(out).metric_map, rec.mask))
        return aggregate(reports).f_beta

    def test_degradation_grid_for_both_models(self, combined_model, ce_model,
                                              desk_data):
        _, test = desk_data
        subset = test[:30]
        for label, params in (("combined", combined_model[0]),
                              ("ce", ce_model[0])):
            clean = self._f_under(params, subset, None)
            noise_rows = [(s, self._f_under(
                params, subset, DistortionSpec(kind="awgn", sigma=s, seed=9)))
                for s in self.SIGMAS]
            dct_rows = [(q, self._f_under(
                params, subset, DistortionSpec(kind="dct_quant", quality=q)))
                for q in self.QUALITIES]
            print(f"\n{label}: clean F={clean:.4f}")
            for s, f in noise_rows:
                print(f"  awgn sigma={s}: F={f:.4f}")
            for q, f in dct_rows:
                print(f"  dct quality={q}: F={f:.4f}")
            # strength columns are emitted in monotone order
            assert list(self.SIGMAS) == sorted(self.SIGMAS)
            assert list(self.QUALITIES) == sorted(self.QUALITIES, reverse=True)
            # the strongest noise must measurably degrade the model
            assert noise_rows[-1][1] < clean
            for _, f in noise_rows + dct_rows:
                assert 0.0 <= f <= 1.0


class TestJacobianStatisticsSchema:
    def test_robustness_command_emits_stat_columns(self, combined_model,
                                                   desk_data, tmp_path):
        params, _, _, out_dir = combined_model
        _, test = desk_data
        images = tmp_path / "images"
        save_dataset(test[:5], str(images), split="test", seed=200, size=64)
        rob = tmp_path / "rob"
        ckpt = os.path.join(out_dir, "best.ment")
        rc = cli_main(["robustness", "--ckpt", ckpt, "--images", str(images),
                       "--out", str(rob), "--mc", "2", "1e-4", "5"])
        assert rc == 0
        doc = json.loads((rob / "robustness.json").read_text())
        assert len(doc["jacobian"]["per_image"]) == 5
        for row in doc["jacobian"]["per_image"]:
            for col in ("max", "min", "median", "mean", "var"):
                assert col in row and np.isfinite(row[col])
        for col in ("max", "min", "median", "mean", "var"):
            assert col in doc["jacobian"]["summary"]


class TestDeterminism:
    def test_checkpoint_round_trip_is_bit_exact(self, combined_model,
                                                desk_data, tmp_path):
        params, _, _, out_dir = combined_model
        _, test = desk_data
        img = test[0].image[None].astype(np.float32)
        want = forward(params, img, mode="inference", update_running=False)
        ck = load_checkpoint(os.path.join(out_dir, "best.ment"))
        got = forward(ck.params, img, mode="inference", update_running=False)
        np.testing.assert_array_equal(got.embedding.data, want.embedding.data)
        np.testing.assert_array_equal(got.ce_probs.data, want.ce_probs.data)
        again = tmp_path / "again.ment"
        save_checkpoint(str(again), ck.params, train_config=ck.train_config,
                        optim_state=ck.optim_state, iteration=ck.iteration)
        third = load_checkpoint(str(again))
        out3 = forward(third.params, img, mode="inference",
                       update_running=False)
        np.testing.assert_array_equal(out3.embedding.data, want.embedding.data)

    def test_resume_reproduces_loss_trajectory(self, desk_data, tmp_path):
        train, _ = desk_data
        tc = TrainConfig(**{**COMBINED_TRAIN, "iterations": 6,
                            "warmup_iterations": 3, "checkpoint_interval": 3})
        full = build(ModelConfig(**DESK_MODEL), Rng(0))
        _, full_hist, _ = train_loop(full, tc, train, log=lambda m: None)

        part = build(ModelConfig(**DESK_MODEL), Rng(0))
        run_dir = tmp_path / "run"
        train_loop(part, tc, train, out_dir=str(run_dir), log=lambda m: None)
        ck = load_checkpoint(run_dir / "ckpt_0000003.ment")
        _, tail_hist, _ = train_loop(ck.params, tc, train,
                                     start_iteration=ck.iteration,
                                     optim_state=ck.optim_state,
                                     log=lambda m: None)
        assert tail_hist == full_hist[3:]
        for (_, p1), (_, p2) in zip(full.named_parameters(),
                                    ck.params.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
