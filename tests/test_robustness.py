from dataclasses import replace

import numpy as np
import pytest

from salseg.tensor import Tensor, Rng, finite_diff_check
from salseg.model import ModelConfig, build, forward, inference_view
from salseg.data import generate_synthetic
from salseg.distortions import DistortionSpec, apply as apply_distortion
from salseg import model as model_module, robustness
from salseg.robustness import (input_gradient, jacobian_stats,
                               mc_directional_fn, mc_directional_norm,
                               lipschitz_bound, distortion_sensitivity,
                               scalarized_output)


def tiny_model(seed=0, dtype=np.float64, **overrides):
    cfg = ModelConfig(input_size=8, base_channels=2, convs_per_block=1,
                      embedding_dim=4, **overrides)
    return cfg, build(cfg, Rng(seed), dtype=dtype)


def random_bn(params, seed):
    """Random running statistics, gamma and beta in place, so a folded
    batch norm is not the identity."""
    rng = Rng(seed)
    for layer in params.layers:
        if layer.bn is not None:
            c = layer.bn.gamma.data.shape[0]
            layer.bn.running_mean = rng.normal((c,))
            layer.bn.running_var = rng.uniform(0.2, 3.0, (c,))
            layer.bn.gamma.data[...] = rng.uniform(0.5, 2.0, (c,))
            layer.bn.beta.data[...] = rng.normal((c,))
    return params


def graph_scalar(params, image, head, centroid=None):
    """The probe scalar from an inference forward on the trained parameters
    themselves, batch norm unfolded and an autodiff graph recorded: the
    reference the inference-view probes are checked against."""
    out = forward(params, Tensor(np.asarray(image)[None]), mode="inference",
                  update_running=False)
    return float(robustness._scalarize(out, head, centroid).data)


@pytest.fixture(scope="module")
def model():
    return tiny_model(seed=3)


@pytest.fixture(scope="module")
def dead_units():
    """A model whose absolute network has units at exactly 0: random batch
    norm and biases, and the first kernel row of ``enc0.conv0`` zeroed."""
    cfg, params = tiny_model(seed=25)
    random_bn(params, seed=26)
    rng = Rng(27)
    for layer in params.layers:
        layer.conv.bias.data[...] = rng.normal(layer.conv.bias.data.shape)
    params.layers[1].conv.weight.data[0] = 0.0
    return cfg, params


@pytest.fixture(scope="module")
def image():
    return Rng(4).uniform(0, 1, (3, 8, 8))


class TestInputGradient:
    def test_matches_finite_differences(self, model, image):
        cfg, params = model
        out = forward(params, Tensor(image[None]), mode="inference",
                      update_running=False)
        centroid = robustness._frozen_centroid(out)

        def fn(x):
            o = forward(params, x.reshape((1,) + image.shape),
                        mode="inference", update_running=False)
            return robustness._scalarize(o, "metric", centroid)

        err = finite_diff_check(fn, image.copy(), eps=1e-6)
        assert err < 1e-4
        g = input_gradient(params, image)
        direct = Tensor(image.copy(), requires_grad=True)
        y = fn(direct)
        y.backward(np.ones(()))
        np.testing.assert_allclose(g, direct.grad, rtol=1e-10)

    def test_ce_head_finite_differences(self, model, image):
        cfg, params = model

        def fn(x):
            o = forward(params, x.reshape((1,) + image.shape),
                        mode="inference", update_running=False)
            return robustness._scalarize(o, "ce")

        assert finite_diff_check(fn, image.copy(), eps=1e-6) < 1e-4

    def test_deterministic(self, model, image):
        cfg, params = model
        a = input_gradient(params, image)
        b = input_gradient(params, image)
        np.testing.assert_array_equal(a, b)
        assert a.shape == image.shape

    def test_doubling_embedding_head_doubles_gradient(self, image):
        cfg, params = tiny_model(seed=5)
        g1 = input_gradient(params, image)
        named = dict(params.named_parameters())
        named["emb.w"].data *= 2.0
        named["emb.b"].data *= 2.0
        g2 = input_gradient(params, image)
        np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-6)

    def test_unknown_head(self, model, image):
        cfg, params = model
        with pytest.raises(ValueError):
            input_gradient(params, image, head="stack")


class TestParameterGradients:
    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_probes_without_input_gradient_write_none(self, image, head):
        # they also leave every parameter and running statistic byte-identical
        params = random_bn(tiny_model(seed=5, dtype=np.float32)[1], seed=6)

        def snapshot():
            return ([p.data.tobytes() for _, p in params.named_parameters()]
                    + [b.tobytes() for _, b in params.named_buffers()])

        before = snapshot()
        mc_directional_norm(params, image, n_samples=3, rng=Rng(1), head=head)
        scalarized_output(params, image, head=head)
        distortion_sensitivity(params, image, DistortionSpec(kind="awgn", sigma=0.1),
                               rng=Rng(2), head=head)
        lipschitz_bound(params, head=head)
        assert all(p.grad is None for _, p in params.named_parameters())
        assert snapshot() == before


class TestInferenceViewProbes:
    """The value probes run through the inference view; they agree with the
    graph path within float rounding and leave the model as they found it."""

    @pytest.fixture(scope="class")
    def folded(self):
        # float32 weights, as a trained checkpoint has, probed in float64
        return random_bn(tiny_model(seed=16, dtype=np.float32)[1], seed=17)

    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_scalarized_output_matches_graph_path(self, folded, image, head):
        want = graph_scalar(folded, image, head)
        assert scalarized_output(folded, image, head=head) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_mc_estimate_matches_graph_path(self, folded, image, head):
        centroid = None
        if head == "metric":
            out = forward(folded, Tensor(image[None]), mode="inference",
                          update_running=False)
            centroid = robustness._frozen_centroid(out)
        want = mc_directional_fn(lambda x: graph_scalar(folded, x, head, centroid),
                                 image, p=2, t=1e-4, n_samples=20, rng=Rng(18))
        got = mc_directional_norm(folded, image, p=2, t=1e-4, n_samples=20,
                                  rng=Rng(18), head=head)
        assert got.estimate == pytest.approx(want.estimate, rel=1e-8)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-6)

    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_distortion_ratio_takes_f0_from_the_centroid_forward(
            self, monkeypatch, folded, image, head):
        spec = DistortionSpec(kind="awgn", sigma=0.05, seed=21)
        calls = []
        real_forward = robustness.forward

        def counting(*args, **kwargs):
            calls.append(None)
            return real_forward(*args, **kwargs)

        monkeypatch.setattr(robustness, "forward", counting)
        rec = distortion_sensitivity(folded, image, spec, head=head)
        assert len(calls) == 2
        monkeypatch.undo()
        # the three-forward form: centroid, f(x) and f(x_hat) separately
        centroid = None
        if head == "metric":
            view = inference_view(folded, np.float64)
            out = forward(view, Tensor(image[None]), mode="inference",
                          update_running=False)
            centroid = robustness._frozen_centroid(out)
        perturbed = apply_distortion(image, spec)
        f0 = scalarized_output(folded, image, head, centroid)
        f1 = scalarized_output(folded, perturbed, head, centroid)
        assert rec.ratio == abs(f1 - f0) / rec.e_input


class TestProbeCrossCheck:
    """Two independent probes of the desk-shaped model: at p = 2 the MC
    estimate of the metric scalar converges to ||input_gradient||^2 / d,
    since the scalar is smooth at the scale of t."""

    @pytest.fixture(scope="class")
    def desk(self):
        cfg = ModelConfig(input_size=64, base_channels=4)
        return build(cfg, Rng(22), dtype=np.float64), generate_synthetic(3, 64, Rng(23))

    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_mc_estimate_matches_gradient_norm(self, desk, index):
        params, records = desk
        image = records[index].image.astype(np.float64)
        g = input_gradient(params, image)
        want = float((g ** 2).sum()) / g.size
        est = mc_directional_norm(params, image, p=2, t=1e-4, n_samples=200,
                                  rng=Rng(24, stream=index + 1))
        assert est.stderr > 0
        assert abs(est.estimate - want) <= 4 * est.stderr


class TestJacobianStats:
    def test_constant_field(self):
        rep = jacobian_stats([np.full((3, 4, 4), -2.0)])
        row = rep.per_image[0]
        assert row["max"] == row["min"] == row["median"] == row["mean"] == 2.0
        assert row["var"] == 0.0

    def test_known_four_values(self):
        rep = jacobian_stats([np.array([1.0, 2.0, 3.0, 4.0])])
        row = rep.per_image[0]
        assert row["mean"] == 2.5 and row["median"] == 2.5
        assert row["var"] == pytest.approx(1.25)  # population variance
        assert row["max"] == 4.0 and row["min"] == 1.0

    def test_summary_is_mean_of_rows(self):
        rep = jacobian_stats([np.array([1.0, 1.0]), np.array([3.0, 3.0])])
        assert rep.summary["mean"] == 2.0
        assert rep.summary["var"] == 0.0

    def test_ordering_invariants_on_random_fields(self):
        rng = Rng(6)
        rep = jacobian_stats([rng.normal((3, 8, 8)) for _ in range(10)])
        for row in rep.per_image:
            assert row["min"] <= row["median"] <= row["max"]
            assert row["min"] <= row["mean"] <= row["max"]
            assert row["var"] >= 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jacobian_stats([])


class TestMcDirectional:
    def test_linear_fixture_matches_sphere_moment(self):
        rng = Rng(7)
        d = 24
        gvec = rng.normal((d,))

        est = mc_directional_fn(lambda x: float(gvec @ x), np.zeros(d),
                                p=2, t=1e-3, n_samples=10_000, rng=Rng(8))
        want = (gvec @ gvec) / d
        assert abs(est.estimate - want) <= 3 * est.stderr
        assert est.stderr > 0

    def test_constant_function_zero(self):
        est = mc_directional_fn(lambda x: 5.0, np.zeros(6), p=2, t=1e-2,
                                n_samples=32, rng=Rng(9))
        assert est.estimate == 0.0

    def test_step_size_consistency_on_model(self, model, image):
        cfg, params = model
        coarse = mc_directional_norm(params, image, p=2, t=1e-3,
                                     n_samples=40, rng=Rng(10))
        fine = mc_directional_norm(params, image, p=2, t=1e-5,
                                   n_samples=40, rng=Rng(10))
        assert fine.estimate > 0
        assert abs(coarse.estimate - fine.estimate) / fine.estimate < 0.01

    def test_validation(self):
        f = lambda x: 0.0
        with pytest.raises(ValueError):
            mc_directional_fn(f, np.zeros(3), p=2, t=0.0, n_samples=4, rng=Rng(0))
        with pytest.raises(ValueError):
            mc_directional_fn(f, np.zeros(3), p=0.5, t=1e-3, n_samples=4, rng=Rng(0))
        with pytest.raises(ValueError):
            mc_directional_fn(f, np.zeros(3), p=2, t=1e-3, n_samples=0, rng=Rng(0))


class TestLipschitzBound:
    def test_bound_field_nonnegative_and_shaped(self, model):
        cfg, params = model
        rep = lipschitz_bound(params)
        assert rep.bound_field.shape == (3, 8, 8)
        assert (rep.bound_field >= 0).all()
        assert rep.norm == "l2" and rep.lipschitz == rep.l2

    def test_norm_selection(self, model):
        cfg, params = model
        for norm in ("l1", "l2", "linf"):
            rep = lipschitz_bound(params, norm=norm)
            assert rep.lipschitz == {"l1": rep.l1, "l2": rep.l2,
                                     "linf": rep.linf}[norm]
        assert rep.l1 >= rep.l2 >= rep.linf
        with pytest.raises(ValueError):
            lipschitz_bound(params, norm="spectral")

    def test_zero_weights_zero_bound(self):
        cfg, params = tiny_model(seed=11)
        for _, p in params.named_parameters():
            p.data[...] = 0.0
        rep = lipschitz_bound(params)
        np.testing.assert_array_equal(rep.bound_field, 0.0)
        assert rep.lipschitz == 0.0

    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_is_the_absolute_network_gradient(self, dead_units, head):
        # zero biases and non-negative kernels make the absolute network
        # the linear map x -> G.x on non-negative inputs, dead units included
        cfg, params = dead_units
        g = lipschitz_bound(params, head=head).bound_field
        view = robustness._absolute_params(params)
        rng = Rng(28)
        for _ in range(5):
            x = rng.uniform(0, 2, (3, 8, 8))
            out = forward(view, Tensor(x[None]))
            scalar = out.ce_logits.sum() if head == "ce" else out.embedding.sum()
            assert float(scalar.data) == pytest.approx(float((g * x).sum()),
                                                       rel=1e-12)

    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_dominates_gradients_with_dead_units(self, dead_units, head):
        cfg, params = dead_units
        bound = lipschitz_bound(params, head=head).bound_field
        rng = Rng(29)
        for _ in range(5):
            g = np.abs(input_gradient(params, rng.uniform(0, 1, (3, 8, 8)),
                                      head=head))
            assert (g <= bound + 1e-9).all()

    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_dominates_measured_gradients(self, model, head):
        cfg, params = model
        rep = lipschitz_bound(params, head=head)
        rng = Rng(12)
        for _ in range(20):
            img = rng.uniform(0, 1, (3, 8, 8))
            g = np.abs(input_gradient(params, img, head=head))
            assert (g <= rep.bound_field + 1e-9).all()
            assert np.abs(g).sum() <= rep.l1 + 1e-9
            assert np.sqrt((g ** 2).sum()) <= rep.l2 + 1e-9
            assert g.max() <= rep.linf + 1e-9

    def test_input_independent(self, model):
        cfg, params = model
        a = lipschitz_bound(params).bound_field
        b = lipschitz_bound(params).bound_field
        np.testing.assert_array_equal(a, b)


class TestDistortionSensitivity:
    def test_tiny_noise_ratio_below_bound(self, model, image):
        cfg, params = model
        m = lipschitz_bound(params).lipschitz
        spec = DistortionSpec(kind="awgn", sigma=1e-6, seed=13)
        rec = distortion_sensitivity(params, image, spec)
        assert rec.ratio >= 0
        assert rec.ratio <= m

    def test_jpeg_proxy_accepted(self, model, image):
        cfg, params = model
        rec = distortion_sensitivity(
            params, image, DistortionSpec(kind="dct_quant", quality=30))
        assert rec.e_input > 0 and rec.ratio >= 0

    def test_zero_perturbation_rejected(self, model):
        cfg, params = model
        flat = np.full((3, 8, 8), 0.5)
        spec = DistortionSpec(kind="dct_quant", quality=100)
        with pytest.raises(ValueError):
            distortion_sensitivity(params, flat, spec)

    def test_ratio_definition(self, model, image):
        cfg, params = model
        spec = DistortionSpec(kind="awgn", sigma=0.05, seed=14)
        rec = distortion_sensitivity(params, image, spec)
        assert rec.ratio == pytest.approx(rec.e_output / rec.e_input)


class TestScalarizedOutput:
    def test_metric_value_is_sum_of_distances(self, model, image):
        cfg, params = model
        out = forward(params, Tensor(image[None]), mode="inference",
                      update_running=False)
        centroid = robustness._frozen_centroid(out)
        emb = out.embedding.data[0]
        dists = np.sqrt(((emb - centroid.reshape(-1, 1, 1)) ** 2).sum(axis=0)
                        + 1e-12)
        got = scalarized_output(params, image)
        assert got == pytest.approx(dists.sum(), rel=1e-9)

    def test_ce_value_is_salient_probability_mass(self, model, image):
        cfg, params = model
        out = forward(params, Tensor(image[None]), mode="inference",
                      update_running=False)
        want = out.ce_probs.data[0, 1].sum()
        assert scalarized_output(params, image, head="ce") == pytest.approx(want)

    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_one_op_with_closed_form_gradient(self, model, image, head):
        cfg, params = model
        out = forward(params, Tensor(image[None]))
        emb = Tensor(out.embedding.data, requires_grad=True)
        probs = Tensor(out.ce_probs.data, requires_grad=True)
        leaves = replace(out, embedding=emb)
        leaves.ce_probs = probs  # stands in for the head that runs on first read
        scalar = robustness._scalarize(leaves, head)
        parent = emb if head == "metric" else probs
        assert len(scalar._parents) == 1 and scalar._parents[0] is parent
        scalar.backward(np.ones(()))
        if head == "metric":
            diff = emb.data - robustness._frozen_centroid(out).reshape(1, -1, 1, 1)
            want = diff / np.sqrt((diff ** 2).sum(axis=1, keepdims=True) + 1e-12)
        else:
            want = np.zeros_like(probs.data)
            want[:, 1] = 1.0
        np.testing.assert_allclose(parent.grad, want, rtol=1e-12, atol=0)


class TestProbeDirections:
    """Each MC direction computes only what its scalar reads."""

    def test_metric_directions_never_run_the_ce_head(self, model, image,
                                                     monkeypatch):
        cfg, params = model
        calls = {"softmax2": 0, "forward": 0}

        def counting(module, name):
            orig = getattr(module, name)

            def wrapped(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapped)

        counting(model_module, "softmax2")
        counting(robustness, "forward")
        mc_directional_norm(params, image, n_samples=5, rng=Rng(44))
        # the centroid forward reads the CE probabilities; f(x) and the
        # directions read the embedding only
        assert calls == {"softmax2": 1, "forward": 5 + 2}

    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_grad_free_scalar_equals_the_recorded_op(self, model, image, head):
        cfg, params = model
        out = forward(inference_view(params, np.float64), Tensor(image[None]))
        centroid = robustness._frozen_centroid(out)
        emb = out.embedding.data.copy()
        leaves = replace(out, embedding=Tensor(emb.copy(), requires_grad=True))
        leaves.ce_probs = Tensor(out.ce_probs.data.copy(), requires_grad=True)
        recorded = robustness._scalarize(leaves, head, centroid)
        free = robustness._scalarize(out, head, centroid)
        assert recorded._backward_fn is not None and free._backward_fn is None
        assert free.data.dtype == recorded.data.dtype
        assert free.data.tobytes() == recorded.data.tobytes()
        assert out.embedding.data.tobytes() == emb.tobytes()

    def test_perturbation_equals_x_plus_t_n(self):
        x = Rng(45).normal((3, 4, 4))
        seen = []
        mc_directional_fn(lambda z: seen.append(z.copy()) or 0.0, x, p=2,
                          t=1e-3, n_samples=3, rng=Rng(46))
        assert len(seen) == 4
        rng = Rng(46)
        for z in seen[1:]:
            want = x + 1e-3 * rng.uniform_sphere(x.size).reshape(x.shape)
            assert z.tobytes() == want.tobytes()
