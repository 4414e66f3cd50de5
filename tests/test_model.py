import numpy as np
import pytest

from salseg import layers, model
from salseg.tensor import Tensor, Rng
from salseg.model import ModelConfig, build, forward


def small_config(**kw):
    defaults = dict(input_size=16, base_channels=4, convs_per_block=1,
                    embedding_dim=8)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestModelConfig:
    def test_scale_count_64(self):
        assert ModelConfig(input_size=64).scale_count == 13

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(input_size=48)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(input_size=4)


class TestBuild:
    def test_same_seed_identical_params(self):
        cfg = small_config()
        a = build(cfg, Rng(5))
        b = build(cfg, Rng(5))
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_init_statistics(self):
        cfg = ModelConfig(input_size=32, base_channels=16, convs_per_block=2)
        params = build(cfg, Rng(0))
        for layer in params.layers:
            t = layer.conv.weight
            if t.data.size < 800:
                continue
            # drawn with the fan-in of the full 3x3 kernel (1x1 for the
            # heads), then cut to the live taps that are stored
            k = 1 if layer.role == "head" else 3
            cin = t.data.shape[0] if layer.transposed else t.data.shape[1]
            target = np.sqrt(2.0 / (cin * k * k))
            assert abs(t.data.std() - target) / target < 0.1, layer.name

    def test_biases_zero_bn_identity(self):
        params = build(small_config(), Rng(1))
        for name, t in params.named_parameters():
            if name.endswith(".b") or name.endswith(".beta"):
                np.testing.assert_array_equal(t.data, 0.0)
            if name.endswith(".gamma"):
                np.testing.assert_array_equal(t.data, 1.0)


def depth(cfg):
    """Convolutional layer count along the assembly: every trunk layer, the
    per-scale extraction stage (one layer deep, however many scales) and
    the two heads."""
    layers = build(cfg, Rng(2)).layers
    return sum(layer.role != "scale" for layer in layers) + 1


class TestDepth:
    def test_full_scale_is_52(self):
        # 4-conv blocks, 6 encoder + 6 decoder blocks
        assert depth(ModelConfig(input_size=64, base_channels=2,
                                 convs_per_block=4)) == 52

    def test_desk_default(self):
        assert depth(ModelConfig(input_size=64, base_channels=2,
                                 convs_per_block=2)) == 28

    def test_minimal_config_matches_structural_walk(self):
        cfg = ModelConfig(input_size=8, convs_per_block=1)
        params = build(cfg, Rng(2))
        trunk = params.with_role("trunk")
        block_convs = sum(layer.name.startswith(("enc", "dec")) for layer in trunk)
        assert len(params.with_role("scale")) == cfg.scale_count
        heads = params.with_role("head")
        walked = 1 + block_convs + 1 + len(heads)  # input, blocks, extractor stage, heads
        assert depth(cfg) == walked == 10


class TestForward:
    def test_shapes_desk_config(self):
        cfg = ModelConfig(input_size=64, base_channels=4, convs_per_block=1)
        params = build(cfg, Rng(3))
        img = Tensor(Rng(4).uniform(0, 1, (2, 3, 64, 64)).astype(np.float32))
        out = forward(params, img, mode="inference")
        assert len(out.scale_maps) == 13
        assert out.stack.data.shape == (2, 13, 64, 64)
        assert out.embedding.data.shape == (2, 16, 64, 64)
        assert out.ce_probs.data.shape == (2, 2, 64, 64)
        np.testing.assert_allclose(out.ce_probs.data.sum(axis=1), 1.0, rtol=1e-5)

    def test_ce_head_runs_once_on_first_read(self, monkeypatch):
        params = build(small_config(), Rng(17))
        img = Tensor(Rng(18).uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
        heads = []
        monkeypatch.setattr(model, "softmax2",
                            lambda t: heads.append(t) or layers.softmax2(t))
        out = forward(params, img, mode="inference")
        assert heads == [] and "ce_logits" not in vars(out)
        assert out.ce_probs is out.ce_probs
        assert out.ce_logits is heads[0]
        assert len(heads) == 1

    def test_scale_maps_are_grad_free_views_of_the_stack(self):
        params = build(small_config(), Rng(19), dtype=np.float64)
        img = Tensor(Rng(20).uniform(0, 1, (2, 3, 16, 16)), requires_grad=True)
        out = forward(params, img, mode="train")
        assert out.stack.requires_grad
        for s, m in enumerate(out.scale_maps):
            assert not m.requires_grad
            assert np.shares_memory(m.data, out.stack.data)
            np.testing.assert_array_equal(m.data, out.stack.data[:, s:s + 1])

    def test_zero_weights_give_uniform_probs(self):
        cfg = small_config()
        params = build(cfg, Rng(5))
        for name, t in params.named_parameters():
            if name.endswith(".w"):
                t.data[...] = 0.0
        img = Tensor(np.zeros((1, 3, 16, 16), dtype=np.float32))
        out = forward(params, img, mode="inference")
        np.testing.assert_array_equal(out.embedding.data, 0.0)
        np.testing.assert_allclose(out.ce_probs.data, 0.5)

    def test_inference_deterministic(self):
        cfg = small_config()
        params = build(cfg, Rng(6))
        img = Tensor(Rng(7).uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
        a = forward(params, img, mode="inference").embedding.data
        b = forward(params, img, mode="inference").embedding.data
        np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        params = build(small_config(), Rng(8))
        with pytest.raises(ValueError):
            forward(params, Tensor(np.zeros((1, 3, 32, 32))))

    def test_batch_permutation_equivariance(self):
        cfg = small_config()
        params = build(cfg, Rng(9))
        imgs = Rng(10).uniform(0, 1, (3, 3, 16, 16)).astype(np.float32)
        out = forward(params, Tensor(imgs), mode="inference").embedding.data
        perm = [2, 0, 1]
        out_p = forward(params, Tensor(imgs[perm]), mode="inference").embedding.data
        np.testing.assert_allclose(out_p, out[perm], rtol=1e-5, atol=1e-6)

    def test_encoder_shape_ladder(self):
        cfg = ModelConfig(input_size=32, base_channels=4, convs_per_block=1)
        params = build(cfg, Rng(11))
        img = Tensor(Rng(12).uniform(0, 1, (1, 3, 32, 32)).astype(np.float32))
        out = forward(params, img, mode="inference")
        # scale maps: raw image + 5 encoder + 5 decoder levels
        assert len(out.scale_maps) == 11
        for m in out.scale_maps:
            assert m.data.shape[2:] == (32, 32)

    def test_train_mode_updates_running_stats(self):
        cfg = small_config()
        params = build(cfg, Rng(13))
        before = dict(params.named_buffers())["input.bn.running_mean"].copy()
        img = Tensor(Rng(14).uniform(0, 1, (2, 3, 16, 16)).astype(np.float32))
        forward(params, img, mode="train")
        after = dict(params.named_buffers())["input.bn.running_mean"]
        assert not np.array_equal(after, before)

    def test_gradient_reaches_all_parameters(self):
        cfg = small_config()
        params = build(cfg, Rng(15), dtype=np.float64)
        img = Tensor(Rng(16).uniform(0, 1, (2, 3, 16, 16)))
        out = forward(params, img, mode="train")
        (out.embedding.square().sum() + out.ce_probs.square().sum()).backward()
        missing = [n for n, t in params.named_parameters()
                   if t.grad is None and not n.startswith("ce") or
                   (t.grad is not None and not np.isfinite(t.grad).all())]
        # ce head bias/weight do get gradients too
        for n, t in params.named_parameters():
            assert t.grad is not None, n


class TestLayerList:
    """The layer list is the one description of the network: its order fixes
    the parameter and buffer names (the checkpoint blob directory), and
    forward dispatches every record through this module's layer ops."""

    TINY = dict(input_size=8, base_channels=2, convs_per_block=1)

    def test_parameter_and_buffer_names_in_order(self):
        params = build(ModelConfig(**self.TINY), Rng(0))
        bns = (["input.bn", "enc0.bn0", "enc1.bn0", "enc2.bn0",
                "dec0.bn0", "dec1.bn0", "dec2.bn0"]
               + [f"scale{s}.bn" for s in range(7)])
        convs = (["input.conv", "enc0.conv0", "enc1.conv0", "enc2.conv0",
                  "dec0.deconv", "dec1.deconv", "dec2.deconv"]
                 + [f"scale{s}" for s in range(7)])
        want_params = []
        for conv, bn in zip(convs, bns):
            want_params += [f"{conv}.w", f"{conv}.b", f"{bn}.gamma", f"{bn}.beta"]
        want_params += ["emb.w", "emb.b", "ce.w", "ce.b"]
        want_buffers = []
        for bn in bns:
            want_buffers += [f"{bn}.running_mean", f"{bn}.running_var"]
        assert [n for n, _ in params.named_parameters()] == want_params
        assert [n for n, _ in params.named_buffers()] == want_buffers

    @pytest.mark.parametrize("convs_per_block", [1, 2])
    def test_forward_dispatches_each_record_through_module_ops(
            self, monkeypatch, convs_per_block):
        cfg = ModelConfig(**dict(self.TINY, convs_per_block=convs_per_block))
        params = build(cfg, Rng(1))
        calls = {"conv2d": 0, "deconv2d": 0, "batch_norm": 0}

        def counting(op):
            orig = getattr(model, op)

            def wrapped(*args, **kwargs):
                calls[op] += 1
                return orig(*args, **kwargs)
            return wrapped

        for op in calls:
            monkeypatch.setattr(model, op, counting(op))
        img = Tensor(Rng(2).uniform(0, 1, (1, 3, 8, 8)).astype(np.float32))
        out = forward(params, img, mode="inference")
        # the CE head runs on the first read of its output, once
        assert calls["conv2d"] == sum(not layer.transposed for layer in params.layers) - 1
        out.ce_probs, out.ce_logits, out.ce_probs
        assert calls == {
            "conv2d": sum(not layer.transposed for layer in params.layers),
            "deconv2d": sum(layer.transposed for layer in params.layers),
            "batch_norm": sum(layer.bn is not None for layer in params.layers),
        }
        assert calls["deconv2d"] == cfg.levels
        assert calls["conv2d"] + calls["deconv2d"] == len(params.layers)


class TestLiveTaps:
    """Kernels are stored as the taps that can reach a real pixel: no stored
    weight only ever multiplies zero padding, and the function is that of
    the full 3x3 network drawn from the same seed."""

    CFG = dict(input_size=16, base_channels=2, convs_per_block=2,
               embedding_dim=4)

    def test_no_dead_taps(self):
        params = build(ModelConfig(**self.CFG), Rng(3), dtype=np.float64)
        img = Tensor(Rng(4).uniform(0, 1, (4, 3, 16, 16)))
        out = forward(params, img, mode="train")
        (out.embedding.square().sum() + out.ce_probs.square().sum()).backward()
        for layer in params.layers:
            g = layer.conv.weight.grad
            per_tap = np.abs(g).sum(axis=(0, 1))
            assert (per_tap > 0).all(), (layer.name, per_tap)

    def test_desk_model_cuts_four_kernels(self):
        params = build(ModelConfig(input_size=64, base_channels=4), Rng(0))
        shapes = {layer.name: layer.conv.weight.data.shape
                  for layer in params.layers}
        assert shapes["dec0.conv0"] == (256, 512, 1, 1)
        assert shapes["enc5.conv1"] == (256, 128, 2, 2)
        assert shapes["dec0.deconv"] == (256, 128, 2, 2)
        assert shapes["scale6"] == (1, 256, 1, 1)
        cut = {"dec0.conv0", "enc5.conv1", "dec0.deconv", "scale6", "emb", "ce"}
        assert all(s[2:] == (3, 3) for n, s in shapes.items() if n not in cut)
        assert sum(t.data.size for _, t in params.named_parameters()) == 1188754

    def test_same_function_as_full_kernels(self, monkeypatch):
        cfg = ModelConfig(**self.CFG)
        cut = build(cfg, Rng(5), dtype=np.float64)
        monkeypatch.setattr(model, "_live_taps", lambda k, size, stride: slice(None))
        full = build(cfg, Rng(5), dtype=np.float64)
        assert (sum(t.data.size for _, t in full.named_parameters())
                > sum(t.data.size for _, t in cut.named_parameters()))
        img = Rng(6).uniform(0, 1, (2, 3, 16, 16))
        for mode in ("train", "inference"):
            a = forward(cut, img, mode=mode)
            b = forward(full, img, mode=mode)
            for x, y in ((a.embedding, b.embedding), (a.ce_probs, b.ce_probs)):
                np.testing.assert_allclose(x.data, y.data, rtol=0,
                                           atol=1e-12 * np.abs(y.data).max())


def random_bn_model(dtype, seed=0):
    """The tiny model with random running statistics, gamma and beta, so
    folding the batch norms changes every conv it touches."""
    cfg = ModelConfig(input_size=8, base_channels=2, convs_per_block=1,
                      embedding_dim=4)
    params = build(cfg, Rng(seed), dtype=dtype)
    rng = Rng(seed + 1)
    for layer in params.layers:
        if layer.bn is not None:
            c = layer.bn.gamma.data.shape[0]
            layer.bn.running_mean = rng.normal((c,))
            layer.bn.running_var = rng.uniform(0.2, 3.0, (c,))
            layer.bn.gamma.data[...] = rng.uniform(0.5, 2.0, (c,))
            layer.bn.beta.data[...] = rng.normal((c,))
    return params


class TestInferenceView:
    """The inference view is the network as a fixed function: batch norm
    folded into each conv, weights cast once, no tensor that asks for a
    gradient, and the same outputs as the inference forward on the
    trained parameters."""

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_same_outputs_as_graph_forward(self, monkeypatch, dtype, tol):
        params = random_bn_model(dtype, seed=2)
        img = Rng(3).uniform(0, 1, (2, 3, 8, 8)).astype(dtype)
        want = forward(params, img, mode="inference", update_running=False)
        view = model.inference_view(params, dtype)
        kinds = []
        orig_conv = model.conv2d

        def recording_conv(x, cp):
            n, c, h, wd = x.data.shape
            narrow = layers._narrow_side(n, c, h, wd, cp.weight.data.shape, cp.stride)
            kinds.append("narrow" if narrow else "plain")
            return orig_conv(x, cp)

        monkeypatch.setattr(model, "conv2d", recording_conv)
        got = forward(view, img, mode="inference", update_running=False)
        # the fold reaches a plain conv, a narrowing conv, a transposed conv
        # (scaled along axis 1) and both heads, which have no batch norm
        assert {"plain", "narrow"} <= set(kinds)
        assert any(layer.transposed for layer in view.layers)
        assert [layer.name for layer in view.with_role("head")] == ["emb", "ce"]
        for a, b in ((got.embedding, want.embedding), (got.ce_probs, want.ce_probs)):
            assert a.data.dtype == dtype
            np.testing.assert_allclose(a.data, b.data, rtol=0,
                                       atol=tol * np.abs(b.data).max())

    def test_nothing_requires_grad(self):
        params = random_bn_model(np.float32)
        view = model.inference_view(params, np.float64)
        assert all(not p.requires_grad for _, p in view.named_parameters())
        assert all(layer.bn is None for layer in view.layers)
        assert view.named_buffers() == []
        out = forward(view, Rng(4).uniform(0, 1, (1, 3, 8, 8)),
                      mode="inference", update_running=False)
        assert not out.embedding.requires_grad and not out.ce_probs.requires_grad

    @pytest.mark.parametrize("param_dtype,input_dtype,want", [
        (np.float32, np.float32, np.float32),
        (np.float32, np.float64, np.float64),
        (np.float64, np.float32, np.float64),
    ])
    def test_compute_dtype_is_the_promotion(self, param_dtype, input_dtype, want):
        view = model.inference_view(random_bn_model(param_dtype), input_dtype)
        assert {p.data.dtype for _, p in view.named_parameters()} == {np.dtype(want)}

    def test_shares_no_array_with_the_model(self):
        params = random_bn_model(np.float64)
        view = model.inference_view(params, np.float64)
        for layer, folded in zip(params.layers, view.layers):
            assert not np.shares_memory(layer.conv.weight.data, folded.conv.weight.data)
            assert not np.shares_memory(layer.conv.bias.data, folded.conv.bias.data)
