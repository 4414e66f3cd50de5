import csv
import io
import json
from dataclasses import replace

import numpy as np
import pytest

from salseg import tensor, train
from salseg.tensor import Tensor, Rng
from salseg.model import ModelConfig, build, forward
from salseg.data import generate_synthetic
from salseg.metrics import EvalReport
from salseg.losses import SampleSet, combined_loss
from salseg.robustness import input_gradient
from salseg.train import (TrainConfig, OptimState, CheckpointError, sgd_step,
                          train_loop, validate, save_checkpoint,
                          load_checkpoint, FORMAT_VERSION)


def tiny_setup(seed=0, **train_overrides):
    cfg = ModelConfig(input_size=8, base_channels=2, convs_per_block=1,
                      embedding_dim=4)
    params = build(cfg, Rng(seed))
    tc = TrainConfig(iterations=3, batch_size=2, checkpoint_interval=2,
                     seed=seed, **train_overrides)
    data = generate_synthetic(6, 8, Rng(seed + 100))
    return cfg, params, tc, data


def split_checkpoint(raw):
    """(header dict, payload bytes) of a checkpoint file's contents."""
    hlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def join_checkpoint(header, payload):
    text = json.dumps(header).encode()
    return (b"MENT" + np.uint32(FORMAT_VERSION).tobytes()
            + np.uint64(len(text)).tobytes() + text + payload)


def forward_fingerprint(params, image):
    out = forward(params, image, mode="inference", update_running=False)
    return out.embedding.data.copy(), out.ce_probs.data.copy()


class TestTrainConfig:
    def test_defaults_match_protocol(self):
        tc = TrainConfig()
        assert tc.learning_rate == 0.1
        assert tc.momentum == 0.9
        assert tc.weight_decay == 1e-8
        assert tc.batch_size == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(loss="dice")

    def test_at_least_one_iteration(self):
        with pytest.raises(ValueError, match="iterations"):
            TrainConfig(iterations=0)
        assert TrainConfig(iterations=1).iterations == 1

    def test_resume_at_the_last_iteration_takes_no_step(self):
        cfg, params, tc, data = tiny_setup(seed=3)
        state, history, best = train_loop(params, tc, data, log=lambda m: None)
        before = [p.data.copy() for _, p in params.named_parameters()]
        _, history, best = train_loop(params, tc, data,
                                      start_iteration=tc.iterations,
                                      optim_state=state, log=lambda m: None)
        assert history == [] and best is None
        for (_, p), b in zip(params.named_parameters(), before):
            np.testing.assert_array_equal(p.data, b)

    def test_dict_round_trip(self):
        tc = TrainConfig(iterations=7, loss="ce", lam=0.5)
        assert TrainConfig.from_dict(tc.to_dict()) == tc


class TestGradientControls:
    def test_clip_rescales_to_ceiling(self):
        from salseg.train import clip_gradients
        grads = {"a": np.array([3.0, 4.0]), "b": np.zeros(2)}
        pre = clip_gradients(grads, 1.0)
        assert pre == pytest.approx(5.0)
        assert np.linalg.norm(grads["a"]) == pytest.approx(1.0)

    def test_clip_leaves_small_gradients_alone(self):
        from salseg.train import clip_gradients
        grads = {"a": np.array([0.3, 0.4])}
        clip_gradients(grads, 1.0)
        np.testing.assert_allclose(grads["a"], [0.3, 0.4])

    def test_clip_of_float32_gradients_matches_float64_norm(self):
        from salseg.train import clip_gradients
        params = build(ModelConfig(input_size=64, base_channels=4), Rng(0))
        rng = np.random.default_rng(1)
        grads = {name: (rng.standard_normal(t.data.shape)
                        * 10.0 ** rng.uniform(-4, 1)).astype(np.float32)
                 for name, t in params.named_parameters()}
        want = np.sqrt(sum((g.astype(np.float64) ** 2).sum()
                           for g in grads.values()))
        pre = clip_gradients(grads, 1.0)
        assert pre == pytest.approx(want, rel=1e-5)
        after = np.sqrt(sum((g.astype(np.float64) ** 2).sum()
                            for g in grads.values()))
        assert after <= 1 + 1e-5
        assert all(g.dtype == np.float32 for g in grads.values())

    def test_clip_scales_the_arrays_in_place(self):
        from salseg.train import clip_gradients
        rng = np.random.default_rng(2)
        grads = {name: rng.standard_normal(shape).astype(np.float32)
                 for name, shape in (("a.w", (4, 3, 3, 3)), ("a.b", (4,)),
                                     ("b.w", (2, 4, 1, 1)))}
        arrays = dict(grads)
        pre = clip_gradients(grads, 0.5)
        assert pre > 0.5
        assert all(grads[name] is arrays[name] for name in arrays)
        after = np.sqrt(sum((g.astype(np.float64) ** 2).sum()
                            for g in grads.values()))
        assert after <= 0.5 * (1 + 1e-6)

    def test_warmup_uses_ce_only_then_switches(self):
        tc = TrainConfig(loss="combined", warmup_iterations=2,
                         warmup_learning_rate=0.5, learning_rate=0.01)
        early = tc.at_iteration(0)
        assert early.loss == "ce" and early.learning_rate == 0.5
        late = tc.at_iteration(2)
        assert late is tc

    def test_warmup_ignored_for_ce_runs(self):
        tc = TrainConfig(loss="ce", warmup_iterations=5)
        assert tc.at_iteration(0) is tc

    def test_warmup_metric_loss_zero_then_nonzero(self):
        cfg, params, tc, data = tiny_setup(seed=20, warmup_iterations=2,
                                           clip_norm=1.0)
        _, hist, _ = train_loop(params, tc, data, log=lambda m: None)
        assert hist[0][2] == 0.0 and hist[1][2] == 0.0
        assert hist[2][2] != 0.0


class TestSgdStep:
    def make_params(self):
        cfg = ModelConfig(input_size=8, base_channels=2, convs_per_block=1,
                          embedding_dim=4)
        return build(cfg, Rng(1))

    def test_plain_gd_when_no_momentum_no_decay(self):
        params = self.make_params()
        tc = TrainConfig(learning_rate=0.5, momentum=0.0, weight_decay=0.0)
        before = {n: p.data.copy() for n, p in params.named_parameters()}
        grads = {n: np.ones_like(p.data, dtype=np.float64)
                 for n, p in params.named_parameters()}
        state = OptimState()
        sgd_step(params, grads, state, tc)
        for n, p in params.named_parameters():
            np.testing.assert_allclose(p.data, before[n] - 0.5, rtol=1e-6)
        assert state.iteration == 1

    def test_matches_scalar_recurrence(self):
        # quadratic bowl f(theta) = theta^2 / 2, gradient = theta
        params = self.make_params()
        name, p = params.named_parameters()[0]
        p.data[...] = 1.0
        tc = TrainConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        state = OptimState()
        theta, v = 1.0, 0.0
        for _ in range(200):
            grads = {name: p.data.astype(np.float64).copy()}
            sgd_step(params, grads, state, tc)
            v = 0.9 * v + theta
            theta = theta - 0.1 * v
            np.testing.assert_allclose(p.data, theta, atol=1e-6)
        assert abs(theta) < 1e-3

    def test_weight_decay_only_is_geometric(self):
        params = self.make_params()
        tc = TrainConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.01)
        before = {n: p.data.copy() for n, p in params.named_parameters()}
        state = OptimState()
        sgd_step(params, {}, state, tc)
        for n, p in params.named_parameters():
            np.testing.assert_allclose(p.data, before[n] * (1 - 0.1 * 0.01),
                                       rtol=1e-6)

    def test_shape_mismatch(self):
        params = self.make_params()
        name, p = params.named_parameters()[0]
        with pytest.raises(ValueError):
            sgd_step(params, {name: np.zeros(p.data.shape + (1,))},
                     OptimState(), TrainConfig())

    @staticmethod
    def out_of_place_step(params, grads, velocity, config):
        """The update written with fresh arrays, the reference for the
        in-place ``sgd_step``."""
        for name, p in params.named_parameters():
            g = grads.get(name, np.zeros_like(p.data))
            v = velocity.get(name, np.zeros_like(p.data))
            v = config.momentum * v + g.astype(p.data.dtype, copy=False)
            if config.weight_decay:
                v += config.weight_decay * p.data
            velocity[name] = v.astype(p.data.dtype, copy=False)
            p.data -= config.learning_rate * velocity[name]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_is_bit_equal(self, tmp_path, dtype):
        cfg = ModelConfig(input_size=8, base_channels=2, convs_per_block=1,
                          embedding_dim=4)
        params, ref = build(cfg, Rng(1), dtype=dtype), build(cfg, Rng(1), dtype=dtype)
        tc = TrainConfig(learning_rate=0.05, momentum=0.9, weight_decay=1e-3)
        state, ref_velocity = OptimState(), {}
        rng = Rng(2)

        def step(params, state):
            # float64 gradients on every other tensor, none for the last one
            named = params.named_parameters()
            grads = {n: rng.normal(p.data.shape, dtype=np.float64 if i % 2 else dtype)
                     for i, (n, p) in enumerate(named[:-1])}
            sgd_step(params, grads, state, tc)
            self.out_of_place_step(ref, grads, ref_velocity, tc)

        def assert_bit_equal(params, state):
            for (n, p), (_, q) in zip(params.named_parameters(), ref.named_parameters()):
                assert p.data.dtype == q.data.dtype == dtype
                assert p.data.tobytes() == q.data.tobytes()
                assert state.velocity[n].dtype == dtype
                assert state.velocity[n].tobytes() == ref_velocity[n].tobytes()

        for _ in range(3):
            step(params, state)
        assert_bit_equal(params, state)
        # resume: the velocities come back from the checkpoint
        path = tmp_path / "s.ment"
        save_checkpoint(path, params, train_config=tc, optim_state=state)
        ck = load_checkpoint(path)
        for _ in range(3):
            step(ck.params, ck.optim_state)
        assert_bit_equal(ck.params, ck.optim_state)

    def test_velocity_of_another_dtype_is_cast_once(self):
        params = self.make_params()
        name, p = params.named_parameters()[0]
        tc = TrainConfig(learning_rate=0.1, momentum=0.5, weight_decay=0.0)
        v64 = np.ones(p.data.shape)
        state = OptimState(velocity={name: v64})
        sgd_step(params, {}, state, tc)
        assert state.velocity[name].dtype == p.data.dtype
        np.testing.assert_array_equal(v64, 1.0)  # the caller's array is untouched
        np.testing.assert_array_equal(state.velocity[name], 0.5)


class TestTrainLoop:
    def test_zero_lr_leaves_parameters_unchanged(self):
        cfg, params, tc, data = tiny_setup(learning_rate=0.0)
        before = {n: p.data.copy() for n, p in params.named_parameters()}
        train_loop(params, tc, data, log=lambda m: None)
        for n, p in params.named_parameters():
            np.testing.assert_array_equal(p.data, before[n])

    def test_history_rows_and_determinism(self):
        cfg, params, tc, data = tiny_setup(seed=2)
        _, hist1, _ = train_loop(params, tc, data, log=lambda m: None)
        assert [row[0] for row in hist1] == [0, 1, 2]
        for _, l_ce, l_ml, total in hist1:
            assert np.isfinite(total)

        params2 = build(cfg, Rng(2))
        _, hist2, _ = train_loop(params2, tc, data, log=lambda m: None)
        assert hist1 == hist2
        for (n1, p1), (n2, p2) in zip(params.named_parameters(),
                                      params2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_ce_only_mode_keeps_metric_loss_zero(self):
        cfg, params, tc, data = tiny_setup(seed=3, loss="ce")
        _, hist, _ = train_loop(params, tc, data, log=lambda m: None)
        assert all(row[2] == 0.0 for row in hist)

    def test_writes_checkpoints_and_loss_csv(self, tmp_path):
        cfg, params, tc, data = tiny_setup(seed=4)
        val = generate_synthetic(2, 8, Rng(5))
        _, hist, best = train_loop(params, tc, data, val_set=val,
                                   out_dir=tmp_path, log=lambda m: None)
        assert (tmp_path / "ckpt_0000002.ment").exists()
        assert (tmp_path / "ckpt_0000003.ment").exists()
        assert (tmp_path / "best.ment").exists()
        assert (tmp_path / "loss.csv").exists()
        lines = (tmp_path / "loss.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,l_ce,l_ml_star,total"
        assert len(lines) == 1 + len(hist)
        # the rows written as the steps ended are the CSV of the history
        want = io.StringIO(newline="")
        csv.writer(want).writerows([lines[0].split(",")] + hist)
        assert (tmp_path / "loss.csv").read_bytes() == want.getvalue().encode()
        assert best is not None and 0.0 <= best.f_beta <= 1.0

    def test_interrupted_run_keeps_its_loss_rows(self, tmp_path, monkeypatch):
        cfg, params, tc, data = tiny_setup(seed=4)
        real_step = train.sgd_step
        calls = []

        def failing_step(*args):
            calls.append(None)
            if len(calls) == 3:
                raise RuntimeError("interrupted")
            return real_step(*args)

        monkeypatch.setattr(train, "sgd_step", failing_step)
        with pytest.raises(RuntimeError, match="interrupted"):
            train_loop(params, tc, data, out_dir=tmp_path, log=lambda m: None)
        lines = (tmp_path / "loss.csv").read_text().splitlines()
        assert lines[0] == "iteration,l_ce,l_ml_star,total"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1"]

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        cfg, params, tc, data = tiny_setup(seed=6)
        full_params = build(cfg, Rng(6))
        _, full_hist, _ = train_loop(full_params, tc, data, log=lambda m: None)

        train_loop(params, tc, data, out_dir=tmp_path, log=lambda m: None)
        ck = load_checkpoint(tmp_path / "ckpt_0000002.ment")
        assert ck.iteration == 2
        _, tail_hist, _ = train_loop(ck.params, tc, data,
                                     start_iteration=ck.iteration,
                                     optim_state=ck.optim_state,
                                     log=lambda m: None)
        assert tail_hist == full_hist[2:]
        for (_, p1), (_, p2) in zip(full_params.named_parameters(),
                                    ck.params.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_resumed_run_keeps_earlier_loss_rows(self, tmp_path):
        cfg, params, tc, data = tiny_setup(seed=6)
        tc = replace(tc, iterations=4)
        full, resumed = tmp_path / "full", tmp_path / "resumed"
        train_loop(params, tc, data, out_dir=full, log=lambda m: None)
        train_loop(build(cfg, Rng(6)), tc, data, out_dir=resumed,
                   log=lambda m: None)
        ck = load_checkpoint(resumed / "ckpt_0000002.ment")
        # the rerun replaces the rows of iterations 2 and 3
        train_loop(ck.params, tc, data, out_dir=resumed,
                   start_iteration=ck.iteration, optim_state=ck.optim_state,
                   log=lambda m: None)
        assert ((resumed / "loss.csv").read_bytes()
                == (full / "loss.csv").read_bytes())

    def test_resume_keeps_the_earlier_best(self, tmp_path, monkeypatch):
        cfg, params, tc, data = tiny_setup(seed=6)
        tc = replace(tc, iterations=4)
        val = generate_synthetic(2, 8, Rng(5))
        scores = {2: 0.9, 4: 0.5}

        def scored_by_iteration(model, dataset):
            # the score of the checkpoint in tmp_path that holds these weights
            for it, f in scores.items():
                ck = load_checkpoint(tmp_path / f"ckpt_{it:07d}.ment")
                if all(np.array_equal(a.data, b.data) for (_, a), (_, b)
                       in zip(model.named_parameters(), ck.params.named_parameters())):
                    return EvalReport(t_adp=0.5, precision=f, recall=f, f_beta=f, mae=0.1)
            raise AssertionError("validated weights of no known checkpoint")

        monkeypatch.setattr(train, "validate", scored_by_iteration)
        _, _, best = train_loop(params, tc, data, val_set=val, out_dir=tmp_path,
                                log=lambda m: None)
        ckpt2 = (tmp_path / "ckpt_0000002.ment").read_bytes()
        assert best.f_beta == 0.9
        assert (tmp_path / "best.ment").read_bytes() == ckpt2

        ck = load_checkpoint(tmp_path / "ckpt_0000002.ment")
        _, _, best = train_loop(ck.params, tc, data, val_set=val, out_dir=tmp_path,
                                start_iteration=ck.iteration,
                                optim_state=ck.optim_state, log=lambda m: None)
        assert best.f_beta == 0.9
        assert (tmp_path / "best.ment").read_bytes() == ckpt2
        assert load_checkpoint(tmp_path / "best.ment").iteration == 2

    @pytest.mark.parametrize("lr,clip_norm,what", [
        (1e12, None, "total loss is"),
        (1e12, 1.0, "gradient norm is"),
        (1e6, None, "the network output is not finite"),
    ], ids=["loss", "grad-norm", "output"])
    def test_divergence_stops_before_the_step(self, tmp_path, monkeypatch,
                                              lr, clip_norm, what):
        cfg, params, tc, data = tiny_setup(learning_rate=lr,
                                           clip_norm=clip_norm)
        tc = replace(tc, iterations=8, checkpoint_interval=1)
        tensor.set_finite_checks(False)  # train_loop's own checks, as the CLI runs
        steps = []
        real_step = train.sgd_step
        monkeypatch.setattr(train, "sgd_step",
                            lambda *a: (steps.append(None), real_step(*a)))
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as exc:
            train_loop(params, tc, data, out_dir=tmp_path, log=lambda m: None)
        assert 0 < len(steps) < 8
        assert str(exc.value).startswith(f"iteration {len(steps)}: {what}")
        rows = list(csv.reader((tmp_path / "loss.csv").read_text().splitlines()))[1:]
        assert [int(r[0]) for r in rows] == list(range(len(steps)))
        assert np.isfinite(np.array(rows, dtype=float)).all()
        for i in range(1, len(steps) + 1):
            ck = load_checkpoint(tmp_path / f"ckpt_{i:07d}.ment")
            for _, p in ck.params.named_parameters():
                assert np.isfinite(p.data).all()
        assert not (tmp_path / f"ckpt_{len(steps) + 1:07d}.ment").exists()

    def test_resume_without_optimizer_state_refused(self):
        cfg, params, tc, data = tiny_setup(seed=7)
        with pytest.raises(CheckpointError):
            train_loop(params, tc, data, start_iteration=1, log=lambda m: None)

    def test_empty_dataset_rejected(self):
        cfg, params, tc, _ = tiny_setup()
        with pytest.raises(ValueError):
            train_loop(params, tc, [], log=lambda m: None)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradients_keep_model_dtype(self, monkeypatch, dtype):
        cfg, _, tc, data = tiny_setup(seed=14)
        params = build(cfg, Rng(14), dtype=dtype)
        tc = replace(tc, iterations=1)
        seen = []
        real_step = train.sgd_step

        def spy(params, grads, *args):
            seen.append({n: g.dtype for n, g in grads.items()})
            return real_step(params, grads, *args)

        monkeypatch.setattr(train, "sgd_step", spy)
        train_loop(params, tc, data, log=lambda m: None)
        assert len(seen) == 1 and seen[0]
        assert set(seen[0].values()) == {np.dtype(dtype)}

    @pytest.mark.parametrize("head", ["metric", "ce"])
    def test_probe_gradients_do_not_leak_into_a_step(self, head):
        cfg, params, tc, data = tiny_setup(seed=15)
        tc = replace(tc, iterations=1)
        clean = build(cfg, Rng(15))
        input_gradient(params, data[0].image, head=head)
        train_loop(params, tc, data, log=lambda m: None)
        train_loop(clean, tc, data, log=lambda m: None)
        for (n, p), (_, q) in zip(params.named_parameters(),
                                  clean.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=n)

    def test_validate_report_ranges(self):
        cfg, params, tc, data = tiny_setup(seed=8)
        rep = validate(params, data[:3])
        assert 0.0 <= rep.f_beta <= 1.0
        assert 0.0 <= rep.mae <= 1.0


class TestLosses:
    def test_combined_loss_of_float32_embedding_is_float32(self):
        rng = Rng(16)
        emb = Tensor(rng.normal((2, 4, 8, 8), dtype=np.float32), requires_grad=True)
        probs = Tensor(np.full((2, 2, 8, 8), 0.5, dtype=np.float32),
                       requires_grad=True)
        labels = np.zeros((2, 8, 8), dtype=bool)
        labels[:, 2:5, 2:5] = True
        sample = SampleSet(positive=np.flatnonzero(labels[0])[:4],
                           negative=np.flatnonzero(~labels[0])[:4])
        lv = combined_loss(emb, probs, labels, [sample, None], lam=1.0)
        assert lv.total.dtype == np.float32
        lv.total.backward()
        assert emb.grad.dtype == np.float32
        assert probs.grad.dtype == np.float32


class TestCheckpoint:
    def test_load_draws_no_random_weights(self, tmp_path, monkeypatch):
        cfg, params, tc, data = tiny_setup(seed=17)
        path = tmp_path / "c.ment"
        save_checkpoint(path, params, train_config=tc, iteration=0)

        def refuse(*args, **kwargs):
            raise AssertionError("load_checkpoint drew from the rng")

        monkeypatch.setattr(Rng, "normal", refuse)
        ck = load_checkpoint(path)
        for (n, p), (_, q) in zip(params.named_parameters(),
                                  ck.params.named_parameters()):
            assert p.data.dtype == q.data.dtype
            assert p.data.tobytes() == q.data.tobytes(), n

    def test_round_trip_preserves_forward_outputs(self, tmp_path):
        cfg, params, tc, data = tiny_setup(seed=9)
        train_loop(params, tc, data, log=lambda m: None)  # move off init
        img = Rng(10).uniform(0, 1, (1, 3, 8, 8)).astype(np.float32)
        want = forward_fingerprint(params, img)
        path = tmp_path / "a.ment"
        save_checkpoint(path, params, train_config=tc, iteration=3)
        ck = load_checkpoint(path)
        got = forward_fingerprint(ck.params, img)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert ck.train_config == tc
        assert ck.iteration == 3
        assert ck.optim_state is None

    def test_save_load_save_byte_identical(self, tmp_path):
        cfg, params, tc, data = tiny_setup(seed=11)
        state = OptimState(velocity={n: Rng(12).normal(p.data.shape)
                                     for n, p in params.named_parameters()})
        a, b = tmp_path / "a.ment", tmp_path / "b.ment"
        save_checkpoint(a, params, train_config=tc, optim_state=state,
                        iteration=5)
        ck = load_checkpoint(a)
        save_checkpoint(b, ck.params, train_config=ck.train_config,
                        optim_state=ck.optim_state, iteration=ck.iteration)
        assert a.read_bytes() == b.read_bytes()

    def test_header_config_keys_are_pinned(self, tmp_path):
        # every checkpoint ever written carries these keys; a field added to
        # or dropped from either config changes what old files can load
        cfg, params, tc, data = tiny_setup(seed=14)
        p = tmp_path / "k.ment"
        save_checkpoint(p, params, train_config=tc)
        header, _ = split_checkpoint(p.read_bytes())
        assert sorted(header["model"]) == [
            "base_channels", "convs_per_block", "embedding_dim", "input_size"]
        assert sorted(header["train"]) == [
            "augment", "batch_size", "checkpoint_interval", "clip_norm",
            "iterations", "lam", "learning_rate", "loss", "momentum", "seed",
            "warmup_iterations", "warmup_learning_rate", "weight_decay"]
        assert header["model"] == cfg.to_dict()
        assert header["train"] == tc.to_dict()

    def test_optimizer_state_round_trip(self, tmp_path):
        cfg, params, tc, data = tiny_setup(seed=13)
        opt, _, _ = train_loop(params, tc, data, log=lambda m: None)
        path = tmp_path / "o.ment"
        save_checkpoint(path, params, train_config=tc, optim_state=opt,
                        iteration=opt.iteration)
        ck = load_checkpoint(path)
        assert ck.optim_state.iteration == opt.iteration
        for name, v in opt.velocity.items():
            np.testing.assert_array_equal(ck.optim_state.velocity[name], v)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.ment"
        p.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_version_bump_rejected(self, tmp_path):
        cfg, params, tc, _ = tiny_setup()
        p = tmp_path / "v.ment"
        save_checkpoint(p, params)
        raw = bytearray(p.read_bytes())
        raw[4:8] = np.uint32(FORMAT_VERSION + 1).tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(p)
        assert "version" in str(exc.value)

    def test_version_1_rejected(self, tmp_path):
        cfg, params, tc, _ = tiny_setup()
        p = tmp_path / "v1.ment"
        save_checkpoint(p, params)
        raw = bytearray(p.read_bytes())
        raw[4:8] = np.uint32(1).tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported format version 1"):
            load_checkpoint(p)

    def test_version_2_rejected(self, tmp_path):
        # version 2 headers carry the removed mine_metric_loss and
        # ce_head_input keys
        cfg, params, tc, _ = tiny_setup()
        p = tmp_path / "v2.ment"
        save_checkpoint(p, params)
        raw = bytearray(p.read_bytes())
        raw[4:8] = np.uint32(2).tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported format version 2"):
            load_checkpoint(p)

    def test_version_3_rejected(self, tmp_path):
        # version 3 headers carry the removed model key in_channels
        cfg, params, tc, _ = tiny_setup()
        p = tmp_path / "v3.ment"
        save_checkpoint(p, params, train_config=tc)
        header, payload = split_checkpoint(p.read_bytes())
        header["model"]["in_channels"] = 3
        raw = bytearray(join_checkpoint(header, payload))
        raw[4:8] = np.uint32(3).tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="unsupported format version 3"):
            load_checkpoint(p)

    def test_interrupted_write_keeps_previous_checkpoint(self, tmp_path,
                                                         monkeypatch):
        cfg, params, tc, data = tiny_setup(seed=15)
        path = tmp_path / "c.ment"
        save_checkpoint(path, params, train_config=tc, iteration=0)
        before = path.read_bytes()
        state, _, _ = train_loop(params, tc, data, log=lambda m: None)

        real_open = open

        class HalfWriter:
            """A file that takes half a checkpoint's bytes, then fails."""

            def __init__(self, *args):
                self.f, self.budget = real_open(*args), len(before) // 2

            def write(self, b):
                take = min(len(b), self.budget)
                self.f.write(bytes(b[:take]))
                self.budget -= take
                if take < len(b):
                    raise OSError(28, "No space left on device")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(train, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, params, train_config=tc, optim_state=state,
                            iteration=3)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_checkpoint(path).iteration == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ment"]

    def test_interrupted_best_copy_keeps_previous_best(self, tmp_path,
                                                       monkeypatch):
        cfg, params, tc, data = tiny_setup(seed=4)
        best = tmp_path / "best.ment"
        save_checkpoint(best, params, train_config=tc, iteration=0)
        before = best.read_bytes()

        def half_copy(src, dst):
            raw = open(src, "rb").read()
            open(dst, "wb").write(raw[:len(raw) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(train.shutil, "copyfile", half_copy)
        with pytest.raises(OSError, match="No space left"):
            train_loop(params, tc, data, val_set=generate_synthetic(2, 8, Rng(5)),
                       out_dir=tmp_path, log=lambda m: None)
        monkeypatch.undo()
        assert best.read_bytes() == before
        assert load_checkpoint(best).iteration == 0
        assert not list(tmp_path.glob("*.tmp"))

    def test_truncation_names_blob(self, tmp_path):
        cfg, params, tc, _ = tiny_setup()
        p = tmp_path / "t.ment"
        save_checkpoint(p, params)
        raw = p.read_bytes()
        p.write_bytes(raw[:len(raw) - 10])
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(p)
        assert "truncated" in str(exc.value)
        assert "buffer:scale6.bn.running_" in str(exc.value)

    @pytest.fixture()
    def saved(self, tmp_path):
        """A fresh tiny-model checkpoint with optimizer state, as
        (path, header, payload)."""
        cfg, params, tc, _ = tiny_setup()
        path = tmp_path / "c.ment"
        save_checkpoint(path, params, train_config=tc, optim_state=OptimState())
        header, payload = split_checkpoint(path.read_bytes())
        return path, header, payload

    def assert_rejected(self, path, raw, match):
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_short_preamble_rejected(self, tmp_path):
        self.assert_rejected(tmp_path / "s.ment", b"MENT", "truncated preamble")

    def test_truncated_header_rejected(self, saved):
        path, _, _ = saved
        raw = path.read_bytes()
        self.assert_rejected(path, raw[:20], "truncated header")

    def test_undecodable_header_rejected(self, saved):
        path, header, payload = saved
        raw = bytearray(join_checkpoint(header, payload))
        raw[16] = 0xFF  # neither UTF-8 nor JSON
        self.assert_rejected(path, bytes(raw), "undecodable header")

    def test_malformed_header_rejected(self, saved):
        path, header, payload = saved
        del header["iteration"]
        self.assert_rejected(path, join_checkpoint(header, payload),
                             "malformed header")

    def test_trailing_bytes_rejected(self, saved):
        path, header, payload = saved
        self.assert_rejected(path, join_checkpoint(header, payload) + b"\0",
                             "trailing bytes")

    def test_unknown_blob_rejected(self, saved):
        path, header, payload = saved
        header["blobs"][0][0] = "param:enc9.conv0.w"
        self.assert_rejected(path, join_checkpoint(header, payload),
                             "unknown blob 'param:enc9.conv0.w'")

    def test_duplicate_blob_rejected(self, saved):
        path, header, payload = saved
        header["blobs"][1][0] = header["blobs"][0][0]
        self.assert_rejected(path, join_checkpoint(header, payload),
                             "duplicate blob 'param:input.conv.w'")

    def test_unexpected_dtype_rejected(self, saved):
        path, header, payload = saved
        header["blobs"][0][1] = "int32"  # same width as float32
        self.assert_rejected(path, join_checkpoint(header, payload),
                             "unsupported dtype 'int32'")

    def test_shape_mismatch_rejected(self, saved):
        path, header, payload = saved
        header["blobs"][0][2] = [int(np.prod(header["blobs"][0][2]))]
        self.assert_rejected(path, join_checkpoint(header, payload),
                             "model expects")

    def test_missing_optimizer_blob_rejected(self, saved):
        path, header, payload = saved
        last = header["blobs"].pop()
        assert last[0] == "optim:ce.b"
        payload = payload[:-4 * int(np.prod(last[2]))]
        self.assert_rejected(path, join_checkpoint(header, payload),
                             "missing blob 'optim:ce.b'")

    def test_directory_checked_before_payload(self, saved):
        path, header, payload = saved
        header["blobs"][-1][0] = "optim:nope"
        self.assert_rejected(path, join_checkpoint(header, b""),
                             "unknown blob 'optim:nope'")

    @pytest.mark.parametrize("stepped", [False, True])
    def test_velocity_blobs_keep_parameter_dtype(self, tmp_path, stepped):
        cfg, params, tc, data = tiny_setup(seed=14)
        state = OptimState()
        if stepped:
            state, _, _ = train_loop(params, tc, data, log=lambda m: None)
        path = tmp_path / "d.ment"
        save_checkpoint(path, params, train_config=tc, optim_state=state)
        header, _ = split_checkpoint(path.read_bytes())
        dtypes = {name: dtype for name, dtype, _ in header["blobs"]}
        for name, _ in params.named_parameters():
            assert dtypes["optim:" + name] == dtypes["param:" + name] == "float32"
