import csv
import json
import os

import numpy as np
import pytest

from salseg import tensor
from salseg.cli import main, load_config, UsageError
from salseg.data import load_dataset, load_gray


TINY = {
    "model": {"input_size": 8, "base_channels": 2, "convs_per_block": 1,
              "embedding_dim": 4},
    "train": {"iterations": 3, "batch_size": 2, "checkpoint_interval": 2,
              "seed": 1},
}


@pytest.fixture()
def tiny_config(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(TINY))
    return str(p)


def run(*argv):
    return main(list(argv))


class TestConfig:
    def test_defaults_valid(self):
        cfg = load_config(None)
        assert cfg["model"]["input_size"] == 64
        assert cfg["train"]["learning_rate"] == 0.1

    def test_merge_overrides(self, tiny_config):
        cfg = load_config(tiny_config)
        assert cfg["model"]["input_size"] == 8
        assert cfg["train"]["learning_rate"] == 0.1  # default retained
        assert cfg["train"]["iterations"] == 3

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"optimizer": {}}))
        with pytest.raises(UsageError):
            load_config(str(p))

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train": {"lr": 0.1}}))
        with pytest.raises(UsageError):
            load_config(str(p))

    @pytest.mark.parametrize("section,key,value", [
        ("train", "iterations", "abc"),
        ("train", "iterations", True),       # a bool is not an int
        ("train", "batch_size", 2.0),        # a float is not an int
        ("train", "learning_rate", "0.1"),
        ("train", "augment", 1),
        ("train", "clip_norm", "off"),
        ("model", "embedding_dim", "16"),
        ("data", "seed", [0]),                # a list is not an int
        ("robustness", "mc", 5),
    ])
    def test_wrong_type_rejected_with_its_name(self, tmp_path, section, key,
                                               value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({section: {key: value}}))
        with pytest.raises(UsageError, match=f"{section}.{key}"):
            load_config(str(p))

    def test_numbers_and_nulls_accepted(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({
            "train": {"learning_rate": 1, "clip_norm": 2, "augment": False,
                      "warmup_learning_rate": None},
            "robustness": {"mc": {"p": 1, "n_samples": 3}}}))
        cfg = load_config(str(p))
        assert cfg["train"]["learning_rate"] == 1
        assert cfg["train"]["clip_norm"] == 2
        assert cfg["train"]["warmup_learning_rate"] is None
        assert cfg["robustness"]["mc"] == {"p": 1, "t": 1e-4, "n_samples": 3}
        # a float for a key whose default is null
        p.write_text(json.dumps({"train": {"clip_norm": 0.5,
                                           "warmup_learning_rate": 0.01}}))
        cfg = load_config(str(p))
        assert cfg["train"]["clip_norm"] == 0.5
        assert cfg["train"]["warmup_learning_rate"] == 0.01

    def test_distortion_section_is_unknown(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"distortion": {"sigma": 0.1}}))
        assert run("train", "--config", str(p), "--data", str(tmp_path),
                   "--out", str(tmp_path / "o")) == 1
        assert "'distortion'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_train", "n_val", "size"])
    def test_removed_data_key_is_unknown(self, tmp_path, capsys, key):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"data": {key: 64}}))
        assert run("train", "--config", str(p), "--data", str(tmp_path),
                   "--out", str(tmp_path / "o")) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [
        ("train", "mine_metric_loss", True),
        ("model", "ce_head_input", "stack"),
        ("model", "in_channels", 3),
        ("robustness", "norm", "l2"),
    ])
    def test_removed_keys_are_usage_errors(self, tmp_path, capsys, section,
                                           key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({section: {key: value}}))
        assert run("train", "--config", str(p), "--data", str(tmp_path),
                   "--out", str(tmp_path / "o")) == 1
        assert f"unknown key {key!r}" in capsys.readouterr().err

    def test_wrong_type_is_usage_error_from_train(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train": {"iterations": "abc"}}))
        assert run("train", "--config", str(p), "--data", str(tmp_path),
                   "--out", str(tmp_path / "o")) == 1
        assert "train.iterations" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("gen-data", "--nope") == 1

    def test_missing_checkpoint_is_data_error(self, tmp_path, capsys):
        assert run("infer", "--ckpt", str(tmp_path / "no.ment"),
                   "--images", str(tmp_path), "--out", str(tmp_path / "o")) == 2

    def test_corrupt_checkpoint_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.ment"
        bad.write_bytes(b"XXXX" + bytes(16))
        assert run("infer", "--ckpt", str(bad), "--images", str(tmp_path),
                   "--out", str(tmp_path / "o")) == 2

    def test_short_checkpoint_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "short.ment"
        bad.write_bytes(b"MENT")
        assert run("infer", "--ckpt", str(bad), "--images", str(tmp_path),
                   "--out", str(tmp_path / "o")) == 2
        assert "truncated preamble" in capsys.readouterr().err

    def test_version_1_checkpoint_is_data_error(self, tmp_path, capsys):
        from salseg.model import ModelConfig, build
        from salseg.tensor import Rng
        from salseg.train import save_checkpoint
        ckpt = tmp_path / "v1.ment"
        save_checkpoint(ckpt, build(ModelConfig(**TINY["model"]), Rng(0)))
        raw = bytearray(ckpt.read_bytes())
        raw[4:8] = np.uint32(1).tobytes()
        ckpt.write_bytes(bytes(raw))
        assert run("infer", "--ckpt", str(ckpt), "--images", str(tmp_path),
                   "--out", str(tmp_path / "o")) == 2
        assert "unsupported format version 1" in capsys.readouterr().err

    def test_version_3_checkpoint_is_data_error(self, tmp_path, capsys):
        # a version 3 header carries the removed model.in_channels key
        from salseg.model import ModelConfig, build
        from salseg.tensor import Rng
        from salseg.train import save_checkpoint
        ckpt = tmp_path / "v3.ment"
        save_checkpoint(ckpt, build(ModelConfig(**TINY["model"]), Rng(0)))
        raw = ckpt.read_bytes()
        hlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
        header = json.loads(raw[16:16 + hlen])
        header["model"]["in_channels"] = 3
        text = json.dumps(header, sort_keys=True).encode()
        ckpt.write_bytes(b"MENT" + np.uint32(3).tobytes()
                         + np.uint64(len(text)).tobytes() + text
                         + raw[16 + hlen:])
        out = tmp_path / "o"
        assert run("infer", "--ckpt", str(ckpt), "--images", str(tmp_path),
                   "--out", str(out)) == 2
        assert "unsupported format version 3" in capsys.readouterr().err
        assert not out.exists()

    def test_gradcheck_takes_no_config(self, tmp_path, capsys):
        assert run("gradcheck", "--config", str(tmp_path / "none.json")) == 1

    @pytest.mark.parametrize("text,message", [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "must be a JSON object"),
        ('{"split": "train", "ids": [], "seed": 0, "version": 1}',
         "missing manifest key 'size'"),
        ('{"split": "train", "ids": [], "seed": 0, "size": 8, "version": 1,'
         ' "n": 3}', "unknown manifest key 'n'"),
        ('{"split": "train", "ids": 3, "seed": 0, "size": 8, "version": 1}',
         "'ids' must be a list of strings"),
    ], ids=["invalid-json", "not-an-object", "missing-key", "extra-key",
            "ids-not-a-list"])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, text,
                                              message):
        data = tmp_path / "data"
        data.mkdir()
        (data / "manifest.json").write_text(text)
        assert run("train", "--data", str(data), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and message in err

    @pytest.fixture()
    def probe_inputs(self, tmp_path):
        """A tiny untrained checkpoint and a two-image dataset."""
        from salseg.model import ModelConfig, build
        from salseg.tensor import Rng
        from salseg.train import save_checkpoint
        data = tmp_path / "data"
        assert run("gen-data", "--out", str(data), "--n", "2", "--size", "8") == 0
        ckpt = tmp_path / "m.ment"
        save_checkpoint(ckpt, build(ModelConfig(**TINY["model"]), Rng(0)))
        return ckpt, data

    @pytest.mark.parametrize("robustness,mc_args", [
        ({"head": "foo"}, None),
        ({"norm": "l3"}, None),
        ({"mc": {"p": 0.5}}, None),
        ({"mc": {"t": 0}}, None),
        ({"mc": {"n_samples": 0}}, None),
        ({}, ["0.5", "1e-4", "5"]),
        ({}, ["2", "0", "5"]),
        ({}, ["2", "1e-4", "0"]),
        ({}, ["2", "1e-4", "many"]),
    ], ids=["head", "norm", "p", "t", "n_samples", "mc-p", "mc-t",
            "mc-n_samples", "mc-n_samples-not-int"])
    def test_robustness_rejects_bad_settings_before_writing(
            self, tmp_path, capsys, monkeypatch, probe_inputs, robustness,
            mc_args):
        ckpt, data = probe_inputs
        cfg, out = tmp_path / "c.json", tmp_path / "rob"
        cfg.write_text(json.dumps({"robustness": robustness}))

        def probe(*args, **kwargs):
            raise AssertionError("probe ran with a bad setting")

        monkeypatch.setattr("salseg.cli.input_gradient", probe)
        argv = ["robustness", "--ckpt", str(ckpt), "--images", str(data),
                "--out", str(out), "--config", str(cfg)]
        assert run(*argv, *(["--mc", *mc_args] if mc_args else [])) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "run.json").exists()

    @pytest.mark.parametrize("command", ["gen-data", "infer", "robustness"])
    def test_removed_flag_is_usage_error_before_writing(
            self, tmp_path, capsys, tiny_config, probe_inputs, command):
        ckpt, data = probe_inputs
        out = tmp_path / "out"
        argv = {
            "gen-data": ["gen-data", "--n", "2", "--size", "8",
                         "--config", tiny_config],
            "infer": ["infer", "--ckpt", str(ckpt), "--images", str(data),
                      "--config", tiny_config],
            "robustness": ["robustness", "--ckpt", str(ckpt), "--images",
                           str(data), "--bound", "l2"],
        }[command]
        capsys.readouterr()
        assert run(*argv, "--out", str(out)) == 1
        flag = "--bound" if command == "robustness" else "--config"
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_robustness_checks_gradients_before_probes(self, tmp_path, capsys,
                                                        monkeypatch, probe_inputs):
        ckpt, data = probe_inputs

        def probe(*args, **kwargs):
            raise AssertionError("probe ran after a non-finite gradient")

        monkeypatch.setattr("salseg.cli.input_gradient",
                            lambda params, image, head: np.full(image.shape, np.nan))
        monkeypatch.setattr("salseg.cli.lipschitz_bound", probe)
        monkeypatch.setattr("salseg.cli.mc_directional_norm", probe)
        assert run("robustness", "--ckpt", str(ckpt), "--images", str(data),
                   "--out", str(tmp_path / "rob")) == 3
        assert "non-finite gradient on sample_00000" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,field", [
        ({"kind": "awgn", "sigma": "x"}, "sigma"),
        ({"kind": "awgn", "sigma": True}, "sigma"),
        ({"kind": "awgn", "sigma": -0.1}, "sigma"),
        ({"kind": "dct_quant", "quality": "50"}, "quality"),
        ({"kind": "dct_quant", "quality": 50.5}, "quality"),
        ({"kind": "dct_quant", "quality": True}, "quality"),
        ({"kind": "dct_quant", "quality": 0}, "quality"),
        ({"kind": "awgn", "sigma_range": 0.1}, "sigma_range"),
        ({"kind": "awgn", "sigma_range": [0.1, "0.2"]}, "sigma_range"),
        ({"kind": "awgn", "sigma_range": [0.2, 0.1]}, "sigma_range"),
        ({"kind": "dct_quant", "quality_range": [20]}, "quality_range"),
        ({"kind": "awgn", "sigma": 0.1, "seed": 1.5}, "seed"),
        ({"kind": "awgn", "sigma": 0.1, "seed": "4"}, "seed"),
    ], ids=["sigma-str", "sigma-bool", "sigma-negative", "quality-str",
            "quality-float", "quality-bool", "quality-zero", "range-number",
            "range-str", "range-inverted", "range-short", "seed-float",
            "seed-str"])
    def test_distort_rejects_bad_spec_before_writing(self, tmp_path, capsys,
                                                     spec, field):
        data = tmp_path / "data"
        assert run("gen-data", "--out", str(data), "--n", "2", "--size", "8") == 0
        path, out = tmp_path / "spec.json", tmp_path / "noisy"
        path.write_text(json.dumps(spec))
        capsys.readouterr()
        assert run("distort", "--images", str(data), "--spec", str(path),
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"distortion {field} " in err
        assert not out.exists()

    @pytest.mark.parametrize("text,code,message", [
        ('{"kind": "awgn", "sigma": 0.1, "bogus": 1}', 1,
         "error: unknown distortion key 'bogus'"),
        ('{"sigma": 0.1}', 1, "error: missing distortion key 'kind'"),
        ('{"kind": "awgn", "sigma": 0.1', 2, "invalid JSON"),
        ('[{"kind": "awgn", "sigma": 0.1}]', 2, "must be a JSON object"),
    ], ids=["unknown-key", "missing-kind", "invalid-json", "not-an-object"])
    def test_distort_spec_keys_checked_as_a_config(self, tmp_path, capsys,
                                                   text, code, message):
        data = tmp_path / "data"
        assert run("gen-data", "--out", str(data), "--n", "2", "--size", "8") == 0
        path, out = tmp_path / "spec.json", tmp_path / "noisy"
        path.write_text(text)
        capsys.readouterr()
        assert run("distort", "--images", str(data), "--spec", str(path),
                   "--out", str(out)) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "train-val", "infer",
                                         "robustness", "dump-features"])
    def test_image_shape_mismatch_exits_2_before_writing(
            self, tmp_path, capsys, tiny_config, probe_inputs, command):
        ckpt, small = probe_inputs  # an 8x8 model and 8x8 images
        big = tmp_path / "big"
        assert run("gen-data", "--out", str(big), "--n", "2", "--size", "16") == 0
        out = tmp_path / "out"
        out.mkdir()
        argv = {
            "train": ["train", "--config", tiny_config, "--data", str(big)],
            "train-val": ["train", "--config", tiny_config, "--data", str(small),
                          "--val-data", str(big)],
            "infer": ["infer", "--ckpt", str(ckpt), "--images", str(big)],
            "robustness": ["robustness", "--ckpt", str(ckpt), "--images",
                           str(big)],
            "dump-features": ["dump-features", "--ckpt", str(ckpt), "--image",
                              str(big / "sample_00000.ppm")],
        }[command]
        capsys.readouterr()
        assert run(*argv, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "(3, 16, 16)" in err and "(3, 8, 8)" in err
        assert list(out.iterdir()) == []

    def test_zero_iterations_is_usage_error_before_writing(self, tmp_path,
                                                           capsys):
        data, out, cfg = tmp_path / "data", tmp_path / "run", tmp_path / "c.json"
        assert run("gen-data", "--out", str(data), "--n", "2", "--size", "8") == 0
        cfg.write_text(json.dumps({**TINY, "train": {**TINY["train"],
                                                     "iterations": 0}}))
        out.mkdir()
        capsys.readouterr()
        assert run("train", "--config", str(cfg), "--data", str(data),
                   "--out", str(out)) == 1
        assert "iterations" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_diverged_training_exits_3(self, tmp_path, capsys):
        tensor.set_finite_checks(False)  # train_loop's own checks, as the CLI runs
        data, out, cfg = tmp_path / "data", tmp_path / "run", tmp_path / "c.json"
        assert run("gen-data", "--out", str(data), "--n", "6", "--size", "16") == 0
        cfg.write_text(json.dumps({
            "model": {"input_size": 16, "base_channels": 2,
                      "convs_per_block": 1, "embedding_dim": 4},
            "train": {"iterations": 6, "batch_size": 2, "learning_rate": 1e12,
                      "checkpoint_interval": 1, "seed": 1}}))
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = run("train", "--config", str(cfg), "--data", str(data),
                       "--out", str(out))
        assert code == 3
        err = capsys.readouterr().err
        assert "numerical failure: iteration " in err and "training diverged" in err
        rows = list(csv.reader((out / "loss.csv").read_text().splitlines()))[1:]
        assert rows and np.isfinite(np.array(rows, dtype=float)).all()
        assert len(list(out.glob("ckpt_*.ment"))) == len(rows)

    def test_gradcheck_success(self, capsys):
        assert run("gradcheck") == 0
        out = capsys.readouterr().out
        assert "all gradient checks passed" in out


class TestGenData:
    def test_deterministic_directories(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("gen-data", "--out", str(a), "--n", "3", "--size", "8",
                   "--seed", "5") == 0
        assert run("gen-data", "--out", str(b), "--n", "3", "--size", "8",
                   "--seed", "5") == 0
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        for name in names:
            if name == "run.json":
                continue
            assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / "run.json").exists()
        _, recs = load_dataset(str(a))
        assert len(recs) == 3

    def test_bad_config_writes_nothing(self, tmp_path, capsys):
        # gen-data takes no config: its settings are its flags
        cfg, out = tmp_path / "c.json", tmp_path / "out"
        cfg.write_text(json.dumps({"data": {"seed": 1}}))
        assert run("gen-data", "--out", str(out), "--n", "2", "--size", "8",
                   "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --config" in err
        assert not out.exists()


class TestPipeline:
    def test_full_pipeline(self, tmp_path, tiny_config, capsys):
        data = tmp_path / "data"
        val = tmp_path / "val"
        rund = tmp_path / "run"
        pred = tmp_path / "pred"
        assert run("gen-data", "--out", str(data), "--n", "4", "--size", "8",
                   "--seed", "2") == 0
        assert run("gen-data", "--out", str(val), "--n", "2", "--size", "8",
                   "--seed", "3", "--split", "val") == 0
        assert run("train", "--config", tiny_config, "--data", str(data),
                   "--val-data", str(val), "--out", str(rund)) == 0
        assert (rund / "run.json").exists()
        assert (rund / "loss.csv").exists()
        assert (rund / "best.ment").exists()

        ckpt = str(rund / "best.ment")
        assert run("infer", "--ckpt", ckpt, "--images", str(val),
                   "--out", str(pred)) == 0
        assert (pred / "timing.csv").exists()
        maps = [n for n in os.listdir(pred) if n.endswith("_metric.pgm")]
        assert len(maps) == 2
        m = load_gray(pred / maps[0])
        assert m.shape == (8, 8)

        report = tmp_path / "report.json"
        assert run("eval", "--pred", str(pred), "--gt", str(val),
                   "--out", str(report)) == 0
        doc = json.loads(report.read_text())
        assert 0.0 <= doc["aggregate"]["f_beta"] <= 1.0
        assert 0.0 <= doc["aggregate"]["mae"] <= 1.0
        assert doc["n_images"] == 2
        pr = report.with_name("report_pr.csv").read_text().splitlines()
        assert pr[0] == "threshold,precision,recall"
        assert len(pr) == 257

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"kind": "awgn", "sigma": 0.05, "seed": 4}))
        noisy = tmp_path / "noisy"
        assert run("distort", "--images", str(val), "--spec", str(spec),
                   "--out", str(noisy)) == 0
        assert (noisy / "distortion.json").exists()
        _, clean = load_dataset(str(val))
        _, dirty = load_dataset(str(noisy))
        assert not np.array_equal(clean[0].image, dirty[0].image)
        np.testing.assert_array_equal(clean[0].mask, dirty[0].mask)

        rob = tmp_path / "rob"
        assert run("robustness", "--ckpt", ckpt, "--images", str(val),
                   "--out", str(rob), "--mc", "2", "1e-4", "10") == 0
        rdoc = json.loads((rob / "robustness.json").read_text())
        for col in ("max", "min", "median", "mean", "var"):
            assert col in rdoc["jacobian"]["summary"]
        assert sorted(rdoc["bound"]) == ["l1", "l2", "linf"]
        assert rdoc["bound"]["l1"] >= rdoc["bound"]["l2"] >= rdoc["bound"]["linf"]
        printed = capsys.readouterr().out
        for name in ("l1", "l2", "linf"):
            assert f" {name}={rdoc['bound'][name]:.4e}" in printed
        assert len(rdoc["mc"]["per_image"]) == 2

        feats = tmp_path / "feats"
        image_file = str(val / f"{clean[0].id}.ppm")
        assert run("dump-features", "--ckpt", ckpt, "--image", image_file,
                   "--out", str(feats)) == 0
        scale_maps = [n for n in os.listdir(feats) if n.startswith("scale_")]
        emb_maps = [n for n in os.listdir(feats) if n.startswith("embedding_")]
        assert len(scale_maps) == 7  # 2*log2(8) + 1 scales
        assert len(emb_maps) == 4


class TestEvalIdentity:
    def test_pr_csv_is_the_curve_of_all_pixels(self, tmp_path, capsys):
        from salseg.data import save_gray
        from salseg.metrics import pr_curve, quantize_8bit
        gt = tmp_path / "gt"
        assert run("gen-data", "--out", str(gt), "--n", "3", "--size", "8",
                   "--seed", "4") == 0
        _, recs = load_dataset(str(gt))
        pred = tmp_path / "pred"
        pred.mkdir()
        ties = np.array([0.5, 1.5, 254.5, 127.5]) / 255
        levels, labels = [], []
        for i, rec in enumerate(recs):
            field = np.resize(np.roll(ties, i), rec.mask.shape)
            field = field + 0.3 * rec.mask + (i - 1) * 0.1
            save_gray(pred / f"{rec.id}_metric.pgm", field)
            levels.append(quantize_8bit(field).ravel())
            labels.append(rec.mask.ravel())
        report = tmp_path / "r.json"
        assert run("eval", "--pred", str(pred), "--gt", str(gt),
                   "--out", str(report)) == 0
        curve = pr_curve(np.concatenate(levels), np.concatenate(labels))
        want = ["threshold,precision,recall"] + [
            f"{t},{p:.6f},{r:.6f}"
            for t, p, r in zip(curve.thresholds, curve.precision, curve.recall)]
        assert (tmp_path / "r_pr.csv").read_text().splitlines() == want

    def test_perfect_prediction_scores_one(self, tmp_path, capsys):
        gt = tmp_path / "gt"
        assert run("gen-data", "--out", str(gt), "--n", "2", "--size", "8",
                   "--seed", "9") == 0
        _, recs = load_dataset(str(gt))
        pred = tmp_path / "pred"
        pred.mkdir()
        from salseg.data import save_gray
        for rec in recs:
            save_gray(pred / f"{rec.id}_metric.pgm", rec.mask.astype(float))
        report = tmp_path / "r.json"
        assert run("eval", "--pred", str(pred), "--gt", str(gt),
                   "--out", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["aggregate"]["f_beta"] == 1.0
        assert doc["aggregate"]["mae"] == 0.0


class TestDumpFeatures:
    def test_fields_come_from_the_inference_view(self, tmp_path, monkeypatch):
        """``dump-features`` forwards through the inference view: no tensor
        of its forward asks for a gradient, and the fields it writes equal
        the graph forward's on the checkpoint's parameters."""
        from salseg import cli
        from salseg.data import save_image
        from salseg.model import ModelConfig, build, forward
        from salseg.tensor import Rng
        from salseg.train import save_checkpoint

        params = build(ModelConfig(**TINY["model"]), Rng(21))
        rng = Rng(22)
        for layer in params.layers:
            if layer.bn is not None:
                c = layer.bn.gamma.data.shape[0]
                layer.bn.running_mean = rng.normal((c,))
                layer.bn.running_var = rng.uniform(0.2, 3.0, (c,))
        ckpt, image_file = tmp_path / "m.ment", tmp_path / "x.ppm"
        save_checkpoint(ckpt, params)
        save_image(image_file, rng.uniform(0, 1, (3, 8, 8)))

        written, outs, loaded = {}, [], []
        real_forward, real_load = cli.forward, cli.load_checkpoint

        def spy_forward(*args, **kwargs):
            outs.append(real_forward(*args, **kwargs))
            return outs[-1]

        def spy_load(path):
            loaded.append(real_load(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "forward", spy_forward)
        monkeypatch.setattr(cli, "load_checkpoint", spy_load)
        monkeypatch.setattr(cli, "save_gray", lambda path, field:
                            written.__setitem__(os.path.basename(path), field))
        assert run("dump-features", "--ckpt", str(ckpt), "--image",
                   str(image_file), "--out", str(tmp_path / "feats")) == 0

        (out,) = outs
        assert "ce_logits" not in vars(out)  # the CE head never ran
        assert not out.embedding.requires_grad
        assert not any(m.requires_grad for m in out.scale_maps)
        ck_params = loaded[0].params
        assert all(p.grad is None for _, p in ck_params.named_parameters())

        image = cli.load_image(str(image_file))[None].astype(np.float32)
        want = real_forward(ck_params, image, mode="inference", update_running=False)
        fields = [(f"scale_{s:02d}.pgm", m.data[0, 0])
                  for s, m in enumerate(want.scale_maps)]
        fields += [(f"embedding_{c:02d}.pgm", e)
                   for c, e in enumerate(want.embedding.data[0])]
        assert sorted(written) == sorted(name for name, _ in fields)
        for name, field in fields:
            field = field.astype(np.float64)
            lo, hi = field.min(), field.max()
            # a field from the 1x1 bottleneck is constant and written as zeros
            norm = (field - lo) / (hi - lo) if hi > lo else np.zeros_like(field)
            assert np.abs(written[name] - norm).max() <= 1e-5
