"""Command-line surface: dataset generation, training, inference, evaluation,
distortion, robustness probes, a gradient audit and feature dumps.

All experiment state flows through the filesystem: every run directory
receives the effective (merged) configuration and the tool version, so a run
can be reproduced from its artifacts alone.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .tensor import Tensor, Rng, finite_diff_check
from .layers import (ConvParams, BatchNormParams, conv2d, deconv2d, batch_norm,
                     softmax2, replicate_upsample, replicate_concat)
from .model import IN_CHANNELS, ModelConfig, build, forward, inference_view
from .losses import (SampleSet, cross_entropy, metric_loss_centroid,
                     combined_loss)
from .saliency import saliency_maps
from .metrics import (evaluate, aggregate, quantize_8bit, pr_counts,
                      pr_curve_from_counts)
from .distortions import DistortionSpec, apply as apply_distortion, random_strength
from .data import (FormatError, generate_synthetic, save_dataset, load_dataset,
                   load_image, save_image, load_gray, save_gray, load_mask,
                   save_mask, read_json_object)
from .train import (TrainConfig, CheckpointError, train_loop, save_checkpoint,
                    load_checkpoint)
from .robustness import (input_gradient, jacobian_stats, mc_directional_norm,
                         lipschitz_bound, check_head, check_mc)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_SECTION_DEFAULTS = {
    "model": ModelConfig().to_dict(),
    "train": TrainConfig().to_dict(),
    "data": {"seed": 0},
    "eval": {"map": "metric"},
    "robustness": {"head": "metric",
                   "mc": {"p": 2.0, "t": 1e-4, "n_samples": 100}},
}


class UsageError(ValueError):
    pass


def _type_mismatch(default, value):
    """What a config value should be, or None when it has its default's
    type.  An int passes for a float, a bool never passes for a number, and
    a key whose default is null takes a number or null."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if default is None:
        return None if value is None or number else "a number or null"
    if isinstance(default, bool):
        return None if isinstance(value, bool) else "a boolean"
    if isinstance(default, int):
        return None if number and isinstance(value, int) else "an integer"
    if isinstance(default, float):
        return None if number else "a number"
    return None if isinstance(value, type(default)) else f"a {type(default).__name__}"


def _merge_section(path, where, merged, user):
    if not isinstance(user, dict):
        raise UsageError(f"{path}: section {where!r} must be an object")
    for key, v in user.items():
        if key not in merged:
            raise UsageError(f"{path}: unknown key {key!r} in section {where!r}")
        if isinstance(merged[key], dict):
            _merge_section(path, f"{where}.{key}", merged[key], v)
            continue
        want = _type_mismatch(merged[key], v)
        if want:
            raise UsageError(f"{path}: {where}.{key} must be {want}, got {v!r}")
        merged[key] = v


def load_config(path=None) -> dict:
    """Merge a JSON experiment config over the defaults.  Unknown sections or
    keys and values of the wrong type are rejected with the offending name."""
    merged = json.loads(json.dumps(_SECTION_DEFAULTS))  # deep copy
    if path is None:
        return merged
    user = read_json_object(path, "config")
    for section, value in user.items():
        if section not in merged:
            raise UsageError(f"{path}: unknown config section {section!r}")
        _merge_section(path, section, merged[section], value)
    return merged


def write_run_metadata(out_dir, config, command) -> None:
    """``run.json``: the version, the command and the effective config, or
    null for ``gen-data``, whose settings are its flags (in the manifest)."""
    os.makedirs(out_dir, exist_ok=True)
    doc = {"version": __version__, "command": command, "config": config}
    with open(os.path.join(out_dir, "run.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)


def _check_image_shape(image, model_cfg, what) -> None:
    """Raise FormatError (exit 2) naming both shapes when ``image`` (named
    ``what``) is not the (C, H, W) the model takes; the commands call it
    before they write anything."""
    want = (IN_CHANNELS, model_cfg.input_size, model_cfg.input_size)
    if image.shape != want:
        raise FormatError(f"{what} has shape {image.shape}, the model takes {want}")


def _load_images(path, model_cfg):
    """The records of the dataset at ``path``, each checked by the rule above."""
    _, records = load_dataset(path)
    for rec in records:
        _check_image_shape(rec.image, model_cfg, f"{path}: image {rec.id}")
    return records


# -- subcommands -----------------------------------------------------------------

def cmd_gen_data(args) -> int:
    records = generate_synthetic(args.n, args.size, Rng(args.seed))
    save_dataset(records, args.out, args.split, seed=args.seed, size=args.size)
    write_run_metadata(args.out, None, "gen-data")
    print(f"wrote {len(records)} samples to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    model_cfg = ModelConfig.from_dict(cfg["model"])
    train_cfg = TrainConfig.from_dict(cfg["train"])
    train_set = _load_images(args.data, model_cfg)
    val_set = _load_images(args.val_data, model_cfg) if args.val_data else None
    params = build(model_cfg, Rng(train_cfg.seed))
    write_run_metadata(args.out, cfg, "train")
    _, history, best = train_loop(params, train_cfg, train_set,
                                  val_set=val_set, out_dir=args.out)
    if not history:
        print("training took no step: every batch was degenerate", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"trained {len(history)} iterations; final total loss "
          f"{history[-1][3]:.4f}")
    if best is not None:
        print(f"best validation F={best.f_beta:.4f} MAE={best.mae:.4f}")
    return EXIT_OK


def cmd_infer(args) -> int:
    ck = load_checkpoint(args.ckpt)
    records = _load_images(args.images, ck.params.config)
    write_run_metadata(args.out, {"model": ck.params.config.to_dict()}, "infer")
    view = inference_view(ck.params, np.float32)
    timings = []
    for rec in records:
        start = time.perf_counter()
        out = forward(view, rec.image[None].astype(np.float32))
        maps = saliency_maps(out)
        timings.append((rec.id, time.perf_counter() - start))
        save_gray(os.path.join(args.out, f"{rec.id}_metric.pgm"), maps.metric_map)
        save_gray(os.path.join(args.out, f"{rec.id}_ce.pgm"), maps.ce_prob_map)
        save_mask(os.path.join(args.out, f"{rec.id}_binary.pgm"), maps.binary_map)
    with open(os.path.join(args.out, "timing.csv"), "w") as f:
        f.write("id,seconds\n")
        for sid, sec in timings:
            f.write(f"{sid},{sec:.6f}\n")
    mean_t = float(np.mean([t for _, t in timings])) if timings else 0.0
    print(f"inferred {len(records)} images, mean {mean_t:.4f}s per map")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    which = cfg["eval"]["map"]
    if which not in ("metric", "ce"):
        raise UsageError(f"eval.map must be 'metric' or 'ce', got {which!r}")
    suffix = f"_{which}.pgm"
    ids = sorted(name[:-len(suffix)] for name in os.listdir(args.pred)
                 if name.endswith(suffix))
    if not ids:
        raise FormatError(f"{args.pred}: no *{suffix} maps found")
    reports = {}
    # the dataset-wide PR curve counts every pixel: sum the per-image counts
    pos = neg = 0
    for sid in ids:
        s = load_gray(os.path.join(args.pred, f"{sid}{suffix}"))
        g = load_mask(os.path.join(args.gt, f"{sid}_mask.pgm"))
        if s.shape != g.shape:
            raise FormatError(f"{sid}: map {s.shape} and ground truth "
                              f"{g.shape} dimensions differ")
        reports[sid] = evaluate(s, g)
        p, n = pr_counts(quantize_8bit(s), g)
        pos, neg = pos + p, neg + n
    agg = aggregate(reports.values())
    doc = {"version": __version__, "map": which, "n_images": len(ids),
           "aggregate": agg.to_dict(),
           "per_image": {sid: r.to_dict() for sid, r in reports.items()}}
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)

    curve = pr_curve_from_counts(pos, neg)
    pr_path = os.path.splitext(args.out)[0] + "_pr.csv"
    with open(pr_path, "w") as f:
        f.write("threshold,precision,recall\n")
        for t, p, r in zip(curve.thresholds, curve.precision, curve.recall):
            f.write(f"{t},{p:.6f},{r:.6f}\n")
    print(f"F={agg.f_beta:.4f} MAE={agg.mae:.4f} over {len(ids)} images")
    return EXIT_OK


def cmd_distort(args) -> int:
    spec = DistortionSpec.from_dict(read_json_object(args.spec, "distortion spec"))
    manifest, records = load_dataset(args.images)
    os.makedirs(args.out, exist_ok=True)
    rng = Rng(spec.seed)
    applied = []
    for i, rec in enumerate(records):
        concrete = spec
        needs_draw = (spec.sigma is None if spec.kind == "awgn"
                      else spec.quality is None)
        if needs_draw:
            concrete = random_strength(spec, rng)
        noisy = apply_distortion(rec.image, concrete, rng.split(77_000 + i))
        save_image(os.path.join(args.out, f"{rec.id}.ppm"), noisy)
        save_mask(os.path.join(args.out, f"{rec.id}_mask.pgm"), rec.mask)
        applied.append({"id": rec.id, **concrete.to_dict()})
    manifest.save(os.path.join(args.out, "manifest.json"))
    with open(os.path.join(args.out, "distortion.json"), "w") as f:
        json.dump({"version": __version__, "spec": spec.to_dict(),
                   "applied": applied}, f, indent=2, sort_keys=True)
    print(f"distorted {len(records)} images into {args.out}")
    return EXIT_OK


def cmd_robustness(args) -> int:
    cfg = load_config(args.config)
    rcfg = cfg["robustness"]
    head = rcfg["head"]
    mc = rcfg["mc"]
    if args.mc:
        mc = {"p": float(args.mc[0]), "t": float(args.mc[1]),
              "n_samples": int(args.mc[2])}
    check_head(head)
    check_mc(**mc)
    ck = load_checkpoint(args.ckpt)
    records = _load_images(args.images, ck.params.config)
    write_run_metadata(args.out, cfg, "robustness")

    grads = [input_gradient(ck.params, rec.image, head=head)
             for rec in records]
    for rec, g in zip(records, grads):
        if not np.all(np.isfinite(g)):
            print(f"non-finite gradient on {rec.id}", file=sys.stderr)
            return EXIT_NUMERIC
    jrep = jacobian_stats(grads)
    bound = lipschitz_bound(ck.params, head=head)
    estimates = []
    for i, rec in enumerate(records):
        est = mc_directional_norm(ck.params, rec.image, p=mc["p"], t=mc["t"],
                                  n_samples=mc["n_samples"],
                                  rng=Rng(cfg["data"]["seed"], stream=i + 1),
                                  head=head)
        estimates.append({"id": rec.id, "estimate": est.estimate,
                          "stderr": est.stderr})
    doc = {"version": __version__, "head": head,
           "jacobian": jrep.to_dict(), "bound": bound.to_dict(),
           "mc": {"params": mc, "per_image": estimates}}
    with open(os.path.join(args.out, "robustness.json"), "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
    row = " ".join(f"{k}={jrep.summary[k]:.3e}" for k in jrep.columns)
    print(f"jacobian summary: {row}")
    print(f"lipschitz bound: l1={bound.l1:.4e} l2={bound.l2:.4e} "
          f"linf={bound.linf:.4e}")
    return EXIT_OK


def _gradcheck_battery(rng):
    """Named scalar functions exercising every layer and loss."""
    checks = []

    conv = ConvParams(weight=Tensor(rng.normal((2, 3, 3, 3)) * 0.5),
                      bias=Tensor(rng.normal((2,))), stride=1)
    checks.append(("conv2d", lambda x: conv2d(x.reshape(1, 3, 6, 6), conv).sum(),
                   rng.normal((1 * 3 * 6 * 6,))))
    sconv = ConvParams(weight=Tensor(rng.normal((2, 3, 3, 3)) * 0.5),
                       bias=Tensor(rng.normal((2,))), stride=2)
    checks.append(("conv2d_stride2",
                   lambda x: conv2d(x.reshape(1, 3, 6, 6), sconv).sum(),
                   rng.normal((1 * 3 * 6 * 6,))))
    dconv = ConvParams(weight=Tensor(rng.normal((3, 2, 3, 3)) * 0.5),
                       bias=Tensor(rng.normal((2,))), stride=2)
    checks.append(("deconv2d",
                   lambda x: deconv2d(x.reshape(1, 3, 4, 4), dconv).sum(),
                   rng.normal((1 * 3 * 4 * 4,))))
    bn = BatchNormParams(gamma=Tensor(rng.normal((3,)) * 0.3 + 1.0),
                         beta=Tensor(rng.normal((3,))))
    checks.append(("batch_norm",
                   lambda x: batch_norm(x.reshape(2, 3, 4, 4), bn, mode="train",
                                        update_running=False).square().sum(),
                   rng.normal((2 * 3 * 4 * 4,))))
    bn_inf = BatchNormParams(gamma=Tensor(rng.normal((3,)) * 0.3 + 1.0),
                             beta=Tensor(rng.normal((3,))),
                             running_mean=rng.normal((3,)),
                             running_var=rng.uniform(0.5, 2.0, (3,)))
    checks.append(("batch_norm_inference",
                   lambda x: batch_norm(x.reshape(2, 3, 4, 4), bn_inf,
                                        mode="inference").square().sum(),
                   rng.normal((2 * 3 * 4 * 4,))))
    checks.append(("softmax2",
                   lambda x: (softmax2(x.reshape(1, 2, 3, 3)).square()).sum(),
                   rng.normal((1 * 2 * 3 * 3,))))
    checks.append(("replicate_upsample",
                   lambda x: replicate_upsample(x.reshape(1, 2, 3, 3), 2)
                   .square().sum(), rng.normal((1 * 2 * 3 * 3,))))
    # two maps of x with different replication factors, 2 and 6
    checks.append(("replicate_concat",
                   lambda x: replicate_concat([x.reshape(1, 2, 3, 3),
                                               x.reshape(1, 18, 1, 1)], 6)
                   .square().sum(), rng.normal((1 * 2 * 3 * 3,))))

    labels = (rng.uniform(0, 1, (4, 4)) > 0.5).astype(np.uint8)
    labels[0, 0], labels[0, 1] = 1, 0
    sample = SampleSet(positive=np.flatnonzero(labels.reshape(-1)),
                       negative=np.flatnonzero(~labels.reshape(-1).astype(bool)))
    checks.append(("cross_entropy",
                   lambda x: cross_entropy(softmax2(x.reshape(1, 2, 4, 4)),
                                           labels[None], [sample]),
                   rng.normal((1 * 2 * 4 * 4,))))
    checks.append(("metric_loss",
                   lambda x: metric_loss_centroid(x.reshape(1, 3, 4, 4), [sample]),
                   rng.normal((3 * 4 * 4,))))
    # both terms read x: the logits are a fixed 1x1 conv of the embedding
    ce_head = ConvParams(weight=Tensor(rng.normal((2, 3, 1, 1))),
                         bias=Tensor(rng.normal((2,))), stride=1)

    def combined_fn(x):
        emb = x.reshape(1, 3, 4, 4)
        probs = softmax2(conv2d(emb, ce_head))
        return combined_loss(emb, probs, labels[None], [sample]).total

    checks.append(("combined_loss", combined_fn, rng.normal((3 * 4 * 4,))))

    cfg = ModelConfig(input_size=8, base_channels=2, convs_per_block=1,
                      embedding_dim=4)
    params = build(cfg, Rng(7))
    checks.append(("model_forward",
                   lambda x: forward(params, x.reshape(1, 3, 8, 8))
                   .embedding.square().sum(),
                   rng.uniform(0, 1, (1 * 3 * 8 * 8,))))
    return checks


def cmd_gradcheck(args) -> int:
    rng = Rng(321)
    worst = 0.0
    failed = []
    for name, fn, point in _gradcheck_battery(rng):
        err = finite_diff_check(fn, Tensor(point), eps=1e-6)
        status = "ok" if err < 1e-4 else "FAIL"
        print(f"{name:20s} max rel err {err:.3e}  {status}")
        worst = max(worst, err)
        if err >= 1e-4:
            failed.append(name)
    if failed:
        print(f"gradient check failed: {', '.join(failed)}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"all gradient checks passed (worst {worst:.3e})")
    return EXIT_OK


def cmd_dump_features(args) -> int:
    ck = load_checkpoint(args.ckpt)
    image = load_image(args.image)
    _check_image_shape(image, ck.params.config, args.image)
    os.makedirs(args.out, exist_ok=True)
    out = forward(inference_view(ck.params, np.float32),
                  image[None].astype(np.float32))
    emb = out.embedding.data[0]
    named = [(f"scale_{s:02d}", m.data[0, 0]) for s, m in enumerate(out.scale_maps)]
    named += [(f"embedding_{c:02d}", e) for c, e in enumerate(emb)]
    for name, field in named:
        field = field.astype(np.float64)
        lo, hi = field.min(), field.max()
        norm = (field - lo) / (hi - lo) if hi > lo else np.zeros_like(field)
        save_gray(os.path.join(args.out, f"{name}.pgm"), norm)
    print(f"wrote {len(out.scale_maps)} scale maps and {emb.shape[0]} "
          f"embedding channels to {args.out}")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="salseg",
                     description="salient object segmentation toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split", default="train")
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--val-data")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="emit saliency maps")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="score saliency maps against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("distort", help="corrupt a dataset")
    p.add_argument("--images", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_distort)

    p = sub.add_parser("robustness", help="gradient and bound analysis")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mc", nargs=3, metavar=("P", "T", "N"))
    p.add_argument("--config")
    p.set_defaults(fn=cmd_robustness)

    p = sub.add_parser("gradcheck", help="finite-difference audit")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("dump-features", help="per-scale feature maps")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_dump_features)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, CheckpointError, FileNotFoundError, NotADirectoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FloatingPointError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
