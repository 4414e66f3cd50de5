"""SGD training loop with momentum and weight decay, checkpointing, and
held-out validation.

Every iteration draws its randomness from a counter-based stream keyed by the
iteration number, so a run resumed from a checkpoint replays the exact same
batches and augmentations as an uninterrupted run.

Checkpoint layout: 4 magic bytes "MENT", a little-endian uint32 format
version, a uint64 header length, a JSON header (model and train configs,
iteration counter, ordered blob directory), then the raw little-endian blob
payloads in directory order.  Blobs cover parameters, batch-norm running
statistics and, optionally, the optimizer's momentum buffers.  Each
convolution kernel is stored as its live taps only (``model.py``): a 1x1
kernel for the stride-1 convs at the 1x1 bottleneck, a 2x2 kernel for the
2x2 -> 1x1 conv and the 1x1 -> 2x2 transposed conv, 3x3 elsewhere and 1x1
for the heads.  Version 4 dropped the model's input channel count (every
image is RGB, ``model.IN_CHANNELS``); version 3 the one-value
``mine_metric_loss`` (train) and ``ce_head_input`` (model).  Older files
are rejected: they carry those header keys, and version 1 holds the
kernels as full 3x3 arrays.

Checkpoints (and ``best.ment``) are written to a temporary file in the same
directory and then moved into place with ``os.replace``, so an interrupted
write never leaves a torn file under the checkpoint's name.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .tensor import Rng
from .model import ModelConfig, ModelParams, _build, forward, inference_view
from .losses import (combined_loss, cross_entropy, per_pixel_cross_entropy,
                     hard_negative_sample)
from .saliency import saliency_maps
from .metrics import evaluate, aggregate
from .data import augment

MAGIC = b"MENT"
FORMAT_VERSION = 4


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-8
    batch_size: int = 5
    iterations: int = 5000
    checkpoint_interval: int = 500
    seed: int = 0
    lam: float = 1.0
    loss: str = "combined"        # "combined" or "ce"
    augment: bool = True
    # optional global gradient-norm ceiling.  The metric objective is
    # unbounded below, so small models need this to keep the embedding
    # scale growth linear instead of explosive; None disables it.
    clip_norm: float = None
    # optional cross-entropy warm-up: for the first warmup_iterations the
    # metric term is off and warmup_learning_rate (default: learning_rate)
    # applies.  At initialization the metric gradient dwarfs the CE gradient
    # by two orders of magnitude, so small models never learn a usable
    # partition without letting the CE head settle first.
    warmup_iterations: int = 0
    warmup_learning_rate: float = None

    def __post_init__(self):
        if min(self.learning_rate, self.momentum, self.weight_decay) < 0:
            raise ValueError("rates must be non-negative")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2 (batch norm needs it)")
        if self.iterations < 1 or self.checkpoint_interval < 1:
            raise ValueError("iterations and checkpoint_interval must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive when set")
        if self.warmup_iterations < 0:
            raise ValueError("warmup_iterations must be non-negative")
        if self.warmup_learning_rate is not None and self.warmup_learning_rate < 0:
            raise ValueError("warmup_learning_rate must be non-negative")
        if self.loss not in ("combined", "ce"):
            raise ValueError(f"unknown loss mode {self.loss!r}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)

    def at_iteration(self, it: int) -> "TrainConfig":
        """Effective config for one iteration; during warm-up the loss is
        CE-only and the warm-up learning rate applies."""
        if self.loss != "combined" or it >= self.warmup_iterations:
            return self
        lr = (self.learning_rate if self.warmup_learning_rate is None
              else self.warmup_learning_rate)
        return replace(self, loss="ce", learning_rate=lr)


@dataclass
class OptimState:
    velocity: dict = field(default_factory=dict)  # name -> array, parameter's dtype
    iteration: int = 0


@dataclass
class Checkpoint:
    params: ModelParams
    train_config: TrainConfig  # None for inference-only checkpoints
    optim_state: OptimState    # None when not saved
    iteration: int


def sgd_step(params: ModelParams, grads: dict, state: OptimState,
             config: TrainConfig) -> None:
    """v <- momentum * v + g + weight_decay * theta; theta <- theta - lr * v.

    Weight decay is coupled (enters the gradient before momentum).  The
    stored velocity is updated in place, in the parameter's dtype; one whose
    dtype differs (set from outside the optimizer) is cast once first.
    """
    for name, p in params.named_parameters():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        g = np.asarray(g)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match "
                             f"parameter {name} shape {p.data.shape}")
        v = state.velocity.get(name)
        if v is None:
            v = np.zeros_like(p.data)
        elif v.dtype != p.data.dtype:
            v = v.astype(p.data.dtype)
        state.velocity[name] = v
        v *= config.momentum
        v += g.astype(p.data.dtype, copy=False)
        if config.weight_decay:
            v += config.weight_decay * p.data
        p.data -= config.learning_rate * v
    state.iteration += 1


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale all gradients in place so their joint L2 norm is at most
    ``max_norm``; returns the pre-clip norm.  Each tensor's squared norm is
    a BLAS dot in the gradient's own dtype; the per-tensor sums are added
    as Python floats."""
    total = float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads.values())))
    if total > max_norm and total > 0:
        factor = max_norm / total
        for g in grads.values():
            np.multiply(g, factor, out=g)
    return total


def validate(params: ModelParams, dataset):
    """Mean F-measure / MAE of the metric saliency maps over a dataset."""
    view = inference_view(params, np.float32)
    reports = []
    for rec in dataset:
        out = forward(view, rec.image[None].astype(np.float32))
        maps = saliency_maps(out)
        reports.append(evaluate(maps.metric_map, rec.mask))
    return aggregate(reports)


def train_loop(params: ModelParams, config: TrainConfig, train_set,
               val_set=None, out_dir=None, start_iteration=0,
               optim_state: OptimState = None, log=None):
    """Run iterations [start_iteration, config.iterations); returns the
    optimizer state, the loss history rows and the best validation report.

    History rows are (iteration, l_ce, l_ml_star, total), averaged over the
    batch.  With ``out_dir`` set, checkpoints and a loss CSV are written; the
    checkpoint with the best validation F-measure is copied to best.ment; a
    resumed run first validates the best.ment it finds, so the earlier
    part's best stands until a later checkpoint beats it.  The CSV gets its
    header when the loop starts and each row as its step ends, so an
    interrupted run keeps the rows of its finished steps; a resumed run
    keeps the rows before ``start_iteration`` and appends after them.
    A step whose network output, total loss or pre-clip gradient norm is
    not finite raises FloatingPointError before the weights move, so the
    CSV and every checkpoint hold only finite values.
    """
    if not train_set:
        raise ValueError("empty training set")
    if start_iteration > 0 and optim_state is None:
        raise CheckpointError("resume requires a checkpoint with optimizer state")
    if optim_state is None:
        optim_state = OptimState()
    if log is None:
        log = lambda msg: print(msg, file=sys.stderr)
    loss_csv = None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        loss_csv = os.path.join(out_dir, "loss.csv")
        rows = [("iteration", "l_ce", "l_ml_star", "total")]
        if start_iteration > 0 and os.path.exists(loss_csv):
            with open(loss_csv, newline="") as f:
                rows += [r for r in list(csv.reader(f))[1:]
                         if r and r[0].isdigit() and int(r[0]) < start_iteration]
        _replace_atomically(loss_csv, lambda tmp: _write_csv_rows(tmp, rows, "w"))

    history = []
    best = None
    best_f = -1.0
    best_path = os.path.join(out_dir, "best.ment") if out_dir else None
    if start_iteration > 0 and val_set and best_path and os.path.exists(best_path):
        # a resumed run competes with the best checkpoint of the earlier part
        best = validate(load_checkpoint(best_path).params, val_set)
        best_f = best.f_beta
    for it in range(start_iteration, config.iterations):
        step_config = config.at_iteration(it)
        rng = Rng(config.seed, stream=it + 1)
        idx = rng.integers(0, len(train_set), (config.batch_size,))
        batch = []
        for j in idx:
            rec = train_set[int(j)]
            if config.augment:
                rec = augment(rec, rng)
            batch.append(rec)
        images = np.stack([r.image for r in batch]).astype(np.float32)
        out = forward(params, images, mode="train")
        if not np.isfinite(out.ce_probs.data).all():
            # caught here, before the hard-negative mining chokes on NaNs
            raise _diverged(it, "the network output is not finite")

        labels = np.stack([r.mask for r in batch])
        samples = []
        for i, rec in enumerate(batch):
            if not rec.mask.any() or rec.mask.all():
                log(f"iteration {it}: skipping degenerate sample {rec.id}")
                samples.append(None)
                continue
            ppce = per_pixel_cross_entropy(out.ce_probs.data[i], rec.mask)
            samples.append(hard_negative_sample(ppce, rec.mask))
        if all(s is None for s in samples):
            log(f"iteration {it}: whole batch degenerate, skipping step")
            continue

        if step_config.loss == "ce":
            l_ce = cross_entropy(out.ce_probs, labels, samples)
            total, ce, ml = l_ce * step_config.lam, float(l_ce.data), 0.0
        else:
            lv = combined_loss(out.embedding, out.ce_probs, labels, samples,
                               lam=step_config.lam)
            total, ce, ml = lv.total, lv.l_ce, lv.l_ml_star
        if not np.isfinite(total.data):
            raise _diverged(it, f"total loss is {float(total.data)}")
        named = params.named_parameters()
        for _, p in named:
            p.zero_grad()  # backward accumulates: drop leftovers of other passes
        total.backward(np.ones(()))

        grads = {}
        for name, p in named:
            if p.grad is not None:
                grads[name] = p.grad
            p.zero_grad()
        # with no clip_norm this only takes the norm, to check it
        norm = clip_gradients(grads, step_config.clip_norm or np.inf)
        if not np.isfinite(norm):
            raise _diverged(it, f"gradient norm is {norm}")
        sgd_step(params, grads, optim_state, step_config)
        history.append((it, ce, ml, float(total.data)))
        if loss_csv:
            _write_csv_rows(loss_csv, history[-1:], "a")

        last = it + 1 == config.iterations
        if out_dir and ((it + 1) % config.checkpoint_interval == 0 or last):
            path = os.path.join(out_dir, f"ckpt_{it + 1:07d}.ment")
            save_checkpoint(path, params, train_config=config,
                            optim_state=optim_state, iteration=it + 1)
            if val_set:
                rep = validate(params, val_set)
                log(f"iteration {it + 1}: val F={rep.f_beta:.4f} "
                    f"MAE={rep.mae:.4f}")
                if rep.f_beta > best_f:
                    best_f = rep.f_beta
                    best = rep
                    _replace_atomically(best_path,
                                        lambda tmp: shutil.copyfile(path, tmp))
    return optim_state, history, best


def _diverged(it, what) -> FloatingPointError:
    return FloatingPointError(f"iteration {it}: {what}; training diverged")


def _write_csv_rows(path, rows, mode) -> None:
    """Write (mode "w") or append (mode "a") CSV rows; the file is closed,
    and so flushed, before this returns."""
    with open(path, mode, newline="") as f:
        csv.writer(f).writerows(rows)


# -- checkpoint serialization ----------------------------------------------------

def _blob_directory(params: ModelParams, optim_state):
    blobs = [("param:" + n, t.data) for n, t in params.named_parameters()]
    blobs += [("buffer:" + n, b) for n, b in params.named_buffers()]
    if optim_state is not None:
        for name, t in params.named_parameters():
            v = optim_state.velocity.get(name)
            if v is None:
                v = np.zeros_like(t.data)
            blobs.append(("optim:" + name, v))
    return blobs


def save_checkpoint(path, params: ModelParams, train_config: TrainConfig = None,
                    optim_state: OptimState = None, iteration: int = 0) -> None:
    blobs = _blob_directory(params, optim_state)
    header = {
        "model": params.config.to_dict(),
        "train": train_config.to_dict() if train_config else None,
        "iteration": int(iteration),
        "has_optimizer": optim_state is not None,
        "blobs": [[name, str(arr.dtype), list(arr.shape)] for name, arr in blobs],
    }
    payload = json.dumps(header, sort_keys=True).encode()

    def write(tmp):
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(np.uint32(FORMAT_VERSION).tobytes())
            f.write(np.uint64(len(payload)).tobytes())
            f.write(payload)
            for _, arr in blobs:
                f.write(np.ascontiguousarray(arr).astype(
                    arr.dtype.newbyteorder("<"), copy=False).tobytes())

    _replace_atomically(path, write)


def _replace_atomically(path, write) -> None:
    """``write(tmp)`` a temporary file next to ``path``, then move it onto
    ``path``: the name holds either the old file or the whole new one.  The
    temporary file is removed if the write raises."""
    tmp = os.fspath(path) + ".tmp"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


_BLOB_DTYPES = ("float32", "float64")


def _read_header(path, f):
    """Check the 16-byte preamble and decode the JSON header that follows."""
    pre = f.read(16)
    if pre[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {pre[:4]!r}")
    if len(pre) < 16:
        raise CheckpointError(f"{path}: truncated preamble ({len(pre)} of 16 bytes)")
    version = int(np.frombuffer(pre[4:8], dtype="<u4")[0])
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    hlen = int(np.frombuffer(pre[8:16], dtype="<u8")[0])
    raw = f.read(hlen)
    if len(raw) != hlen:
        raise CheckpointError(f"{path}: truncated header ({len(raw)} of {hlen} bytes)")
    try:
        header = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: undecodable header ({e})")
    if (not isinstance(header, dict)
            or not isinstance(header.get("model"), dict)
            or not isinstance(header.get("train"), (dict, type(None)))
            or type(header.get("iteration")) is not int
            or type(header.get("has_optimizer")) is not bool
            or not isinstance(header.get("blobs"), list)):
        raise CheckpointError(f"{path}: malformed header")
    return header


def _check_directory(path, directory, params, has_optimizer):
    """Validate the blob directory against the model before any payload is
    read: known, unique names, float dtypes, matching shapes, none missing."""
    want = {name: arr.shape for name, arr in _blob_directory(
        params, OptimState() if has_optimizer else None)}
    seen = set()
    for entry in directory:
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and isinstance(entry[2], list)):
            raise CheckpointError(f"{path}: malformed blob entry {entry!r}")
        name, dtype, shape = entry
        if name not in want:
            raise CheckpointError(f"{path}: unknown blob {name!r}")
        if name in seen:
            raise CheckpointError(f"{path}: duplicate blob {name!r}")
        seen.add(name)
        if dtype not in _BLOB_DTYPES:
            raise CheckpointError(f"{path}: blob {name!r} has unsupported "
                                  f"dtype {dtype!r}")
        if tuple(shape) != want[name]:
            raise CheckpointError(f"{path}: blob {name!r} has shape {shape}, "
                                  f"model expects {list(want[name])}")
    missing = [name for name in want if name not in seen]
    if missing:
        raise CheckpointError(f"{path}: missing blob {missing[0]!r}")


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as f:
        header = _read_header(path, f)
        try:
            # zero placeholders of the right shapes; every blob replaces one
            params = _build(ModelConfig.from_dict(header["model"]),
                            lambda shape, std: np.zeros(shape, np.float32),
                            np.float32)
            train_config = (TrainConfig.from_dict(header["train"])
                            if header["train"] else None)
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"{path}: bad config in header ({e})")
        _check_directory(path, header["blobs"], params, header["has_optimizer"])

        arrays = {}
        for name, dtype, shape in header["blobs"]:
            dt = np.dtype(dtype)
            need = dt.itemsize * int(np.prod(shape, dtype=np.int64))
            chunk = f.read(need)
            if len(chunk) != need:
                raise CheckpointError(f"{path}: truncated payload in blob {name!r} "
                                      f"(expected {need} bytes, got {len(chunk)})")
            arrays[name] = np.frombuffer(chunk, dtype=dt.newbyteorder("<")
                                         ).reshape(shape).astype(dt)
        if f.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last blob")

    for name, p in params.named_parameters():
        p.data = arrays["param:" + name]
    for name, buf in params.named_buffers():
        np.copyto(buf, arrays["buffer:" + name])
    optim_state = None
    if header["has_optimizer"]:
        vel = {name: arrays["optim:" + name]
               for name, _ in params.named_parameters()}
        optim_state = OptimState(velocity=vel, iteration=header["iteration"])
    return Checkpoint(params=params, train_config=train_config,
                      optim_state=optim_state, iteration=header["iteration"])
