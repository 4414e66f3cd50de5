"""Equivalence battery: this working tree against a committed tree.

    python tools/equivalence.py --against <commit>

``git archive`` extracts ``<commit>`` into a temporary directory; this
script then runs the battery once per tree, each in its own subprocess
with that tree's ``src/`` first on ``PYTHONPATH``, and compares the arrays
the two runs saved.  For each quantity it prints the largest difference
over the reference scale and the named tolerance, and it exits 1 when any
quantity breaches its tolerance (2 when the commit cannot be archived or a
run imports salseg from somewhere other than its tree).

The battery is the desk model (64x64, base 4, two convs per block), in
float64 built at seed 7:

* two ``train_loop`` iterations (batch 5, combined loss, clip 1.0): the
  train-mode outputs, every parameter gradient before the clip, and the
  batch-norm running statistics after each step.  A gradient is compared
  with its own largest element, except where its true value is exactly
  zero and both sides hold round-off noise: the biases of the convs that
  feed a batch norm, and ``emb.b`` (the metric loss is invariant to a
  shift of the embedding).  Those are compared with the model's largest
  gradient;
* the inference forward through ``inference_view``: the scale stack, the
  embedding and the CE probabilities;
* on each head: ``input_gradient``, ``lipschitz_bound(...).bound_field``
  and a 10-sample ``mc_directional_norm`` estimate (which compares the
  probe scalar's forward value);
* the checkpoint written after the two steps: its header and size exactly,
  its blobs against the largest value of their kind (parameters, buffers,
  velocities).

and in float32, the dtype of training and ``infer``, built at seed 7 and
compared bit for bit (tolerance 0; a one-ulp reorder of float32 sums in
training can flip the acceptance suite's gates):

* every parameter, buffer and velocity after 30 ``train_loop`` iterations
  whose cross-entropy warm-up ends at iteration 10;
* the batch-1 ``forward(params, mode="inference")`` of the trained model
  (``infer_stream``'s path) and its batch-1 ``inference_view`` forward:
  each one's scale stack, embedding and CE probabilities.

The battery needs about fifteen seconds per tree.  It is not part of the test
suite; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

# quantity -> tolerance on max |a - b| / scale; 0 means equal
TOLERANCES = {
    "train.output": 1e-12,
    "train.grad": 1e-12,
    "train.running_stats": 1e-12,
    "view.forward": 1e-12,
    "input_gradient": 1e-12,
    "bound_field": 1e-12,
    "mc_estimate": 1e-8,
    "checkpoint.header": 0.0,
    "checkpoint.blobs": 1e-12,
    "f32.train_state": 0.0,
    "f32.forward": 0.0,
    "f32.view.forward": 0.0,
}


def _battery(out_path):
    """Run the battery on the salseg found on ``sys.path``; save every array
    to ``out_path`` (npz), keyed "<quantity>|<item>"."""
    import salseg
    from salseg import train as T
    from salseg.data import generate_synthetic
    from salseg.model import ModelConfig, build, forward, inference_view
    from salseg.robustness import (input_gradient, lipschitz_bound,
                                   mc_directional_norm)
    from salseg.tensor import Rng

    saved = {}
    cfg = ModelConfig(input_size=64, base_channels=4, convs_per_block=2,
                      embedding_dim=16)
    params = build(cfg, Rng(7), dtype=np.float64)
    data = generate_synthetic(8, 64, Rng(8))
    images = [rec.image.astype(np.float64) for rec in data[:2]]
    bn_fed = {f"{layer.name}.b" for layer in params.layers if layer.bn is not None}

    step = {"i": 0}
    real_forward, real_clip = T.forward, T.clip_gradients

    def recording_forward(p, image, mode="inference", **kwargs):
        out = real_forward(p, image, mode=mode, **kwargs)
        if mode == "train":
            saved[f"train.output|step{step['i']}.embedding"] = out.embedding.data.copy()
            saved[f"train.output|step{step['i']}.ce_probs"] = out.ce_probs.data.copy()
        return out

    def recording_clip(grads, max_norm):
        i = step["i"]
        largest = max(float(np.abs(g).max()) for g in grads.values())
        for name, g in grads.items():
            own = float(np.abs(g).max())
            scale = largest if name in bn_fed or name == "emb.b" else own
            saved[f"train.grad|step{i}.{name}"] = g.copy()
            saved[f"scale|train.grad|step{i}.{name}"] = np.array(scale)
        # the step's train-mode forward has already updated them
        for name, buf in params.named_buffers():
            saved[f"train.running_stats|step{i}.{name}"] = np.array(buf, dtype=np.float64)
        step["i"] += 1
        return real_clip(grads, max_norm)

    T.forward, T.clip_gradients = recording_forward, recording_clip
    try:
        tc = T.TrainConfig(learning_rate=0.01, momentum=0.9, batch_size=5,
                           iterations=2, checkpoint_interval=100, seed=7,
                           clip_norm=1.0)
        state, _, _ = T.train_loop(params, tc, data, log=lambda msg: None)
    finally:
        T.forward, T.clip_gradients = real_forward, real_clip

    view = inference_view(params, np.float64)
    out = forward(view, np.stack(images), mode="inference", update_running=False)
    saved["view.forward|stack"] = out.stack.data
    saved["view.forward|embedding"] = out.embedding.data
    saved["view.forward|ce_probs"] = out.ce_probs.data
    for head in ("metric", "ce"):
        saved[f"input_gradient|{head}"] = input_gradient(params, images[0], head=head)
        saved[f"bound_field|{head}"] = lipschitz_bound(params, "l2", head=head).bound_field
        est = mc_directional_norm(params, images[1], p=2.0, t=1e-4, n_samples=10,
                                  rng=Rng(7), head=head)
        saved[f"mc_estimate|{head}"] = np.array(est.estimate)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ckpt.ment")
        T.save_checkpoint(path, params, train_config=tc, optim_state=state,
                          iteration=2)
        raw = open(path, "rb").read()
    hlen = int(np.frombuffer(raw[8:16], dtype="<u8")[0])
    saved["checkpoint.header|bytes"] = np.frombuffer(raw[:16 + hlen], dtype=np.uint8)
    saved["checkpoint.header|size"] = np.array(len(raw))
    offset = 16 + hlen
    for name, arr in T._blob_directory(params, state):
        n = arr.size * arr.dtype.itemsize
        saved[f"checkpoint.blobs|{name}"] = np.frombuffer(
            raw[offset:offset + n], dtype=arr.dtype.newbyteorder("<")).astype(np.float64)
        offset += n

    params32 = build(cfg, Rng(7), dtype=np.float32)
    tc32 = T.TrainConfig(learning_rate=0.003, momentum=0.9, batch_size=5,
                         iterations=30, checkpoint_interval=100, seed=7,
                         clip_norm=1.0, warmup_iterations=10,
                         warmup_learning_rate=0.1)
    state32, _, _ = T.train_loop(params32, tc32, data, log=lambda msg: None)
    for name, arr in T._blob_directory(params32, state32):
        saved[f"f32.train_state|{name}"] = np.array(arr)
    image32 = data[2].image[None].astype(np.float32)
    for quantity, net in (("f32.forward", params32),
                          ("f32.view.forward", inference_view(params32, np.float32))):
        out = forward(net, image32, mode="inference")
        saved[f"{quantity}|stack"] = out.stack.data
        saved[f"{quantity}|embedding"] = out.embedding.data
        saved[f"{quantity}|ce_probs"] = out.ce_probs.data
    saved["source"] = np.array(os.path.dirname(os.path.abspath(salseg.__file__)))
    np.savez(out_path, **saved)


def _scale(key, ref, saved):
    """The reference magnitude a difference in ``key`` is measured against."""
    quantity = key.split("|")[0]
    if f"scale|{key}" in saved.files:
        return float(saved[f"scale|{key}"])
    if quantity == "checkpoint.blobs":
        kind = key.split("|")[1].split(":")[0]
        return max(float(np.abs(saved[k]).max()) for k in saved.files
                   if k.startswith(f"checkpoint.blobs|{kind}:"))
    return float(np.abs(ref).max())


def compare(ref_path, new_path):
    """Per quantity: (worst relative difference, tolerance, worst item);
    a missing or reshaped item counts as an infinite difference."""
    ref, new = np.load(ref_path), np.load(new_path)
    rows = {}
    for key in ref.files:
        if key == "source" or key.startswith("scale|"):
            continue
        quantity, item = key.split("|")
        if key not in new.files or new[key].shape != ref[key].shape:
            diff = np.inf
        elif TOLERANCES[quantity] == 0.0:
            same = (ref[key].dtype == new[key].dtype
                    and ref[key].tobytes() == new[key].tobytes())
            diff = 0.0 if same else np.inf
        else:
            scale = _scale(key, ref[key], ref)
            delta = float(np.abs(new[key] - ref[key]).max())
            diff = delta / scale if scale > 0 else (0.0 if delta == 0 else np.inf)
        if quantity not in rows or diff > rows[quantity][0]:
            rows[quantity] = (diff, TOLERANCES[quantity], item)
    return rows


def _archive(commit, repo, dest):
    tar_path = os.path.join(dest, "tree.tar")
    with open(tar_path, "wb") as f:
        subprocess.run(["git", "-C", repo, "archive", commit], stdout=f, check=True)
    tree = os.path.join(dest, "tree")
    with tarfile.open(tar_path) as tar:
        tar.extractall(tree, filter="data")
    return tree


def _run_battery(tree, out_path):
    """Run the battery on ``tree`` in a subprocess; raise if the salseg it
    imported is not that tree's."""
    src = os.path.realpath(os.path.join(tree, "src"))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--dump", out_path],
                   env=env, cwd=os.path.dirname(out_path), check=True)
    source = os.path.realpath(str(np.load(out_path)["source"]))
    if os.path.dirname(source) != src:
        raise RuntimeError(f"battery for {tree} imported salseg from {source}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--against", metavar="COMMIT",
                       help="compare this working tree with COMMIT")
    group.add_argument("--dump", metavar="NPZ", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        _battery(args.dump)
        return 0

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory() as tmp:
        try:
            ref_tree = _archive(args.against, repo, tmp)
        except subprocess.CalledProcessError as e:
            print(f"git archive {args.against} failed: {e}", file=sys.stderr)
            return 2
        ref_npz, new_npz = os.path.join(tmp, "ref.npz"), os.path.join(tmp, "new.npz")
        try:
            _run_battery(ref_tree, ref_npz)
            _run_battery(repo, new_npz)
        except RuntimeError as e:
            print(e, file=sys.stderr)
            return 2
        rows = compare(ref_npz, new_npz)

    breached = False
    print(f"{'quantity':<22}{'max rel diff':>14}{'tolerance':>12}  worst item")
    for quantity, (diff, tol, item) in rows.items():
        bad = diff > tol
        breached |= bad
        print(f"{quantity:<22}{diff:>14.3g}{tol:>12.0e}  {item}"
              + ("  BREACH" if bad else ""))
    return 1 if breached else 0


if __name__ == "__main__":
    sys.exit(main())
