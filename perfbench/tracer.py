"""Span tracer for the benchmark's traced runs.

The tracer replaces each public salseg function named in ``TRACED`` with a
timing wrapper in every salseg module that holds it, so a call made through
``salseg.model.conv2d`` or ``salseg.train.forward`` is recorded wherever it
was imported.  For the layer ops it also wraps the backward closure of the
tensor the op returns, so the backward pass shows as its own span.  Nothing
under ``src/`` is edited: ``uninstall`` puts every original back, and the
untimed runs never see a wrapper.

A span is ``(id, parent_id, name, unit, start_ns, end_ns)``.  Spans stay in
memory until ``write`` dumps them at the end of the run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs the traced run wraps; span names are
# "<module>.<function>", with ".fwd"/".bwd" appended for layer ops.
TRACED = {
    "layers": ("conv2d", "deconv2d", "batch_norm", "relu", "softmax2",
               "replicate_upsample", "concat_channels"),
    "model": ("forward", "build"),
    "losses": ("combined_loss", "cross_entropy", "metric_loss_centroid",
               "hard_negative_sample", "per_pixel_cross_entropy"),
    "train": ("train_loop", "sgd_step", "clip_gradients", "save_checkpoint",
              "load_checkpoint"),
    "data": ("generate_synthetic", "augment", "save_dataset", "load_dataset",
             "save_gray", "load_gray", "save_mask", "load_mask"),
    "saliency": ("saliency_maps",),
    "metrics": ("evaluate",),
    "robustness": ("input_gradient", "mc_directional_norm", "lipschitz_bound"),
}
LAYER_OPS = set(TRACED["layers"])


def conv_macs(op, x_shape, w_shape, out_shape):
    """Ideal multiply-accumulates of one forward conv/deconv, from shapes.

    conv2d: every output element is a dot product over (in_ch, kh, kw).
    deconv2d: every input element is scattered through (out_ch, kh, kw).
    The backward pass costs the same per gradient it produces (input and
    weight), so the caller multiplies by the number of gradients taken.
    """
    n, _, h, w = x_shape
    a, b, kh, kw = w_shape
    if op == "conv2d":
        return n * out_shape[1] * out_shape[2] * out_shape[3] * b * kh * kw
    return n * h * w * a * b * kh * kw


class Tracer:
    def __init__(self):
        self.spans = []
        self.unit = "setup"
        self.graph_nodes = []        # (unit, nodes) of every Tensor.backward
        self.macs = {}               # (op, "fwd"|"bwd", unit) -> MACs
        self.checkpoint_bytes = []
        self.param_grads_written = []
        self._stack = []
        self._next_id = 0
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        self._next_id += 1
        sid = self._next_id
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def _close(self, sid, parent, name, t0):
        t1 = time.perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, self.unit, t0, t1))

    def span(self, name, fn, *args, **kwargs):
        sid, parent, t0 = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, t0)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, module, fname, orig):
        name = f"{module}.{fname}"
        if fname in LAYER_OPS:
            return self._wrap_layer(fname, orig)
        if name == "train.save_checkpoint":
            def save(path, *args, **kwargs):
                out = self.span(name, orig, path, *args, **kwargs)
                self.checkpoint_bytes.append(os.path.getsize(path))
                return out
            return save
        if name == "robustness.input_gradient":
            def input_gradient(params, *args, **kwargs):
                before = {id(p): p.grad for _, p in params.named_parameters()}
                out = self.span(name, orig, params, *args, **kwargs)
                self.param_grads_written.append(sum(
                    p.grad is not None and p.grad is not before[id(p)]
                    for _, p in params.named_parameters()))
                return out
            return input_gradient

        def traced(*args, **kwargs):
            return self.span(name, orig, *args, **kwargs)
        return traced

    def _wrap_layer(self, op, orig):
        fwd_name, bwd_name = f"layers.{op}.fwd", f"layers.{op}.bwd"
        counts_macs = op in ("conv2d", "deconv2d")

        def traced(x, *args, **kwargs):
            out = self.span(fwd_name, orig, x, *args, **kwargs)
            bwd = getattr(out, "_backward_fn", None)
            if bwd is None or out is x:
                return out
            macs = 0
            if counts_macs:
                w = args[0].weight
                macs = conv_macs(op, x.data.shape, w.data.shape, out.data.shape)
                self._add_macs(op, "fwd", macs)
                macs *= int(x.requires_grad) + int(w.requires_grad)

            def traced_bwd(g):
                if macs:
                    self._add_macs(op, "bwd", macs)
                return self.span(bwd_name, bwd, g)

            out._backward_fn = traced_bwd
            return out
        return traced

    def _add_macs(self, op, phase, n):
        key = (op, phase, self.unit)
        self.macs[key] = self.macs.get(key, 0) + n

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Wrap every traced function in each loaded salseg module that
        holds it, and Tensor.backward on the class."""
        from salseg import tensor
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "salseg" or n.startswith("salseg."))]
        for module, names in TRACED.items():
            home = sys.modules[f"salseg.{module}"]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(module, fname, orig)
                for m in mods:
                    if getattr(m, fname, None) is orig:
                        self._patched.append((m, fname, orig))
                        setattr(m, fname, wrapped)

        orig_backward = tensor.Tensor.backward
        tracer = self

        def backward(t, *args, **kwargs):
            tracer.graph_nodes.append((tracer.unit, len(t._toposort())))
            return tracer.span("tensor.backward", orig_backward, t,
                               *args, **kwargs)

        self._patched.append((tensor.Tensor, "backward", orig_backward))
        tensor.Tensor.backward = backward

    def uninstall(self):
        for holder, fname, orig in reversed(self._patched):
            setattr(holder, fname, orig)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "name", "unit",
                                  "start_ns", "end_ns"],
                       "spans": self.spans}, f)


# Per-layer metrics of a traced run, in report order, with their units.
# "_ms" is the mean inclusive milliseconds of one call made inside a traced
# unit (for SETUP_FUNCTIONS, of any call, since they run in set-up and
# checks); "calls" and "macs" are medians over traced units and
# "<module>.self_ms" a mean over them; counts are computed, not timed.
SETUP_FUNCTIONS = ("train.load_checkpoint", "data.load_dataset")
_TIMED_FUNCTIONS = (
    "tensor.backward", "model.forward",
    "losses.combined_loss", "losses.cross_entropy",
    "losses.hard_negative_sample",
    "train.sgd_step", "train.clip_gradients", "train.save_checkpoint",
    "train.load_checkpoint",
    "data.augment", "data.load_dataset", "data.save_gray",
    "saliency.saliency_maps", "metrics.evaluate",
    "robustness.input_gradient", "robustness.mc_directional_norm",
    "robustness.lipschitz_bound",
)
PER_LAYER = {}
for _op in TRACED["layers"]:
    PER_LAYER[f"layers.{_op}.fwd_ms"] = "ms"
    PER_LAYER[f"layers.{_op}.bwd_ms"] = "ms"
    if _op in ("conv2d", "deconv2d"):
        PER_LAYER[f"layers.{_op}.calls"] = "count"
        PER_LAYER[f"layers.{_op}.macs"] = "count"
        PER_LAYER[f"layers.{_op}.gmac_per_s"] = "GMAC/s"
for _fn in _TIMED_FUNCTIONS:
    PER_LAYER[f"{_fn}_ms"] = "ms"
for _module in ("tensor", *TRACED):
    PER_LAYER[f"{_module}.self_ms"] = "ms"
PER_LAYER.update({
    "tensor.graph_nodes": "count",
    "train.checkpoint_bytes": "bytes",
    "train.skipped_samples": "count",
    "robustness.forwards_per_mc_call": "count",
    "robustness.param_grads_written": "count",
    "bench.trace_overhead_pct": "%",
})


def layer_metrics(tracer, units):
    """Per-layer metrics from the spans; ``units`` are the traced unit ids.
    Workload-level entries (skipped samples, overhead) are filled in by the
    runner."""
    units = set(units)
    n_units = max(len(units), 1)
    by_id = {s[0]: s for s in tracer.spans}
    child_ns = Counter()
    for sid, parent, name, unit, t0, t1 in tracer.spans:
        if parent:
            child_ns[parent] += t1 - t0
    calls, total_ns, self_ns = Counter(), Counter(), Counter()
    per_unit_calls = defaultdict(Counter)
    for sid, parent, name, unit, t0, t1 in tracer.spans:
        if unit in units or name in SETUP_FUNCTIONS:
            calls[name] += 1
            total_ns[name] += t1 - t0
        if unit in units:
            per_unit_calls[name][unit] += 1
            self_ns[name.split(".")[0]] += t1 - t0 - child_ns[sid]

    def per_call_ms(name):
        return total_ns[name] / calls[name] / 1e6 if calls[name] else 0.0

    def unit_median(counts):
        return statistics.median(counts.get(u, 0) for u in units) if units else 0

    out = {}
    for op in TRACED["layers"]:
        fwd, bwd = f"layers.{op}.fwd", f"layers.{op}.bwd"
        out[f"{fwd}_ms"] = per_call_ms(fwd)
        out[f"{bwd}_ms"] = per_call_ms(bwd)
        if op in ("conv2d", "deconv2d"):
            macs = Counter()
            for (o, _, u), n in tracer.macs.items():
                if o == op and u in units:
                    macs[u] += n
            busy_ns = total_ns[fwd] + total_ns[bwd]
            out[f"layers.{op}.calls"] = unit_median(per_unit_calls[fwd])
            out[f"layers.{op}.macs"] = unit_median(macs)
            out[f"layers.{op}.gmac_per_s"] = (sum(macs.values()) / busy_ns
                                              if busy_ns else 0.0)
    for fn in _TIMED_FUNCTIONS:
        out[f"{fn}_ms"] = per_call_ms(fn)
    for module in ("tensor", *TRACED):
        out[f"{module}.self_ms"] = self_ns[module] / n_units / 1e6

    nodes = [n for u, n in tracer.graph_nodes if u in units]
    out["tensor.graph_nodes"] = statistics.median(nodes) if nodes else 0
    out["train.checkpoint_bytes"] = (tracer.checkpoint_bytes[-1]
                                     if tracer.checkpoint_bytes else 0)
    out["robustness.param_grads_written"] = (
        statistics.median(tracer.param_grads_written)
        if tracer.param_grads_written else 0)

    def under_mc(span):
        while span[1]:
            span = by_id[span[1]]
            if span[2] == "robustness.mc_directional_norm":
                return True
        return False

    mc_calls = calls["robustness.mc_directional_norm"]
    mc_forwards = sum(1 for s in tracer.spans
                      if s[2] == "model.forward" and under_mc(s))
    out["robustness.forwards_per_mc_call"] = (mc_forwards / mc_calls
                                              if mc_calls else 0)
    return out
