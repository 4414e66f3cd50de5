"""Tests of the benchmark itself, on a tiny model config that runs in
seconds: every metric named in BENCHMARK.json is emitted with its unit, a
failed correctness check counts in the error rate, computed counts repeat
exactly, and the command fails without the program's sources."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

_spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = ("layers.conv2d.calls", "layers.conv2d.macs", "layers.deconv2d.calls",
          "layers.deconv2d.macs", "tensor.graph_nodes", "train.checkpoint_bytes",
          "robustness.forwards_per_mc_call", "robustness.param_grads_written")


def _run(workload, tmp_path, trace=0, seed=3):
    return bench.run(workload, seed, 0.3, trace, str(tmp_path),
                     scale=workloads.TINY)


def _units(metric_list):
    return {m["name"]: m["unit"] for m in metric_list}


def test_spec_matches_code():
    assert _units(SPEC["end_to_end"]) == bench.END_TO_END
    assert _units(SPEC["per_layer"]) == PER_LAYER
    assert set(WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload, tmp_path):
    doc = _run(workload, tmp_path)
    assert doc["failed"] == 0, doc["failures"]
    assert doc["attempted"] >= 1
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == bench.END_TO_END
    assert all(m["value"] > 0 for m in doc["metrics"].values())
    assert doc["end_to_end"]["error_rate"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted(workload, tmp_path):
    doc = _run(workload, tmp_path, trace=1)
    assert doc["failed"] == 0, doc["failures"]
    assert {k: m["unit"] for k, m in doc["metrics"].items()} == PER_LAYER
    values = {k: m["value"] for k, m in doc["metrics"].items()}
    assert values["model.forward_ms"] > 0
    assert values["layers.conv2d.macs"] > 0
    assert (tmp_path / f"{workload}-seed3-trace1" / "spans.json").is_file()
    if workload == "probe":
        # one centroid forward, f(x), then one per sample
        assert values["robustness.forwards_per_mc_call"] == \
            workloads.TINY.mc_samples + 2
        assert values["robustness.param_grads_written"] > 0
    if workload == "train_desk":
        assert values["tensor.graph_nodes"] > 0
        assert values["train.checkpoint_bytes"] > 0


def test_computed_counts_repeat_exactly(tmp_path):
    a = _run("probe", tmp_path / "a", trace=1)["per_layer"]
    b = _run("probe", tmp_path / "b", trace=1)["per_layer"]
    assert {k: a[k] for k in COUNTS} == {k: b[k] for k in COUNTS}


def _wrong_pgm(save_gray):
    def save(path, field):
        save_gray(path, 1.0 - np.asarray(field))
    return save


def _zero_bound(lipschitz_bound):
    def bound(*args, **kwargs):
        rep = lipschitz_bound(*args, **kwargs)
        rep.bound_field = np.zeros_like(rep.bound_field)
        return rep
    return bound


def _lossy_reload(load_checkpoint):
    def load(path):
        ck = load_checkpoint(path)
        ck.params.named_parameters()[0][1].data += 1.0
        return ck
    return load


@pytest.mark.parametrize("workload,module,name,sabotage", [
    ("infer_stream", "data", "save_gray", _wrong_pgm),
    ("probe", "robustness", "lipschitz_bound", _zero_bound),
    ("train_desk", "train", "load_checkpoint", _lossy_reload),
])
def test_failed_check_counts_in_error_rate(workload, module, name, sabotage,
                                           tmp_path, monkeypatch):
    mod = sys.modules[f"salseg.{module}"]
    monkeypatch.setattr(mod, name, sabotage(getattr(mod, name)))
    doc = _run(workload, tmp_path)
    assert doc["failed"] >= 1
    assert doc["end_to_end"]["error_rate"] == doc["failed"] / doc["attempted"]


def test_unit_that_raises_is_failed(tmp_path, monkeypatch):
    from salseg import saliency

    def broken(*args, **kwargs):
        raise FloatingPointError("injected")

    w = workloads.InferStream(3, str(tmp_path), workloads.TINY)
    w.setup()
    monkeypatch.setattr(saliency, "saliency_maps", broken)
    rows, failures, _ = bench.measure(w, 0.1)
    assert len(failures) == len(rows) >= 1
    assert "FloatingPointError" in failures[0]


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reference_time_is_taken_near_each_unit():
    from reference import Reference
    ref = Reference()
    ref.times = [0.0, 1.0, 10.0, 11.0]
    ref.seconds = [1.0, 1.0, 5.0, 5.0]
    assert ref.local(10.2, 10.4) == 5.0
    assert ref.local(0.2, 0.4) == 1.0
    assert ref.local(5.0, 5.1) == 3.0  # no sample near: all samples
