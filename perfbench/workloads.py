"""The benchmark's workloads: set-up, one timed unit, and its correctness
checks.

Each workload is a closed loop driven by one caller: the runner times
``run_unit`` and then calls ``check`` on what it returned, outside the
timed interval.  Every program call goes through a salseg module attribute
(``T.train_loop``, ``M.forward``, ...) so that the traced run's wrappers
see it; untraced runs call the same attributes unwrapped.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, replace

import numpy as np

from salseg import data as D
from salseg import metrics as Me
from salseg import model as M
from salseg import robustness as R
from salseg import saliency as S
from salseg import train as T
from salseg.tensor import Rng

# |input_gradient| may exceed the bound field by at most this much (float64
# rounding in two different backward passes); the unit tests' dominance
# oracle allows the same slack.
DOMINANCE_ATOL = 1e-9
# share of the desk run spent in cross-entropy warm-up: 600 of 2400
WARMUP_SHARE = 0.25
# the CLI's default MC settings
MC_P, MC_T = 2.0, 1e-4
# warm-up never ends until the runner switches phase
_NO_SWITCH = 1 << 62


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark configuration.  ``DESK`` is the
    acceptance suite's desk config; ``TINY`` lets the benchmark's own tests
    run in seconds."""
    input_size: int = 64
    base_channels: int = 4
    batch_size: int = 5
    n_train: int = 400            # train_desk training set
    n_fixture_train: int = 40     # training set of the fixture checkpoint
    fixture_iterations: int = 4   # short training run behind the fixture
    n_heldout: int = 64           # infer_stream split, cycled
    n_probe: int = 8              # probe split: one pass, one lipschitz_bound
    checkpoint_interval: int = 25
    mc_samples: int = 100         # the CLI's default


DESK = Scale()
TINY = Scale(input_size=16, base_channels=2, batch_size=2, n_train=6,
             n_fixture_train=6, fixture_iterations=2, n_heldout=3, n_probe=2,
             checkpoint_interval=2, mc_samples=3)


@dataclass(frozen=True)
class Seeds:
    train_data: int
    heldout_data: int
    model: int
    train: int
    mc: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        return cls(*(int(s) for s in
                     np.random.SeedSequence(seed).generate_state(5)))


def _model_config(scale):
    return M.ModelConfig(input_size=scale.input_size,
                         base_channels=scale.base_channels)


def _train_config(scale, seeds, **overrides):
    cfg = T.TrainConfig(loss="combined", learning_rate=0.003, clip_norm=1.0,
                        warmup_learning_rate=0.1, batch_size=scale.batch_size,
                        checkpoint_interval=scale.checkpoint_interval,
                        seed=seeds.train)
    return replace(cfg, **overrides)


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _split_to_disk(n, scale, seed, out_dir):
    """Generate a split, write it and read it back, as the CLI does."""
    recs = D.generate_synthetic(n, scale.input_size, Rng(seed))
    D.save_dataset(recs, out_dir, "split", seed, scale.input_size)
    return D.load_dataset(out_dir)[1]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Workload:
    """One workload instance; ``setup`` builds everything a unit needs."""
    name = ""
    unit = ""
    dtype = np.float32    # the dtype the unit computes in

    def __init__(self, seed, work_dir, scale=DESK):
        self.seeds = Seeds.derive(seed)
        self.work = _fresh_dir(work_dir)
        self.scale = scale

    def setup(self):
        raise NotImplementedError

    def run_unit(self, i, progress):
        """Timed: unit ``i``; ``progress`` is the share of the measuring
        window already used."""
        raise NotImplementedError

    def check(self, i, result):
        """Untimed: list of failed checks for unit ``i``."""
        raise NotImplementedError

    def special(self, i):
        """True when unit ``i`` does periodic extra work; the traced run
        always traces those units."""
        return False

    def skipped_samples(self):
        return 0


class TrainDesk(Workload):
    """``train_loop`` at the desk config, one iteration per unit."""
    name = "train_desk"
    unit = "iteration"

    def setup(self):
        self.train_set = _split_to_disk(self.scale.n_train, self.scale,
                                        self.seeds.train_data,
                                        _fresh_dir(os.path.join(self.work, "train")))
        self.params = M.build(_model_config(self.scale), Rng(self.seeds.model))
        self.config = _train_config(self.scale, self.seeds)
        self.ckpt_dir = _fresh_dir(os.path.join(self.work, "ckpt"))
        self.log = []
        self.state = None
        self.switch_at = None
        self.it = 0
        self._iteration()                 # warm-up: iteration 0, untimed

    def _iteration(self):
        it = self.it
        cfg = replace(self.config, iterations=it + 1,
                      warmup_iterations=(_NO_SWITCH if self.switch_at is None
                                         else self.switch_at))
        self.state, history, _ = T.train_loop(
            self.params, cfg, self.train_set, start_iteration=it,
            optim_state=self.state, log=self.log.append)
        path = None
        if (it + 1) % cfg.checkpoint_interval == 0:
            path = os.path.join(self.ckpt_dir, f"ckpt_{it + 1:07d}.ment")
            T.save_checkpoint(path, self.params, train_config=cfg,
                              optim_state=self.state, iteration=it + 1)
        self.it += 1
        return history, path

    def run_unit(self, i, progress):
        # the cross-entropy warm-up covers the first quarter of the window,
        # so both loss phases are timed in the desk run's proportion
        if self.switch_at is None and progress >= WARMUP_SHARE:
            self.switch_at = self.it
        steps_before = self.state.iteration
        logged_before = len(self.log)
        history, path = self._iteration()
        return steps_before, logged_before, history, path

    def check(self, i, result):
        steps_before, logged_before, history, path = result
        bad = []
        for row in history:
            if not np.all(np.isfinite(row[1:])):
                bad.append(f"non-finite loss {row}")
        skips = sum("skipping step" in m for m in self.log[logged_before:])
        if self.state.iteration - steps_before != 1 - skips:
            bad.append("steps taken != steps attempted - logged skips")
        if path is not None:
            bad.extend(self._round_trip(path))
            for old in os.listdir(self.ckpt_dir):
                if os.path.join(self.ckpt_dir, old) != path:
                    os.remove(os.path.join(self.ckpt_dir, old))
        return bad

    def _round_trip(self, path):
        ck = T.load_checkpoint(path)
        bad = [f"param {n} differs after reload"
               for (n, a), (_, b) in zip(self.params.named_parameters(),
                                         ck.params.named_parameters())
               if not _same_bits(a.data, b.data)]
        bad += [f"buffer {n} differs after reload"
                for (n, a), (_, b) in zip(self.params.named_buffers(),
                                          ck.params.named_buffers())
                if not _same_bits(a, b)]
        if ck.optim_state is None:
            return bad + ["checkpoint lost the optimizer state"]
        bad += [f"velocity {n} differs after reload"
                for n, v in self.state.velocity.items()
                if not _same_bits(v, ck.optim_state.velocity.get(n))]
        return bad

    def special(self, i):
        return (self.it + 1) % self.scale.checkpoint_interval == 0

    def skipped_samples(self):
        return sum("degenerate sample" in m for m in self.log)


def _fixture(workload, n_split):
    """Held-out split on disk plus a checkpoint from a short deterministic
    training run, so weights and running statistics are not initial."""
    scale, seeds = workload.scale, workload.seeds
    records = _split_to_disk(n_split, scale, seeds.heldout_data,
                             _fresh_dir(os.path.join(workload.work, "heldout")))
    train_set = D.generate_synthetic(scale.n_fixture_train, scale.input_size,
                                     Rng(seeds.train_data))
    params = M.build(_model_config(scale), Rng(seeds.model))
    k = scale.fixture_iterations
    cfg = _train_config(scale, seeds, iterations=k, checkpoint_interval=k,
                        warmup_iterations=int(k * WARMUP_SHARE))
    out = _fresh_dir(os.path.join(workload.work, "fixture"))
    T.train_loop(params, cfg, train_set, out_dir=out, log=lambda m: None)
    ck = T.load_checkpoint(os.path.join(out, f"ckpt_{k:07d}.ment"))
    return ck.params, records


class InferStream(Workload):
    """``salseg infer`` + ``eval`` at batch 1, one held-out image per unit."""
    name = "infer_stream"
    unit = "image"

    def setup(self):
        self.params, self.records = _fixture(self, self.scale.n_heldout)
        self.pred = _fresh_dir(os.path.join(self.work, "pred"))
        self.check(0, self.run_unit(0, 0.0))  # warm-up

    def run_unit(self, i, progress):
        rec = self.records[i % len(self.records)]
        out = M.forward(self.params, rec.image[None].astype(np.float32),
                        mode="inference", update_running=False)
        maps = S.saliency_maps(out)
        paths = [os.path.join(self.pred, f"{rec.id}_{k}.pgm")
                 for k in ("metric", "ce", "binary")]
        D.save_gray(paths[0], maps.metric_map)
        D.save_gray(paths[1], maps.ce_prob_map)
        D.save_mask(paths[2], maps.binary_map)
        reloaded = D.load_gray(paths[0])
        report = Me.evaluate(reloaded, rec.mask)
        return maps, reloaded, report, paths

    def check(self, i, result):
        maps, reloaded, report, paths = result
        m = maps.metric_map
        bad = []
        if not np.all(np.isfinite(m)):
            return ["metric map not finite"]
        if m.min() < 0.0 or m.max() > 1.0:
            bad.append("metric map outside [0, 1]")
        if not np.array_equal(maps.binary_map, m > Me.adaptive_threshold(m)):
            bad.append("binary map != metric map > adaptive threshold")
        if not np.array_equal(np.rint(reloaded * 255.0).astype(np.uint8),
                              Me.quantize_8bit(m)):
            bad.append("metric PGM does not reload to its quantised map")
        ce = np.rint(D.load_gray(paths[1]) * 255.0).astype(np.uint8)
        if not np.array_equal(ce, Me.quantize_8bit(maps.ce_prob_map)):
            bad.append("CE PGM does not reload to its quantised map")
        if not np.array_equal(D.load_mask(paths[2]).astype(bool), maps.binary_map):
            bad.append("binary PGM does not reload to the binary map")
        if not np.all(np.isfinite(list(report.to_dict().values()))):
            bad.append("non-finite evaluation report")
        return bad


class Probe(Workload):
    """``salseg robustness`` per image: one float64 ``input_gradient`` and
    one ``mc_directional_norm``; each pass over the split starts with one
    ``lipschitz_bound``."""
    name = "probe"
    unit = "image"
    dtype = np.float64

    def setup(self):
        self.params, self.records = _fixture(self, self.scale.n_probe)
        self.bound = None
        R.input_gradient(self.params, self.records[0].image)  # warm-up

    def special(self, i):
        return i % len(self.records) == 0

    def run_unit(self, i, progress):
        j = i % len(self.records)
        if j == 0:
            self.bound = R.lipschitz_bound(self.params, norm="l2", head="metric")
        image = self.records[j].image
        g = R.input_gradient(self.params, image, head="metric")
        est = R.mc_directional_norm(self.params, image, p=MC_P, t=MC_T,
                                    n_samples=self.scale.mc_samples,
                                    rng=Rng(self.seeds.mc, stream=j + 1),
                                    head="metric")
        return g, est

    def check(self, i, result):
        g, est = result
        bad = []
        if not np.all(np.isfinite(g)):
            bad.append("input gradient not finite")
        elif np.any(np.abs(g) > self.bound.bound_field + DOMINANCE_ATOL):
            bad.append("|input_gradient| exceeds the Lipschitz bound field")
        if not (np.isfinite(est.estimate) and est.estimate >= 0.0):
            bad.append(f"MC estimate {est.estimate} not finite and >= 0")
        return bad


WORKLOADS = {w.name: w for w in (TrainDesk, InferStream, Probe)}
