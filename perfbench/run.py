#!/usr/bin/env python3
"""Benchmark for golfer: WTA training, crowded-scene ensembling and the
finite-difference sweep, timed end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload drives golfer through the public functions the CLI calls; every
timing is taken here, around those calls. `--trace 0` prints the end-to-end
metrics, `--trace 1` the per-layer metrics of a traced run. The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md in this directory for the workloads, metrics and figures.
"""

import os

# Pin BLAS to one thread before numpy loads it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import ctypes
import dataclasses
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import numpy as np

import golfer
from golfer import ensemble, gradcheck, model, numerics, scene, training

import checks
import oracles
from tracing import Tracer

if Path(golfer.__file__).resolve().parent.parent != ROOT / "src":
    raise SystemExit(f"golfer was imported from {golfer.__file__}, not from this checkout")

clock = time.perf_counter

# Reference-kernel time at the machine speed all times are scaled to; the
# kernel's fastest times on the 2-core machine of README.md were 4.8-5.6 ms.
REF_NOMINAL_S = 0.005

WORKLOAD_NAMES = ("train_default", "ensemble_crowded", "gradcheck_tiny")
OUT_DIR = HERE / "out"
ENSEMBLE_K = 6
ENSEMBLE_MEMBERS = 3

# Parameter tensors of the tiny model swept by gradcheck_tiny: 480 coordinates
# that reach every module (projections, FE block, null latents, both
# interaction blocks, fusion, decoder and classification head).
SWEEP_TENSORS = (
    "proj.agent.token.w", "proj.goal.token.b", "proj.ego.ctx.b",
    "fe.0.wm.1", "fe.0.norm_mix.gamma", "fe.0.norm_q.beta",
    "null.agent",
    "interact.road.0.norm_ffn.gamma", "interact.agent.0.norm_q.gamma",
    "fusion.0.b", "fusion.1.b",
    "decoder.1.1.b", "decoder.2.0.b",
    "cls.1.w", "cls.1.b",
)


@dataclasses.dataclass(frozen=True)
class Size:
    setups: int  # set-ups per run; setup_s is their median
    train_sets: int  # independent training sets, each trained once per run
    train_scenes: int
    train_epochs: int
    heldout_scenes: int  # per training set
    untrained_scenes: int  # held-out scenes also scored on the untrained model
    crowded_scenes: int
    oracle_scenes: int
    small_heldout: int
    sweep_tensors: tuple
    alloc_items: int  # items run under tracemalloc; train_default's warm-up


FULL = Size(setups=3, train_sets=3, train_scenes=128, train_epochs=2, heldout_scenes=128,
            untrained_scenes=64, crowded_scenes=72, oracle_scenes=3,
            small_heldout=1024, sweep_tensors=SWEEP_TENSORS, alloc_items=8)
SMOKE = Size(setups=2, train_sets=2, train_scenes=4, train_epochs=2, heldout_scenes=4,
             untrained_scenes=4, crowded_scenes=3, oracle_scenes=1,
             small_heldout=4, sweep_tensors=SWEEP_TENSORS[-2:], alloc_items=2)


def derived_seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


class SpeedProbe:
    """Machine-speed reference: a fixed numpy kernel, timed between items.

    On a shared 2-core virtual machine the speed of the same code changed by
    up to 1.8x over seconds to minutes, with process CPU time equal to wall
    time and no steal. Every reported time is therefore divided by the
    kernel's mean time in a window around it over REF_NOMINAL_S, so it reads
    as time at one fixed machine speed. The kernel does not touch golfer; its
    own time is left out of every measurement, and the raw wall-clock figures
    are kept in the result file.
    """

    INTERVAL_S = 0.25  # least time between two samples
    WINDOW_S = 1.0  # samples this close to an interval set its speed

    def __init__(self):
        self.mids: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self._last = -np.inf
        self._a = np.random.Generator(np.random.PCG64(0)).normal(size=(16, 16))

    def _kernel(self):
        x = self._a
        for _ in range(200):
            y = np.maximum(x @ self._a, 0.0) + self._a
            x = np.tanh((y - y.mean(axis=-1, keepdims=True)) / (y.std(axis=-1, keepdims=True) + 1e-5))
        return x

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            start = clock()
            self._kernel()
            self._last = clock()
            self.mids.append(0.5 * (start + self._last))
            self.durations.append(self._last - start)
            self.spent += self._last - start

    def between_items(self) -> None:
        if clock() - self._last >= self.INTERVAL_S:
            self.sample()

    def factors(self, starts, ends) -> np.ndarray:
        """Slowdown against the nominal speed, per [start, end] interval."""
        mids, cum = np.asarray(self.mids), np.concatenate([[0.0], np.cumsum(self.durations)])
        lo = np.searchsorted(mids, np.asarray(starts) - self.WINDOW_S)
        hi = np.searchsorted(mids, np.asarray(ends) + self.WINDOW_S)
        near = np.clip(np.searchsorted(mids, 0.5 * (np.asarray(starts) + np.asarray(ends))),
                       0, len(mids) - 1)
        count = hi - lo
        mean = np.where(count > 0, (cum[hi] - cum[lo]) / np.maximum(count, 1),
                        np.asarray(self.durations)[near])
        return mean / REF_NOMINAL_S

    def factor(self, start: float, end: float) -> float:
        return float(self.factors([start], [end])[0])


class ItemClock:
    """Start and end of every timed item; tells the tracer the current item
    and gives the speed probe its turn between items."""

    def __init__(self, tracer=None, probe: SpeedProbe | None = None):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.tracer = tracer
        self.probe = probe

    def start(self) -> None:
        if self.tracer is not None:
            self.tracer.item = len(self.starts)
        self.starts.append(clock())

    def end(self) -> None:
        self.ends.append(clock())
        if self.tracer is not None:
            self.tracer.item = None
        if self.probe is not None:
            self.probe.between_items()

    def cancel(self) -> None:
        """Drop a started item that never ran."""
        self.starts.pop()
        if self.tracer is not None:
            self.tracer.item = None

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def scaled_durations(self) -> np.ndarray:
        """Item times at the nominal machine speed."""
        return np.asarray(self.durations()) / self.probe.factors(self.starts, self.ends)


def _run_check(failures: list[str], check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed as exc:
        failures.append(f"{check.__name__}: {exc}")


def _round_trip_scenes(scenes, path):
    scene.write_dataset(scenes, path)
    return scene.read_dataset(path)


def _round_trip_model(params, path):
    model.save_params(params, path)
    return model.load_params(path)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class TrainSet:
    """One independent training problem: its own scenes, initial weights and
    sample-order/masking stream."""

    train_scenes: list
    heldout: list
    model_config: model.GolferConfig
    train_config: training.TrainConfig
    init_path: Path
    params: model.ModelParams
    init_values: list


class TrainDefault:
    """WTA training with masked goal conditioning on default synthetic scenes.

    A round is one `training.train` call on one of `train_sets` independent
    training sets, taken in turn; an item is one training sample (one Adam
    step). Item ends are read as each `optimizer_step` returns. The held-out
    minADE is the mean over the sets, so every run trains each set once.
    """

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.workdir = size, workdir
        seeds = derived_seeds(seed, 1 + size.train_sets)
        self.check_seed = seeds[0]
        self.set_seeds = [derived_seeds(s, 3) for s in seeds[1:]]
        self.min_rounds = size.train_sets
        self.rounds_run = 0

    def setup(self) -> None:
        size = self.size
        per_set = size.train_scenes + size.heldout_scenes
        scenes = []
        for data_seed, _, _ in self.set_seeds:
            scenes += scene.generate_dataset(scene.GeneratorConfig(seed=data_seed), per_set)
        scenes = _round_trip_scenes(scenes, self.workdir / "scenes.jsonl")
        self.sets = []
        for i, (_, init_seed, train_seed) in enumerate(self.set_seeds):
            config = model.GolferConfig(seed=init_seed)
            path = self.workdir / f"init{i}.mnmg"
            params = _round_trip_model(model.init_model_params(config), path)
            mine = scenes[i * per_set:(i + 1) * per_set]
            self.sets.append(TrainSet(
                train_scenes=mine[:size.train_scenes], heldout=mine[size.train_scenes:],
                model_config=config,
                train_config=training.TrainConfig(epochs=size.train_epochs, seed=train_seed),
                init_path=path, params=params,
                init_values=[p.value.copy() for p in params.parameters()]))
        self.alloc_slice()

    @staticmethod
    def _load(params, values) -> None:
        for p, v in zip(params.parameters(), values):
            p.value[...] = v
            p.zero_grad()

    @staticmethod
    def _train(ts: TrainSet, scenes, epochs):
        config = dataclasses.replace(ts.train_config, epochs=epochs)
        return training.train(scenes, ts.model_config, config, params=ts.params)

    def run_round(self, items: ItemClock):
        index = self.rounds_run % len(self.sets)
        self.rounds_run += 1
        ts = self.sets[index]
        self._load(ts.params, ts.init_values)
        step = training.optimizer_step

        def timed_step(*args, **kwargs):
            out = step(*args, **kwargs)
            items.end()
            items.start()
            return out

        training.optimizer_step = timed_step
        items.start()
        try:
            params, trace = self._train(ts, ts.train_scenes, ts.train_config.epochs)
        finally:
            training.optimizer_step = step
            items.cancel()
        return index, [p.value.copy() for p in params.parameters()], \
            [(r.epoch, r.total) for r in trace]

    def alloc_slice(self) -> None:
        """A short training run on set 0 (the set-up warm-up, too)."""
        ts = self.sets[0]
        self._train(ts, ts.train_scenes[:self.size.alloc_items], 1)
        self._load(ts.params, ts.init_values)

    def finish(self, rounds) -> tuple[float, list[str]]:
        failures: list[str] = []
        trained = {}
        for index, values, trace in rounds:
            _run_check(failures, checks.check_trace, [t for _, t in trace], [e for e, _ in trace])
            if index in trained:
                _run_check(failures, checks.check_bitwise_equal,
                           np.concatenate([v.ravel() for v in values]),
                           np.concatenate([v.ravel() for v in trained[index]]),
                           "weights trained twice from one training set")
            else:
                trained[index] = values
        heldout_ade = []
        for index in sorted(trained):
            ts = self.sets[index]
            self._load(ts.params, trained[index])
            gc = scene.prediction_conditioning(ts.model_config.horizon)
            preds = [model.forward(s, gc, ts.params) for s in ts.heldout]
            own = [checks.plain_min_ade(p.means, s.future, s.future_mask)
                   for p, s in zip(preds, ts.heldout)]
            program = [ensemble.min_ade(p.means, s.future, s.future_mask)
                       for p, s in zip(preds, ts.heldout)]
            _run_check(failures, checks.check_min_ade_agrees, own, program)
            heldout_ade.append(np.mean(own))
            if index == 0:
                self._check_trained_model(failures, ts, gc, preds, own)
        return float(np.mean(heldout_ade)), failures

    def _check_trained_model(self, failures, ts: TrainSet, gc, preds, own) -> None:
        untrained = model.load_params(ts.init_path)
        subset = ts.heldout[:self.size.untrained_scenes]
        untrained_ade = np.mean([checks.plain_min_ade(model.forward(s, gc, untrained).means,
                                                      s.future, s.future_mask) for s in subset])
        _run_check(failures, checks.check_training_helps,
                   float(np.mean(own[:len(subset)])), float(untrained_ade))
        reloaded = _round_trip_model(ts.params, self.workdir / "trained.mnmg")
        for s, p in list(zip(ts.heldout, preds))[:4]:
            _run_check(failures, checks.check_bitwise_equal, model.forward(s, gc, reloaded).means,
                       p.means, "means after a model-file round trip")
        _run_check(failures, checks.check_directional_derivative,
                   *self._directional_derivative(ts))

    def _directional_derivative(self, ts: TrainSet) -> tuple[float, float]:
        """Backprop gradient and central difference of the loss along a fixed
        random unit direction, on held-out scene 0 with step T/2 revealed."""
        sc, horizon = ts.heldout[0], ts.model_config.horizon
        visible = np.zeros(horizon, dtype=bool)
        visible[horizon // 2] = True
        gc = scene.GoalConditioning(masked_future=np.where(visible[:, None], sc.future, 0.0),
                                    step_mask=visible, placement=scene.PLACE_ROADS,
                                    exclusion_index=horizon // 2)
        params = ts.params.parameters()
        rng = np.random.Generator(np.random.PCG64(self.check_seed))
        direction = [rng.normal(size=p.value.shape) for p in params]
        norm = np.sqrt(sum(float((d * d).sum()) for d in direction))
        direction = [d / norm for d in direction]

        def loss():
            tape = numerics.Tape()
            pred = model.forward_nodes(tape, sc, gc, ts.params)
            total, _ = training.total_loss_nodes(tape, pred, sc.future, sc.future_mask,
                                                 gc.exclusion_index, ts.train_config.lam)
            return tape, total

        ts.params.zero_grads()
        tape, total = loss()
        tape.backward(total)
        backprop = sum(float((p.grad * d).sum()) for p, d in zip(params, direction))
        ts.params.zero_grads()
        saved = [p.value.copy() for p in params]
        h = 1e-5
        values = []
        for sign in (1.0, -1.0):
            for p, v, d in zip(params, saved, direction):
                p.value[...] = v + sign * h * d
            values.append(float(loss()[1].value))
        self._load(ts.params, saved)
        return backprop, (values[0] - values[1]) / (2.0 * h)


class EnsembleCrowded:
    """Per crowded scene: three member forwards and `ensemble_predict`, k=6,
    with a fresh clustering rng per scene as `golfer ensemble` does."""

    min_rounds = 1

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.workdir = size, workdir
        seeds = derived_seeds(seed, 2 + ENSEMBLE_MEMBERS)
        self.data_seed, self.ensemble_seed, self.member_seeds = seeds[0], seeds[1], seeds[2:]

    def setup(self) -> None:
        config = scene.GeneratorConfig(seed=self.data_seed, num_roads=(16, 24), num_agents=(8, 12))
        scenes = scene.generate_dataset(config, self.size.crowded_scenes)
        self.scenes = _round_trip_scenes(scenes, self.workdir / "crowded.jsonl")
        self.members = [
            _round_trip_model(model.init_model_params(model.GolferConfig(seed=s)),
                              self.workdir / f"member{i}.mnmg")
            for i, s in enumerate(self.member_seeds)
        ]
        self.gc = scene.prediction_conditioning(self.members[0].config.horizon)
        self._item(self.scenes[0])

    def _item(self, sc):
        preds = [model.forward(sc, self.gc, m) for m in self.members]
        rng = np.random.Generator(np.random.PCG64(self.ensemble_seed))
        return preds, ensemble.ensemble_predict(preds, ENSEMBLE_K, rng)

    def run_round(self, items: ItemClock):
        outputs = []
        for sc in self.scenes:
            items.start()
            outputs.append(self._item(sc))
            items.end()
        return outputs

    def alloc_slice(self) -> None:
        for sc in self.scenes[:self.size.alloc_items]:
            self._item(sc)

    def finish(self, rounds) -> tuple[float, list[str]]:
        failures: list[str] = []
        first = rounds[0]
        for other in rounds[1:]:
            for (_, a), (_, b) in zip(other, first):
                _run_check(failures, checks.check_bitwise_equal, a.centroids, b.centroids,
                           "ensembled centroids of two rounds")
        horizon = self.gc.masked_future.shape[0]
        for preds, out in first:
            _run_check(failures, checks.check_ensemble_output, out.centroids, out.probs,
                       ENSEMBLE_K, horizon)
            _run_check(failures, checks.check_lloyd, np.concatenate([p.means for p in preds]),
                       np.concatenate([p.probs for p in preds]), out.centroids)
        goal = scene.encode_goal_element(self.gc)
        sample = np.unique(np.linspace(0, len(self.scenes) - 1, self.size.oracle_scenes).astype(int))
        for index in sample:
            for member, pred in zip(self.members, first[index][0]):
                f_enc = oracles.ref_encode_scene(member, self.scenes[index], goal=goal,
                                                 placement=scene.PLACE_AGENTS)
                ref_means, _, _, ref_probs = oracles.ref_decode(member, f_enc)
                _run_check(failures, checks.check_matches_oracle, pred.means, pred.probs,
                           ref_means, ref_probs)
        quality = np.mean([checks.plain_min_ade(out.centroids, sc.future, sc.future_mask)
                           for (_, out), sc in zip(first, self.scenes)])
        return float(quality), failures


class GradcheckTiny:
    """`numerics.gradient_check` of the tiny model's training loss over a fixed
    parameter subset; an item is one call of the loss closure."""

    min_rounds = 1

    def __init__(self, size: Size, seed: int, workdir: Path):
        self.size, self.workdir = size, workdir
        self.data_seed, self.init_seed, self.goal_seed = derived_seeds(seed, 3)

    def setup(self) -> None:
        config = dataclasses.replace(gradcheck.TINY_CONFIG, seed=self.init_seed)
        generator = scene.GeneratorConfig(seed=self.data_seed, num_roads=(2, 2), num_agents=(1, 1),
                                          points_per_polyline=4, history_steps=4,
                                          horizon=config.horizon)
        scenes = scene.generate_dataset(generator, 1 + self.size.small_heldout)
        scenes = _round_trip_scenes(scenes, self.workdir / "small.jsonl")
        self.scene, self.heldout = scenes[0], scenes[1:]
        self.params = _round_trip_model(model.init_model_params(config),
                                        self.workdir / "tiny.mnmg")
        rng = np.random.Generator(np.random.PCG64(self.goal_seed))
        visible = np.zeros(config.horizon, dtype=bool)
        visible[int(rng.integers(config.horizon))] = True
        self.gc = scene.GoalConditioning(
            masked_future=np.where(visible[:, None], self.scene.future, 0.0),
            step_mask=visible,
            placement=(scene.PLACE_AGENTS, scene.PLACE_ROADS)[int(rng.integers(2))],
            exclusion_index=int(np.flatnonzero(visible)[0]),
        )
        named = dict(self.params.named_parameters())
        self.leaves = [named[name] for name in self.size.sweep_tensors]
        for _ in range(20):
            self._loss(numerics.Tape())

    def _loss(self, tape):
        pred = model.forward_nodes(tape, self.scene, self.gc, self.params)
        total, _ = training.total_loss_nodes(tape, pred, self.scene.future, self.scene.future_mask,
                                             self.gc.exclusion_index, 1.0)
        return total

    def run_round(self, items: ItemClock) -> float:
        def timed_loss(tape):
            items.start()
            out = self._loss(tape)
            items.end()
            return out

        return numerics.gradient_check(timed_loss, self.leaves)

    def alloc_slice(self) -> None:
        for _ in range(self.size.alloc_items):
            self._loss(numerics.Tape())

    def finish(self, rounds) -> tuple[float, list[str]]:
        failures: list[str] = []
        _run_check(failures, checks.check_gradient_sweep, rounds[0])
        for other in rounds[1:]:
            _run_check(failures, checks.check_bitwise_equal, other, rounds[0],
                       "worst errors of two sweeps")
        gc = scene.prediction_conditioning(self.params.config.horizon)
        quality = np.mean([checks.plain_min_ade(model.forward(s, gc, self.params).means,
                                                s.future, s.future_mask) for s in self.heldout])
        return float(quality), failures


WORKLOADS = {"train_default": TrainDefault, "ensemble_crowded": EnsembleCrowded,
             "gradcheck_tiny": GradcheckTiny}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Pass:
    """One timed region: its items, round outputs and speed samples."""

    items: ItemClock
    rounds: list
    start: float
    end: float
    probe_s: float  # time spent on speed samples inside the region

    def seconds(self) -> float:
        """Wall-clock length of the region, speed samples left out."""
        return self.end - self.start - self.probe_s

    def scaled_seconds(self) -> float:
        """Length of the region at the nominal speed, speed samples left out."""
        rest = self.seconds() - sum(self.items.durations())
        return float(self.items.scaled_durations().sum()) \
            + rest / self.items.probe.factor(self.start, self.end)

    def items_per_s(self) -> float:
        return len(self.items.ends) / self.scaled_seconds()


def timed_pass(workload, seconds: float, min_rounds: int = 1, tracer=None) -> Pass:
    """Whole rounds until `seconds` have passed and `min_rounds` have run."""
    probe = SpeedProbe()
    probe.sample()
    items = ItemClock(tracer, probe)
    rounds = []
    start, spent = clock(), probe.spent
    while len(rounds) < min_rounds or clock() - start - (probe.spent - spent) < seconds:
        rounds.append(workload.run_round(items))
    end, spent = clock(), probe.spent - spent
    probe.sample()
    return Pass(items, rounds, start, end, spent)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, else the pinned setting."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                return str(fn())
    return f"{BLAS_THREADS} (pinned; thread count not queryable)"


def metric(value, unit) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(run: Pass, setups, rss: float, quality: float, scale: bool) -> dict:
    """`setups` holds (seconds, speed factor) per set-up; `scale` False gives
    the raw wall-clock figures."""
    if scale:
        ms = run.items.scaled_durations() * 1000.0
        rate = run.items_per_s()
        setup = [seconds / factor for seconds, factor in setups]
    else:
        ms = np.asarray(run.items.durations()) * 1000.0
        rate = len(ms) / run.seconds()
        setup = [seconds for seconds, _ in setups]
    return {
        "items_per_s": metric(rate, "1/s"),
        "item_ms.p50": metric(np.percentile(ms, 50), "ms"),
        "item_ms.p90": metric(np.percentile(ms, 90), "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "heldout_minADE_m": metric(quality, "m"),
    }


# name -> (reduction, layer, unit)
PER_LAYER = {
    "scene.generate_s": ("setup", "scene.generate", "s"),
    "scene.write_dataset_s": ("setup", "scene.write_dataset", "s"),
    "scene.read_dataset_s": ("setup", "scene.read_dataset", "s"),
    "scene.goal_masking_ms": ("ms", "scene.goal_masking", "ms/item"),
    "model.forward_ms": ("ms", "model.forward", "ms/item"),
    "model.encode_element_ms": ("ms", "model.encode_element", "ms/item"),
    "model.encode_element_calls": ("calls", "model.encode_element", "count/item"),
    "mnm.query_block_ms": ("ms", "mnm.query_block", "ms/item"),
    "mnm.query_block_calls": ("calls", "mnm.query_block", "count/item"),
    "model.interact_ms": ("ms", "model.interact", "ms/item"),
    "model.decode_ms": ("ms", "model.decode", "ms/item"),
    "model.save_ms": ("file", "model.save", "ms/file"),
    "model.load_ms": ("file", "model.load", "ms/file"),
    "numerics.tape_records": ("count", "numerics.tape_records", "count/item"),
    "numerics.backward_ms": ("ms", "numerics.backward", "ms/item"),
    "training.loss_ms": ("ms", "training.loss", "ms/item"),
    "training.optimizer_step_ms": ("ms", "training.optimizer_step", "ms/item"),
    "ensemble.kmeans_ms": ("ms", "ensemble.kmeans", "ms/item"),
}


def per_layer_metrics(tracer: Tracer, traced: Pass, base: Pass, setups,
                      alloc_mb: float) -> tuple[dict, dict]:
    """Per-layer metrics, and the self-time account of the traced items.

    Times of the traced pass are scaled by its mean speed factor, set-up
    times by the factor of their own set-up.
    """
    timed = tracer.phase_spans("timed")
    items = traced.items
    n = len(items.ends)
    speed = items.probe.factor(traced.start, traced.end)
    per_item_ms = 1000.0 / (n * speed)
    setup_factor = {f"setup{i}": factor for i, (_, factor) in enumerate(setups)}
    metrics = {}
    for name, (reduction, layer, unit) in PER_LAYER.items():
        if layer in tracer.absent:
            continue
        if reduction == "setup":
            value = statistics.median(
                sum(s[2] - s[1] for s in tracer.phase_spans(phase) if s[0] == layer) / factor
                for phase, factor in setup_factor.items())
        elif reduction == "file":
            spans = [s for s in tracer.spans if s[0] == layer and s[5] in setup_factor]
            value = 1000.0 * sum((s[2] - s[1]) / setup_factor[s[5]] for s in spans) \
                / max(len(spans), 1)
        elif reduction == "count":
            value = tracer.counts[(layer, "timed")] / n
        elif reduction == "calls":
            value = sum(1 for s in timed if s[0] == layer) / n
        else:
            value = per_item_ms * sum(s[2] - s[1] for s in timed if s[0] == layer)
        metrics[name] = metric(value, unit)

    by_layer: dict[str, float] = {}
    outside = 0.0
    for index, span_self in tracer.self_times("timed").items():
        span = tracer.spans[index]
        if span[4] is None:
            outside += span_self
        else:
            by_layer[span[0]] = by_layer.get(span[0], 0.0) + span_self
    item_total = sum(items.durations())
    remainder = item_total - sum(by_layer.values())
    item_ms = float(items.scaled_durations().mean()) * 1000.0
    base_ms = float(base.items.scaled_durations().mean()) * 1000.0
    metrics["memory.alloc_peak_mb"] = metric(alloc_mb, "MB")
    metrics["trace.item_ms"] = metric(item_ms, "ms/item")
    metrics["trace.remainder_ms"] = metric(per_item_ms * remainder, "ms/item")
    metrics["trace.overhead_pct"] = metric(100.0 * (item_ms / base_ms - 1.0), "%")
    account = {
        "items": n,
        "speed_factor": speed,
        "item_ms": item_ms,
        "self_ms_per_item": {k: per_item_ms * v for k, v in sorted(by_layer.items())},
        "unwrapped_remainder_ms_per_item": per_item_ms * remainder,
        "outside_items_ms_per_item": per_item_ms * outside,
        "untraced_item_ms": base_ms,
        "absent": tracer.absent,
    }
    return metrics, account


def run_workload(args) -> int:
    size = SMOKE if args.size == "smoke" else FULL
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT_DIR))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        workload = WORKLOADS[args.workload](size, args.seed, workdir)
        tracer = Tracer(clock) if args.trace else None
        probe = SpeedProbe()
        setups = []
        for i in range(size.setups):
            probe.sample(2)
            if tracer is not None:
                tracer.phase = f"setup{i}"
                tracer.install()
            start = clock()
            try:
                workload.setup()
            finally:
                end = clock()
                if tracer is not None:
                    tracer.uninstall()
            probe.sample(2)
            setups.append((end - start, probe.factor(start, end)))

        if tracer is None:
            run = timed_pass(workload, args.seconds, workload.min_rounds)
            rss = peak_rss_mb()
            rounds, attempted = run.rounds, len(run.items.ends)
        else:
            base = timed_pass(workload, args.seconds / 2.0)
            tracer.phase = "timed"
            tracer.install()
            try:
                run = timed_pass(workload, args.seconds / 2.0, tracer=tracer)
            finally:
                tracer.uninstall()
            tracemalloc.start()
            workload.alloc_slice()
            alloc_mb = tracemalloc.get_traced_memory()[1] / 2.0 ** 20
            tracemalloc.stop()
            rounds = base.rounds + run.rounds
            attempted = len(base.items.ends) + len(run.items.ends)

        quality, failures = workload.finish(rounds)
        if tracer is None:
            metrics = end_to_end_metrics(run, setups, rss, quality, scale=True)
            raw = end_to_end_metrics(run, setups, rss, quality, scale=False)
            account = None
        else:
            metrics, account = per_layer_metrics(tracer, run, base, setups, alloc_mb)
            raw = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    speeds = np.asarray(run.items.probe.durations) / REF_NOMINAL_S
    result = {"correct": not failures, "attempted": attempted, "failed": 0, "metrics": metrics}
    log = sys.stderr
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}; "
          f"BLAS threads {blas_threads()}; set-ups {[round(t, 4) for t, _ in setups]} s; "
          f"slowdown against the nominal speed: median {np.median(speeds):.3f}, "
          f"range {speeds.min():.3f}-{speeds.max():.3f} over {len(speeds)} samples", file=log)
    for failure in failures:
        print(f"CHECK FAILED {failure}", file=log)
    if account is not None:
        print(f"traced item {account['item_ms']:.4f} ms (untraced {account['untraced_item_ms']:.4f})"
              f" over {account['items']} items; self time per item:", file=log)
        for layer, ms in account["self_ms_per_item"].items():
            print(f"  {layer:<26} {ms:10.4f} ms", file=log)
        print(f"  {'(unwrapped remainder)':<26} {account['unwrapped_remainder_ms_per_item']:10.4f} ms",
              file=log)
        for name in account["absent"]:
            print(f"  absent: {name}", file=log)
        tracer.dump(OUT_DIR / f"trace-{tag}.json", account)
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, raw_metrics=raw, blas_threads=blas_threads(),
                       setups_s_and_factor=setups, speed_samples=speeds.tolist()), fh)
    for name, m in metrics.items():
        print(f"{args.workload:<17} {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = 1
            results[name] = None
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            continue
        results[name] = json.loads(lines[-1])
        print(f"{name:<17} attempted {results[name]['attempted']} failed "
              f"{results[name]['failed']} correct {results[name]['correct']}")
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
