"""Command-line surface: generate-data, train, evaluate, predict, ensemble,
gradcheck.

Every command echoes its effective configuration to stdout, writes artifacts
deterministically, and maps errors to exit codes: 0 success, 1 runtime/data
error, 2 usage/config error.

Output contract: stdout carries only the config echo and reports (training
summary, metric records, gradcheck lines); stderr carries status lines such as
`wrote ... to PATH` and error messages. Reports name no output path, so two runs
that differ only in `--out` print byte-identical stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

import numpy as np

from .config import ConfigError, RunConfig, echo_config, parse_config
from .ensemble import DegenerateInputError, ensemble_predict, mode_errors
from .gradcheck import run_gradient_suite
from .model import (
    ModelFormatError,
    ModelParams,
    Prediction,
    forward,
    load_params,
    save_params,
)
from .numerics import EmptySetError, NumericError
from .scene import (
    FormatError,
    ParseError,
    Scene,
    constant_velocity_baseline,
    generate_scenes,
    prediction_conditioning,
    read_dataset,
    to_json_text,
    write_dataset,
)
from .training import TrainingError, train

PREDICT_DIGITS = 9


def _echo(cfg: RunConfig) -> None:
    sys.stdout.write(echo_config(cfg))


def _load_scenes(path: str) -> list[Scene]:
    scenes = read_dataset(path)
    if not scenes:
        raise ParseError(f"{path}: dataset contains no scenes")
    return scenes


def _check_horizon(scenes: list[Scene], horizon: int, path: str) -> None:
    """Every scene must have the horizon the model predicts."""
    for index, scene in enumerate(scenes):
        if scene.horizon != horizon:
            raise FormatError(
                f"{path}: scene {index} has horizon {scene.horizon}, expected horizon {horizon}"
            )


def _predict_all(scenes: list[Scene], params: ModelParams) -> list[Prediction]:
    gc = prediction_conditioning(params.config.horizon)
    return [forward(scene, gc, params) for scene in scenes]


def _metrics_record(scenes, means_seq, k: int, threshold_m: float) -> dict:
    """Means over scenes of minADE and minFDE, each scene scored once by
    `ensemble.mode_errors`, and the share of scenes with minFDE over `threshold_m`."""
    errors = [mode_errors(m, s.future, s.future_mask) for m, s in zip(means_seq, scenes)]
    fdes = [fde.min() for _, fde in errors]
    return {
        "num_samples": len(scenes),
        "minADE": float(np.mean([ade.min() for ade, _ in errors])),
        "minFDE": float(np.mean(fdes)),
        "miss_rate": sum(1 for fde in fdes if fde > threshold_m) / len(fdes),
        "k": k,
        "threshold_m": threshold_m,
    }


def _write_prediction_records(fh, scene_id: int, means: np.ndarray, probs: np.ndarray) -> None:
    for mode in range(means.shape[0]):
        record = {
            "scene_id": scene_id,
            "mode": mode,
            "prob": float(probs[mode]),
            "points": means[mode],
        }
        fh.write(to_json_text(record, PREDICT_DIGITS) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_generate_data(args) -> int:
    """Write each scene as it is generated, so the command holds one scene."""
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, data=replace(cfg.data, seed=args.seed))
    _echo(cfg)
    write_dataset(generate_scenes(cfg.data, cfg.num_scenes), args.out)
    print(f"wrote {cfg.num_scenes} scenes to {args.out}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    _echo(cfg)
    scenes = _load_scenes(args.data)
    _check_horizon(scenes, cfg.model.horizon, args.data)
    params, trace = train(scenes, cfg.model, cfg.train)
    save_params(params, args.out)
    trace_path = args.out + ".trace"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for rec in trace:
            fh.write(to_json_text(asdict(rec)) + "\n")
    last_epoch = trace[-1].epoch
    epoch_total = np.mean([r.total for r in trace if r.epoch == last_epoch])
    print(f"trained {cfg.train.epochs} epochs on {len(scenes)} scenes; "
          f"final epoch mean loss {epoch_total:.6f}")
    print(f"wrote model to {args.out} and loss trace to {trace_path}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    cfg = parse_config(args.config)
    _echo(cfg)
    scenes = _load_scenes(args.data)
    params = load_params(args.model[0])
    _check_horizon(scenes, params.config.horizon, args.data)
    preds = _predict_all(scenes, params)
    report = _metrics_record(scenes, [p.means for p in preds], params.config.k_modes,
                             cfg.threshold_m)
    baseline_means = [constant_velocity_baseline(s)[None, :, :] for s in scenes]
    baseline = _metrics_record(scenes, baseline_means, 1, cfg.threshold_m)
    print("metrics " + to_json_text(report))
    print("constant_velocity_baseline " + to_json_text(baseline))
    return 0


def _cmd_predict(args) -> int:
    cfg = parse_config(args.config)
    _echo(cfg)
    scenes = _load_scenes(args.data)
    params = load_params(args.model[0])
    _check_horizon(scenes, params.config.horizon, args.data)
    preds = _predict_all(scenes, params)
    with open(args.out, "w", encoding="utf-8") as fh:
        for scene_id, pred in enumerate(preds):
            _write_prediction_records(fh, scene_id, pred.means, pred.probs)
    print(f"wrote {len(scenes) * params.config.k_modes} mode records to {args.out}",
          file=sys.stderr)
    return 0


def _cmd_ensemble(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, ensemble_seed=args.seed)
    _echo(cfg)
    scenes = _load_scenes(args.data)
    members = [load_params(path) for path in args.model]
    for params in members:
        _check_horizon(scenes, params.config.horizon, args.data)
    total_modes = sum(p.config.k_modes for p in members)
    if total_modes < cfg.ensemble_k:
        raise ConfigError(
            f"ensemble.k: {cfg.ensemble_k} clusters requested but members supply only "
            f"{total_modes} modes"
        )
    outputs = [
        ensemble_predict(list(preds), cfg.ensemble_k,
                         np.random.Generator(np.random.PCG64(cfg.ensemble_seed)))
        for preds in zip(*(_predict_all(scenes, params) for params in members))
    ]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for scene_id, out in enumerate(outputs):
                _write_prediction_records(fh, scene_id, out.centroids, out.probs)
        print(f"wrote {len(scenes) * cfg.ensemble_k} ensembled mode records to {args.out}",
              file=sys.stderr)
    report = _metrics_record(scenes, [out.centroids for out in outputs], cfg.ensemble_k,
                             cfg.threshold_m)
    print("metrics " + to_json_text(report))
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_gradient_suite()
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: max relative error {res.max_rel_error:.3e} "
              f"(tolerance {res.tolerance:.0e})")
        failed += 0 if res.passed else 1
    worst = max(res.max_rel_error for res in results)
    print(f"{len(results) - failed}/{len(results)} checks passed; worst error {worst:.3e}")
    return 0 if failed == 0 else 1


def _seed(text: str) -> int:
    """A `--seed` value: numpy's seed streams take only non-negative integers."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="golfer",
        description="Synthetic-scene trajectory prediction: data, training, metrics, ensembling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, model=False, out=False, seed=False, out_required=True):
        p.add_argument("--config", help="key=value config file (defaults apply if omitted)")
        if data:
            p.add_argument("--data", required=True, help="dataset file")
        if model:
            p.add_argument("--model", action="append", required=True,
                           help="model file (repeat for ensembles)")
        if out:
            p.add_argument("--out", required=out_required, help="output path")
        if seed:
            p.add_argument("--seed", type=_seed, help="override the command's seed")

    p = sub.add_parser("generate-data", help="write a synthetic dataset file")
    common(p, out=True, seed=True)
    p.set_defaults(func=_cmd_generate_data)

    p = sub.add_parser("train", help="train a model; writes model + loss trace")
    common(p, data=True, out=True, seed=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="print metrics and the constant-velocity baseline")
    common(p, data=True, model=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("predict", help="write per-scene mode trajectories")
    common(p, data=True, model=True, out=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("ensemble", help="cluster pooled modes from several models")
    common(p, data=True, model=True, out=True, seed=True, out_required=False)
    p.set_defaults(func=_cmd_ensemble)

    p = sub.add_parser("gradcheck", help="run the finite-difference verification suite")
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("evaluate", "predict") and len(args.model) > 1:
        parser.error(f"argument --model: {args.command} takes one model, got {len(args.model)}")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, FormatError, ModelFormatError, TrainingError, DegenerateInputError,
            EmptySetError, NumericError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
