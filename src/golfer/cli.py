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

import numpy as np

from .config import ConfigError, RunConfig, echo_config, parse_config
from .ensemble import DegenerateInputError, ensemble_predict, min_ade, min_fde, miss_rate
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
    generate_dataset,
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
    gts = [s.future for s in scenes]
    valids = [s.future_mask for s in scenes]
    return {
        "num_samples": len(scenes),
        "minADE": float(np.mean([min_ade(m, g, v) for m, g, v in zip(means_seq, gts, valids)])),
        "minFDE": float(np.mean([min_fde(m, g, v) for m, g, v in zip(means_seq, gts, valids)])),
        "miss_rate": miss_rate(means_seq, gts, valids, threshold_m),
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
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.data.seed = args.seed
    _echo(cfg)
    scenes = generate_dataset(cfg.data, cfg.num_scenes)
    write_dataset(scenes, args.out)
    print(f"wrote {len(scenes)} scenes to {args.out}", file=sys.stderr)
    return 0


def _cmd_train(args) -> int:
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.train.seed = args.seed
    _echo(cfg)
    scenes = _load_scenes(args.data)
    _check_horizon(scenes, cfg.model.horizon, args.data)
    params, trace = train(scenes, cfg.model, cfg.train)
    save_params(params, args.out)
    trace_path = args.out + ".trace"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for rec in trace:
            fh.write(
                to_json_text(
                    {
                        "epoch": rec.epoch,
                        "step": rec.step,
                        "regression_nll": rec.regression_nll,
                        "classification_ce": rec.classification_ce,
                        "total": rec.total,
                    }
                )
                + "\n"
            )
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
        cfg.ensemble_seed = args.seed
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
    means_seq, outputs = [], []
    for scene in scenes:
        preds = [forward(scene, prediction_conditioning(p.config.horizon), p) for p in members]
        rng = np.random.Generator(np.random.PCG64(cfg.ensemble_seed))
        out = ensemble_predict(preds, cfg.ensemble_k, rng)
        outputs.append(out)
        means_seq.append(out.centroids)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for scene_id, out in enumerate(outputs):
                _write_prediction_records(fh, scene_id, out.centroids, out.probs)
        print(f"wrote {len(scenes) * cfg.ensemble_k} ensembled mode records to {args.out}",
              file=sys.stderr)
    report = _metrics_record(scenes, means_seq, cfg.ensemble_k, cfg.threshold_m)
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
            p.add_argument("--seed", type=int, help="override the command's seed")

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
    args = build_parser().parse_args(argv)
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
