"""Flat key=value run configuration with dotted section paths.

Every key has a default, unknown keys are rejected, and the effective
(fully-defaulted) configuration can be echoed back in the same format so a
run is reproducible from its own output. Lines starting with '#' and blank
lines are ignored. `_KEYS` below names each key's field and parser; a key's
default is its field's default, and its range check its field's rule.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .model import ACTIVATIONS, MODEL_RULES, GolferConfig
from .scene import GENERATOR_RULES, GeneratorConfig, at_least
from .training import TRAIN_RULES, TrainConfig


class ConfigError(ValueError):
    """Bad key, type, or out-of-range value; message names the key path."""


def _parser(convert, expected: str):
    """A parser whose error names the key and the expected form."""

    def parse(key: str, text: str):
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None

    return parse


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_parse_int = _parser(int, "an integer")
_parse_float = _parser(_finite_float, "a finite number")
_parse_bool = _parser({"true": True, "false": False}.__getitem__, "true or false")
_parse_int_list = _parser(lambda text: tuple(int(part) for part in text.split(",")),
                          "comma-separated integers")
_parse_activation = _parser({a: a for a in ACTIVATIONS}.__getitem__, f"one of {ACTIVATIONS}")


@dataclass
class RunConfig:
    data: GeneratorConfig
    model: GolferConfig
    train: TrainConfig
    num_scenes: int = 256
    ensemble_k: int = 6
    ensemble_seed: int = 0
    threshold_m: float = 2.0


# A section is the RunConfig attribute that holds a key's field ("" is RunConfig
# itself), with its class and rule table; only this module builds a RunConfig.
_SECTIONS = {"data": (GeneratorConfig, GENERATOR_RULES), "model": (GolferConfig, MODEL_RULES),
             "train": (TrainConfig, TRAIN_RULES),
             "": (RunConfig, {"num_scenes": at_least(1), "ensemble_k": at_least(1),
                              "ensemble_seed": at_least(0), "threshold_m": lambda v: v > 0})}

# key -> (section, field, index in a (min, max) tuple field or None, parser).
# Declaration order is the echo order; a range's max key directly follows its
# min key.
_KEYS = {
    "data.seed": ("data", "seed", None, _parse_int),
    "data.num_scenes": ("", "num_scenes", None, _parse_int),
    "data.num_roads_min": ("data", "num_roads", 0, _parse_int),
    "data.num_roads_max": ("data", "num_roads", 1, _parse_int),
    "data.num_agents_min": ("data", "num_agents", 0, _parse_int),
    "data.num_agents_max": ("data", "num_agents", 1, _parse_int),
    "data.points_per_polyline": ("data", "points_per_polyline", None, _parse_int),
    "data.history_steps": ("data", "history_steps", None, _parse_int),
    "data.horizon": ("data", "horizon", None, _parse_int),
    "data.speed_min": ("data", "speed_range", 0, _parse_float),
    "data.speed_max": ("data", "speed_range", 1, _parse_float),
    "data.noise_scale": ("data", "noise_scale", None, _parse_float),
    "data.curvature_min": ("data", "curvature_range", 0, _parse_float),
    "data.curvature_max": ("data", "curvature_range", 1, _parse_float),
    "data.dt": ("data", "dt", None, _parse_float),
    "model.d": ("model", "d", None, _parse_int),
    "model.heads": ("model", "heads", None, _parse_int),
    "model.fe_depth": ("model", "fe_depth", None, _parse_int),
    "model.interact_depth": ("model", "interact_depth", None, _parse_int),
    "model.k_modes": ("model", "k_modes", None, _parse_int),
    "model.d_ff": ("model", "d_ff", None, _parse_int),
    "model.decoder_hidden": ("model", "decoder_hidden", None, _parse_int_list),
    "model.activation": ("model", "activation", None, _parse_activation),
    "model.seed": ("model", "seed", None, _parse_int),
    "model.position_scale": ("model", "position_scale", None, _parse_float),
    "model.log_sigma_scale": ("model", "log_sigma_scale", None, _parse_float),
    "model.interact_proj": ("model", "interact_proj", None, _parse_bool),
    "train.epochs": ("train", "epochs", None, _parse_int),
    "train.lr": ("train", "lr", None, _parse_float),
    "train.lambda": ("train", "lam", None, _parse_float),
    "train.mask_ratio": ("train", "mask_ratio", None, _parse_float),
    "train.seed": ("train", "seed", None, _parse_int),
    "ensemble.k": ("", "ensemble_k", None, _parse_int),
    "ensemble.seed": ("", "ensemble_seed", None, _parse_int),
    "metrics.threshold_m": ("", "threshold_m", None, _parse_float),
}

_PAIRS = [(lo, hi) for lo, hi in zip(_KEYS, list(_KEYS)[1:]) if _KEYS[lo][2] == 0]
_RULES = {key: _SECTIONS[section][1].get(name) for key, (section, name, _, _) in _KEYS.items()}


def _field_default(section: str, name: str, index: int | None):
    """A key's default, read from the dataclass field, not from an instance
    (an instance's `d_ff` is already resolved to 4*d)."""
    default = next(f.default for f in fields(_SECTIONS[section][0]) if f.name == name)
    return default if index is None else default[index]


def _check_ranges(values: dict) -> None:
    """Raise on the first bad value: single keys, then empty or overflowing
    (min, max) ranges, then the rule on each end of a range."""
    for key, (_, _, index, _) in _KEYS.items():
        if _RULES[key] and index is None and not _RULES[key](values[key]):
            raise ConfigError(f"{key}: value {values[key]} out of range")
    for lo_key, hi_key in _PAIRS:
        lo, hi = values[lo_key], values[hi_key]
        if hi < lo:
            raise ConfigError(f"{hi_key}: range ({lo}, {hi}) is empty")
        if hi - lo > sys.float_info.max:
            raise ConfigError(f"{hi_key}: range ({lo}, {hi}) is too wide")
    for key in (key for pair in _PAIRS for key in pair):
        if _RULES[key] and not _RULES[key](values[key]):
            raise ConfigError(f"{key}: value {values[key]} out of range")


def _assemble(values: dict) -> RunConfig:
    _check_ranges(values)
    kwargs = {section: {} for section in _SECTIONS}
    for key, (section, name, index, _) in _KEYS.items():
        owner = kwargs[section]
        owner[name] = values[key] if index is None else owner.get(name, ()) + (values[key],)
    kwargs["model"]["horizon"] = kwargs["data"]["horizon"]  # the model predicts the data horizon
    try:
        model = GolferConfig(**kwargs["model"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None
    return RunConfig(data=GeneratorConfig(**kwargs["data"]), model=model,
                     train=TrainConfig(**kwargs["train"]), **kwargs[""])


def parse_config_text(text: str) -> RunConfig:
    values = {key: _field_default(*entry[:3]) for key, entry in _KEYS.items()}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key}")
        values[key] = _KEYS[key][3](key, value.strip())
    return _assemble(values)


def parse_config(path: str | None) -> RunConfig:
    """Parse a config file; a missing path means all defaults."""
    if path is None:
        return parse_config_text("")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: RunConfig) -> str:
    """The effective configuration, re-parseable as a config file."""
    lines = []
    for key, (section, name, index, _) in _KEYS.items():
        value = getattr(getattr(cfg, section) if section else cfg, name)
        lines.append(f"{key}={_format_value(value if index is None else value[index])}")
    return "\n".join(lines) + "\n"
