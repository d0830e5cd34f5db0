"""Flat key=value run configuration with dotted section paths.

Every key has a default, unknown keys are rejected, and the effective
(fully-defaulted) configuration can be echoed back in the same format so a
run is reproducible from its own output. Lines starting with '#' and blank
lines are ignored. `_KEYS` below is the schema; defaults are the dataclass
field defaults of the sections it names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields

from .model import GolferConfig
from .scene import GENERATOR_BOUNDS as _BOUNDS, GeneratorConfig
from .training import TrainConfig


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
_ACTIVATIONS = ("gelu", "relu")
_parse_activation = _parser({a: a for a in _ACTIVATIONS}.__getitem__, f"one of {_ACTIVATIONS}")


@dataclass
class RunConfig:
    data: GeneratorConfig
    model: GolferConfig
    train: TrainConfig
    num_scenes: int = 256
    ensemble_k: int = 6
    ensemble_seed: int = 0
    threshold_m: float = 2.0


# A section is the RunConfig attribute that holds a key's field; "" is
# RunConfig itself. The model's `horizon` has no key: it is `data.horizon`.
_SECTIONS = {"data": GeneratorConfig, "model": GolferConfig, "train": TrainConfig, "": RunConfig}

# key -> (section, field, index in a (min, max) tuple field or None, parser,
# range check or None). Declaration order is the echo order; a range's max key
# directly follows its min key. Physical bounds keep the generator finite.
_KEYS = {
    "data.seed": ("data", "seed", None, _parse_int, lambda v: v >= 0),
    "data.num_scenes": ("", "num_scenes", None, _parse_int, lambda v: v >= 1),
    "data.num_roads_min": ("data", "num_roads", 0, _parse_int, lambda v: v >= 1),
    "data.num_roads_max": ("data", "num_roads", 1, _parse_int, None),
    "data.num_agents_min": ("data", "num_agents", 0, _parse_int, lambda v: v >= 0),
    "data.num_agents_max": ("data", "num_agents", 1, _parse_int, None),
    "data.points_per_polyline": ("data", "points_per_polyline", None, _parse_int, lambda v: v >= 2),
    "data.history_steps": ("data", "history_steps", None, _parse_int, lambda v: v >= 2),
    "data.horizon": ("data", "horizon", None, _parse_int, lambda v: v >= 1),
    "data.speed_min": ("data", "speed_range", 0, _parse_float, _BOUNDS["speed_range"]),
    "data.speed_max": ("data", "speed_range", 1, _parse_float, _BOUNDS["speed_range"]),
    "data.noise_scale": ("data", "noise_scale", None, _parse_float, _BOUNDS["noise_scale"]),
    "data.curvature_min": ("data", "curvature_range", 0, _parse_float, _BOUNDS["curvature_range"]),
    "data.curvature_max": ("data", "curvature_range", 1, _parse_float, _BOUNDS["curvature_range"]),
    "data.dt": ("data", "dt", None, _parse_float, _BOUNDS["dt"]),
    "model.d": ("model", "d", None, _parse_int, lambda v: v >= 1),
    "model.heads": ("model", "heads", None, _parse_int, lambda v: v >= 1),
    "model.fe_depth": ("model", "fe_depth", None, _parse_int, lambda v: v >= 1),
    "model.interact_depth": ("model", "interact_depth", None, _parse_int, lambda v: v >= 1),
    "model.k_modes": ("model", "k_modes", None, _parse_int, lambda v: v >= 1),
    "model.d_ff": ("model", "d_ff", None, _parse_int, lambda v: v >= 0),
    "model.decoder_hidden": ("model", "decoder_hidden", None, _parse_int_list,
                             lambda v: min(v) >= 1),
    "model.activation": ("model", "activation", None, _parse_activation, None),
    "model.seed": ("model", "seed", None, _parse_int, lambda v: v >= 0),
    "model.position_scale": ("model", "position_scale", None, _parse_float, lambda v: v > 0),
    "model.log_sigma_scale": ("model", "log_sigma_scale", None, _parse_float, lambda v: v > 0),
    "model.interact_proj": ("model", "interact_proj", None, _parse_bool, None),
    "train.epochs": ("train", "epochs", None, _parse_int, lambda v: v >= 1),
    "train.lr": ("train", "lr", None, _parse_float, lambda v: v > 0),
    "train.lambda": ("train", "lam", None, _parse_float, lambda v: v >= 0),
    "train.mask_ratio": ("train", "mask_ratio", None, _parse_float, lambda v: 0.0 <= v <= 1.0),
    "train.seed": ("train", "seed", None, _parse_int, lambda v: v >= 0),
    "ensemble.k": ("", "ensemble_k", None, _parse_int, lambda v: v >= 1),
    "ensemble.seed": ("", "ensemble_seed", None, _parse_int, lambda v: v >= 0),
    "metrics.threshold_m": ("", "threshold_m", None, _parse_float, lambda v: v > 0),
}

_PAIRS = [(lo, hi) for lo, hi in zip(_KEYS, list(_KEYS)[1:]) if _KEYS[lo][2] == 0]


def _field_default(section: str, name: str, index: int | None):
    """A key's default, read from the dataclass field, not from an instance
    (an instance's `d_ff` is already resolved to 4*d)."""
    default = next(f.default for f in fields(_SECTIONS[section]) if f.name == name)
    return default if index is None else default[index]


def _check_ranges(values: dict) -> None:
    """Raise on the first bad value: single keys, then empty or overflowing
    (min, max) ranges, then the bounds on each end of a range."""
    for key, (_, _, index, _, check) in _KEYS.items():
        if check and index is None and not check(values[key]):
            raise ConfigError(f"{key}: value {values[key]} out of range")
    for lo_key, hi_key in _PAIRS:
        lo, hi = values[lo_key], values[hi_key]
        if hi < lo:
            raise ConfigError(f"{hi_key}: range ({lo}, {hi}) is empty")
        if hi - lo > sys.float_info.max:
            raise ConfigError(f"{hi_key}: range ({lo}, {hi}) is too wide")
    for key in (key for pair in _PAIRS for key in pair):
        check = _KEYS[key][4]
        if check and not check(values[key]):
            raise ConfigError(f"{key}: value {values[key]} out of range")


def _assemble(values: dict) -> RunConfig:
    _check_ranges(values)
    kwargs = {section: {} for section in _SECTIONS}
    for key, (section, name, index, _, _) in _KEYS.items():
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
    for key, (section, name, index, _, _) in _KEYS.items():
        value = getattr(getattr(cfg, section) if section else cfg, name)
        lines.append(f"{key}={_format_value(value if index is None else value[index])}")
    return "\n".join(lines) + "\n"
