"""Flat key=value run configuration with dotted section paths.

Every key has a default, unknown keys are rejected, and the effective
(fully-defaulted) configuration can be echoed back in the same format so a
run is reproducible from its own output. Lines starting with '#' and blank
lines are ignored. `_KEYS` below names each key's field and parser; a key's
default is its field's default. The config dataclasses are the only checker:
the sections are built in `_SECTIONS` order, and the first field one refuses
is named by its key, with the dataclass's reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .model import GolferConfig
from .numerics import ACTIVATIONS
from .scene import FieldError, GeneratorConfig, at_least, check_fields
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
_parse_activation = _parser({a: a for a in ACTIVATIONS}.__getitem__, f"one of {tuple(ACTIVATIONS)}")


# A default scene holds about 12 KB, 20 KB once packed.
RUN_RULES = {"num_scenes": lambda v: 1 <= v <= 100_000, "ensemble_k": at_least(1),
             "ensemble_seed": at_least(0), "threshold_m": lambda v: 0 < v < math.inf}
# The most token rows a run's dataset may hold; 100,000 default scenes hold at most 1.3e7.
MAX_DATASET_ROWS = 20_000_000


@dataclass(frozen=True)
class RunConfig:
    """A run's settings, frozen: each section checked itself when it was built,
    and the run's fields are checked against `RUN_RULES` and `MAX_DATASET_ROWS`."""

    data: GeneratorConfig
    model: GolferConfig
    train: TrainConfig
    num_scenes: int = 256
    ensemble_k: int = 6
    ensemble_seed: int = 0
    threshold_m: float = 2.0

    def __post_init__(self):
        check_fields(self, RUN_RULES)
        data = self.data
        scene_rows = (data.history_steps + data.num_roads[1] * data.points_per_polyline
                      + data.num_agents[1] * data.history_steps)
        if self.num_scenes * scene_rows > MAX_DATASET_ROWS:
            raise FieldError("num_scenes", None, f"{self.num_scenes} scenes of up to {scene_rows} "
                             f"token rows each, over the budget of {MAX_DATASET_ROWS} rows")


# A section is the RunConfig attribute that holds a key's field ("" is RunConfig
# itself), with its class, in the order they are built.
_SECTIONS = {"data": GeneratorConfig, "model": GolferConfig, "train": TrainConfig, "": RunConfig}

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

# (section, field, end of a (min, max) field or None) -> key, to name a refused field.
_KEY_OF = {entry[:3]: key for key, entry in _KEYS.items()}


def _field_default(section: str, name: str, index: int | None):
    """A key's default, read from the dataclass field, not from an instance
    (an instance's `d_ff` is already resolved to 4*d)."""
    default = next(f.default for f in fields(_SECTIONS[section]) if f.name == name)
    return default if index is None else default[index]


def _assemble(values: dict) -> RunConfig:
    kwargs = {section: {} for section in _SECTIONS}
    for key, (section, name, index, _) in _KEYS.items():
        owner = kwargs[section]
        owner[name] = values[key] if index is None else owner.get(name, ()) + (values[key],)
    kwargs["model"]["horizon"] = kwargs["data"]["horizon"]  # the model predicts the data horizon
    for section, cls in _SECTIONS.items():
        try:
            built = cls(**kwargs[section])
        except FieldError as exc:
            raise ConfigError(f"{_KEY_OF[section, exc.field, exc.end]}: {exc.reason}") from None
        except ValueError as exc:  # the model's heads check, which names two fields
            raise ConfigError(f"{section}: {exc}") from None
        if section:
            kwargs[""][section] = built
    return built  # the run section, built last from the others


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
