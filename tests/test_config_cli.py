import json
import math
import re
import struct
import tracemalloc
from dataclasses import FrozenInstanceError, asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golfer.cli import main
from golfer.config import (_KEYS, _SECTIONS, RUN_RULES, ConfigError, RunConfig, echo_config,
                           parse_config, parse_config_text)
from golfer.model import (MODEL_MAGIC, MODEL_RULES, MODEL_VERSION, GolferConfig,
                          ModelFormatError, load_params)
from golfer.scene import GENERATOR_RULES, FieldError, GeneratorConfig, read_dataset, write_dataset
from golfer.training import TRAIN_RULES, TrainConfig

TINY_CONFIG = """
# desk-scale smoke configuration
data.num_scenes=6
data.num_roads_min=2
data.num_roads_max=3
data.num_agents_min=1
data.num_agents_max=2
data.points_per_polyline=4
data.history_steps=4
data.horizon=4
model.d=16
model.heads=2
model.fe_depth=1
model.k_modes=2
model.d_ff=32
model.decoder_hidden=16
train.epochs=1
ensemble.k=3
"""


DEFAULT_ECHO = """\
data.seed=0
data.num_scenes=256
data.num_roads_min=4
data.num_roads_max=8
data.num_agents_min=1
data.num_agents_max=4
data.points_per_polyline=10
data.history_steps=10
data.horizon=16
data.speed_min=5.0
data.speed_max=15.0
data.noise_scale=0.2
data.curvature_min=-0.03
data.curvature_max=0.03
data.dt=0.5
model.d=64
model.heads=4
model.fe_depth=2
model.interact_depth=1
model.k_modes=6
model.d_ff=256
model.decoder_hidden=128
model.activation=gelu
model.seed=0
model.position_scale=10.0
model.log_sigma_scale=1.0
model.interact_proj=false
train.epochs=16
train.lr=0.001
train.lambda=1.0
train.mask_ratio=0.85
train.seed=0
ensemble.k=6
ensemble.seed=0
metrics.threshold_m=2.0
"""


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _floats(lo, hi, exclude_min=False):
    return st.floats(lo, hi, exclude_min=exclude_min, allow_nan=False).map(repr)


_POSITIVE = _floats(0.0, 1e3, exclude_min=True)

# One strategy of valid value texts per key. Each half of a *_min/*_max pair
# stays on its side of the other half's default, model.d is a multiple of
# every heads value, and 10**4 of the largest scenes these values allow (1,984
# token rows each) fit `MAX_DATASET_ROWS`, so any subset of the keys is a valid
# config.
VALID_VALUES = {
    "data.seed": _ints(0, 2**32 - 1),
    "data.num_scenes": _ints(1, 10**4),
    "data.num_roads_min": _ints(1, 4),
    "data.num_roads_max": _ints(8, 20),
    "data.num_agents_min": _ints(0, 1),
    "data.num_agents_max": _ints(4, 10),
    "data.points_per_polyline": _ints(2, 64),
    "data.history_steps": _ints(2, 64),
    "data.horizon": _ints(1, 64),
    "data.speed_min": _floats(-5.0, 5.0),
    "data.speed_max": _floats(15.0, 40.0),
    "data.noise_scale": _floats(0.0, 10.0),
    "data.curvature_min": _floats(-1.0, -0.03),
    "data.curvature_max": _floats(0.03, 1.0),
    "data.dt": _POSITIVE,
    "model.d": st.integers(1, 32).map(lambda k: str(4 * k)),
    "model.heads": st.sampled_from(["1", "2", "4"]),
    "model.fe_depth": _ints(1, 8),
    "model.interact_depth": _ints(1, 8),
    "model.k_modes": _ints(1, 12),
    "model.d_ff": _ints(0, 512),
    "model.decoder_hidden": st.lists(st.integers(1, 256), min_size=1, max_size=3).map(
        lambda ws: ",".join(map(str, ws))),
    "model.activation": st.sampled_from(["gelu", "relu"]),
    "model.seed": _ints(0, 2**32 - 1),
    "model.position_scale": _POSITIVE,
    "model.log_sigma_scale": _POSITIVE,
    "model.interact_proj": st.sampled_from(["true", "false"]),
    "train.epochs": _ints(1, 100),
    "train.lr": _POSITIVE,
    "train.lambda": _floats(0.0, 10.0),
    "train.mask_ratio": _floats(0.0, 1.0),
    "train.seed": _ints(0, 2**32 - 1),
    "ensemble.k": _ints(1, 24),
    "ensemble.seed": _ints(0, 2**32 - 1),
    "metrics.threshold_m": _POSITIVE,
}


_RULES_OF = {GeneratorConfig: GENERATOR_RULES, GolferConfig: MODEL_RULES, TrainConfig: TRAIN_RULES,
             RunConfig: RUN_RULES}
# Each key whose field has a rule -> (its section's class, the field's name,
# its index in a (min, max) pair or None, the field).
RULED_KEYS = {
    key: (_SECTIONS[section], name, index, next(f for f in fields(_SECTIONS[section])
                                                if f.name == name))
    for key, (section, name, index, _) in _KEYS.items()
    if name in _RULES_OF[_SECTIONS[section]]
}
_NEAR_BOUNDS = [math.nextafter(sign * bound, toward) for bound in (0.0, 1.0, 100.0, 1000.0)
                for sign in (-1.0, 1.0) for toward in (-math.inf, sign * bound, math.inf)]


@st.composite
def ruled_key_values(draw):
    """A ruled key and one value for it: an integer around 0-2, around 1000
    or 1e20, a float at or next to 0, 1, 100 or 1000 (either sign) or any
    float up to 2000 in size, or an activation name."""
    key = draw(st.sampled_from(sorted(RULED_KEYS)))
    kind = RULED_KEYS[key][3].type
    if kind == "str":
        return key, draw(st.sampled_from(["gelu", "relu", "tanh"]))
    if "int" in kind:
        return key, draw(st.one_of(st.integers(-2, 4), st.integers(999, 1001), st.just(10**20)))
    return key, draw(st.one_of(st.sampled_from(_NEAR_BOUNDS),
                               st.floats(-2000.0, 2000.0, allow_nan=False)))


@st.composite
def valid_config_texts(draw):
    keys = draw(st.lists(st.sampled_from(sorted(VALID_VALUES)), unique=True))
    return "\n".join(f"{key}={draw(VALID_VALUES[key])}" for key in keys)


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


class TestParseConfig:
    def test_empty_text_is_all_defaults(self):
        cfg = parse_config_text("")
        assert cfg.train.mask_ratio == 0.85
        assert cfg.model.k_modes == 6
        assert cfg.ensemble_k == 6
        assert cfg.threshold_m == 2.0

    def test_mask_ratio_range_error_names_the_key(self):
        with pytest.raises(ConfigError, match="train.mask_ratio"):
            parse_config_text("train.mask_ratio=1.5")

    def test_negative_model_seed_names_the_key(self):
        with pytest.raises(ConfigError, match=r"model\.seed: value -1 out of range"):
            parse_config_text("model.seed=-1")

    @pytest.mark.parametrize("key", ["data.seed", "train.seed", "ensemble.seed"])
    def test_negative_seed_names_the_key(self, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: value -1 out of range"):
            parse_config_text(f"{key}=-1")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key data.fog"):
            parse_config_text("data.fog=1")

    def test_type_mismatch_names_the_key(self):
        with pytest.raises(ConfigError, match="train.epochs"):
            parse_config_text("train.epochs=three")

    def test_d_ff_default_resolves_to_4d(self):
        cfg = parse_config_text("model.d=32")
        assert cfg.model.d_ff == 128
        assert "model.d_ff=128" in echo_config(cfg)

    def test_echo_round_trips(self):
        cfg = parse_config_text("train.lr=0.0005\nmodel.decoder_hidden=64,32\ndata.noise_scale=0.15")
        again = parse_config_text(echo_config(cfg))
        assert again == cfg

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# comment\n\ntrain.seed=9\n")
        assert cfg.train.seed == 9

    def test_missing_file_is_a_config_error(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/path.cfg")

    def test_non_finite_float_names_the_key(self):
        for line in ("data.speed_max=inf", "data.curvature_min=nan", "train.lr=-inf",
                     "data.dt=NaN"):
            with pytest.raises(ConfigError, match=line.split("=")[0] + ": expected a finite"):
                parse_config_text(line)

    def test_decoder_hidden_widths_must_be_positive(self):
        for widths in ("0", "128,0", "-3"):
            with pytest.raises(ConfigError, match="model.decoder_hidden"):
                parse_config_text(f"model.decoder_hidden={widths}")

    @pytest.mark.parametrize("key", ["data.num_roads_max", "data.num_agents_max",
                                     "data.points_per_polyline", "data.history_steps",
                                     "data.horizon"])
    def test_a_generator_count_of_1e20_names_the_key(self, key):
        """Refused by the config, before any scene is generated (the generator
        would overflow numpy's int64 or grow its lists without bound)."""
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: value {10**20} out of range$"):
            parse_config_text(f"{key}={10**20}")

    @pytest.mark.parametrize("key", ["model.d", "model.d_ff", "model.decoder_hidden",
                                     "model.fe_depth", "model.k_modes"])
    def test_a_model_over_the_arena_budget_is_refused(self, key):
        """Counted from the model's declarations in Python integers, before any
        allocation, and only up to the first past the budget."""
        with pytest.raises(ConfigError, match=r"^model: at least \d+ parameters, over the arena "
                                              r"budget of 20000000$"):
            parse_config_text(f"{key}={10**20}")

    def test_a_dataset_over_the_row_budget_is_refused(self, tmp_path, capsys):
        """Counted from the config, before any scene is generated: 100,000
        default scenes fit, 100,000 scenes of 100 roads and 100 agents of 100
        points each do not."""
        assert parse_config_text("data.num_scenes=100000").num_scenes == 100_000
        large = {"num_roads": (100, 100), "num_agents": (100, 100), "points_per_polyline": 100,
                 "history_steps": 100}
        with pytest.raises(FieldError, match=r"^num_scenes: 100000 scenes of up to 20100 token"):
            RunConfig(data=GeneratorConfig(**large), model=GolferConfig(), train=TrainConfig(),
                      num_scenes=100_000)
        cfg = tmp_path / "large.cfg"
        cfg.write_text("data.num_scenes=100000\n" + "".join(
            f"data.{key}=100\n" for key in ("num_roads_min", "num_roads_max", "num_agents_min",
                                             "num_agents_max", "points_per_polyline",
                                             "history_steps")))
        assert main(["generate-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("config error: data.num_scenes: 100000 scenes of")
        assert not (tmp_path / "x").exists()

    def test_heads_divisibility_checked(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config_text("model.d=30\nmodel.heads=4")

    def test_default_echo_is_byte_exact(self):
        assert echo_config(parse_config_text("")) == DEFAULT_ECHO
        assert set(VALID_VALUES) == {line.split("=")[0] for line in DEFAULT_ECHO.splitlines()}

    @settings(max_examples=400, deadline=None)
    @given(ruled_key_values())
    def test_the_cli_and_the_dataclasses_refuse_the_same_values(self, key_value):
        """A key's value is refused exactly when its section's dataclass,
        built with that value and every other field at its default, refuses
        it, and the CLI's message is the dataclass's with the key in place of
        the field (a run config is built with default sections)."""
        key, value = key_value
        cls, name, index, field = RULED_KEYS[key]
        if index is not None:
            value = tuple(value if i == index else end for i, end in enumerate(field.default))
        elif field.type == "tuple[int, ...]":
            value = (value,)
        sections = (dict(data=GeneratorConfig(), model=GolferConfig(), train=TrainConfig())
                    if cls is RunConfig else {})
        try:
            cls(**sections, **{name: value})
            refused = None
        except ValueError as exc:
            refused = exc
        try:
            parse_config_text(f"{key}={key_value[1]}")
            message = None
        except ConfigError as exc:
            message = str(exc)
        if refused is None:
            assert message is None, (key, key_value[1])
        elif key == "model.activation":  # its parser refuses an unknown name in its own words
            assert message == f"{key}: expected one of ('gelu', 'relu'), got {value!r}"
        elif isinstance(refused, FieldError):  # an empty pair is named by its max key
            named = next(k for k, (section, n, i, _) in _KEYS.items()
                         if _SECTIONS[section] is cls and n == name and i == refused.end)
            assert message == f"{named}: {refused.reason}", (key, key_value[1])
        else:  # the model's heads and arena budget checks
            assert message == f"model: {refused}", (key, key_value[1])

    @pytest.mark.parametrize("name, value, message", [
        ("ensemble_k", 0, "ensemble_k: value 0 out of range"),
        ("threshold_m", math.inf, "threshold_m: value inf out of range"),
        ("num_scenes", 100_001, "num_scenes: value 100001 out of range"),
    ])
    def test_a_run_config_names_a_refused_field(self, name, value, message):
        with pytest.raises(FieldError, match=f"^{re.escape(message)}$"):
            RunConfig(data=GeneratorConfig(), model=GolferConfig(), train=TrainConfig(),
                      **{name: value})

    def test_no_field_of_a_run_config_can_be_reassigned(self):
        cfg = parse_config_text("")
        for f in fields(cfg):
            with pytest.raises(FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    @pytest.mark.parametrize("text, message", [
        ("data.num_roads_min=9\ndata.dt=0", "data.num_roads_max: range (9, 8) is empty"),
        ("data.num_scenes=0\nmodel.d=0", "model.d: value 0 out of range"),
    ])
    def test_errors_are_named_in_section_order(self, text, message):
        """The data, model and train sections are checked before the run's own
        keys, and each section's fields in declaration order."""
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config_text(text)

    @settings(max_examples=300, deadline=None)
    @given(valid_config_texts())
    def test_echo_reparses_and_is_a_fixed_point(self, text):
        cfg = parse_config_text(text)
        echoed = echo_config(cfg)
        again = parse_config_text(echoed)
        assert again == cfg
        assert echo_config(again) == echoed


def _run(tmp_path, tiny_config, *extra):
    return main(list(extra))


class TestCliPipeline:
    def test_full_pipeline(self, tmp_path, tiny_config, capsys):
        data = str(tmp_path / "scenes.jsonl")
        model = str(tmp_path / "model.mnmg")
        preds = str(tmp_path / "preds.jsonl")

        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        scenes = read_dataset(data)
        assert len(scenes) == 6

        assert main(["train", "--config", tiny_config, "--data", data, "--out", model]) == 0
        trace_lines = open(model + ".trace").read().splitlines()
        assert len(trace_lines) == 6  # one epoch, six samples
        first = json.loads(trace_lines[0])
        assert set(first) == {"epoch", "step", "regression_nll", "classification_ce", "total"}

        assert main(["evaluate", "--config", tiny_config, "--data", data, "--model", model]) == 0
        out = capsys.readouterr().out
        metric_lines = [l for l in out.splitlines() if l.startswith("metrics ")]
        baseline_lines = [l for l in out.splitlines() if l.startswith("constant_velocity_baseline ")]
        assert metric_lines and baseline_lines
        record = json.loads(metric_lines[-1].split(" ", 1)[1])
        assert set(record) == {"num_samples", "minADE", "minFDE", "miss_rate", "k", "threshold_m"}
        assert record["num_samples"] == 6

        assert main(["predict", "--config", tiny_config, "--data", data,
                     "--model", model, "--out", preds]) == 0
        records = [json.loads(line) for line in open(preds).read().splitlines()]
        assert len(records) == 6 * 2  # scenes x modes
        assert set(records[0]) == {"scene_id", "mode", "prob", "points"}
        assert len(records[0]["points"]) == 4

        model_b = str(tmp_path / "model_b.mnmg")
        assert main(["train", "--config", tiny_config, "--data", data,
                     "--out", model_b, "--seed", "1"]) == 0
        ens = str(tmp_path / "ens.jsonl")
        assert main(["ensemble", "--config", tiny_config, "--data", data,
                     "--model", model, "--model", model_b, "--out", ens]) == 0
        ens_records = [json.loads(line) for line in open(ens).read().splitlines()]
        assert len(ens_records) == 6 * 3

    def test_generate_is_byte_deterministic(self, tmp_path, tiny_config):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["generate-data", "--config", tiny_config, "--out", a]) == 0
        assert main(["generate-data", "--config", tiny_config, "--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_override_changes_the_dataset(self, tmp_path, tiny_config):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["generate-data", "--config", tiny_config, "--out", a]) == 0
        assert main(["generate-data", "--config", tiny_config, "--out", b, "--seed", "7"]) == 0
        assert open(a, "rb").read() != open(b, "rb").read()

    def test_ensemble_seed_flag_overrides_the_config(self, tmp_path, tiny_config, capsys):
        data = str(tmp_path / "scenes.jsonl")
        models = [str(tmp_path / "a.mnmg"), str(tmp_path / "b.mnmg")]
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        for seed, model in enumerate(models):
            assert main(["train", "--config", tiny_config, "--data", data, "--out", model,
                         "--seed", str(seed)]) == 0
        capsys.readouterr()
        assert main(["ensemble", "--config", tiny_config, "--data", data, "--model", models[0],
                     "--model", models[1], "--seed", "11"]) == 0
        assert "ensemble.seed=11" in capsys.readouterr().out.splitlines()

    def test_echoed_config_reparses_to_the_same_effective_config(self, tiny_config, capsys, tmp_path):
        data = str(tmp_path / "d.jsonl")
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        out = capsys.readouterr().out
        echoed = "\n".join(l for l in out.splitlines() if "=" in l)
        assert parse_config_text(echoed) == parse_config(tiny_config)

    def test_generate_data_holds_one_scene_at_a_time(self, tmp_path, capsys):
        """`generate-data` writes each scene as it is generated: its traced
        peak does not grow with the number of scenes."""
        scenes_config = ("data.num_roads_min=2\ndata.num_roads_max=2\ndata.num_agents_min=1\n"
                         "data.num_agents_max=1\ndata.points_per_polyline=4\n"
                         "data.history_steps=4\ndata.horizon=4\n")
        peaks = []
        for count in (64, 1024):
            cfg = tmp_path / f"{count}.cfg"
            cfg.write_text(scenes_config + f"data.num_scenes={count}\n")
            out = str(tmp_path / f"{count}.jsonl")
            tracemalloc.start()
            try:
                assert main(["generate-data", "--config", str(cfg), "--out", out]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert f"wrote {count} scenes to {out}" in capsys.readouterr().err
            assert len(read_dataset(out)) == count
        assert peaks[1] - peaks[0] < 0.5 * 2**20, peaks


class TestCliErrors:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train.mask_ratio=2.0\n")
        assert main(["generate-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "train.mask_ratio" in capsys.readouterr().err

    def test_non_finite_config_float_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "inf.cfg"
        cfg.write_text("data.num_scenes=2\ndata.speed_max=inf\n")
        assert main(["generate-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "data.speed_max" in err and "Traceback" not in err

    @pytest.mark.parametrize("line, message", [
        ("data.num_scenes=100001", "data.num_scenes: value 100001 out of range"),
        (f"model.d={10**20}", "model: at least 3200000000000000000000 parameters"),
    ])
    def test_a_config_too_big_for_memory_exits_2(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(line + "\n")
        assert main(["generate-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    def test_a_range_wider_than_a_float_names_its_low_end_and_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "wide.cfg"
        for pair in ("data.speed_min=-1e308\ndata.speed_max=1e308",
                     "data.curvature_min=-1e308\ndata.curvature_max=1e308"):
            cfg.write_text(f"data.num_scenes=2\n{pair}\n")
            assert main(["generate-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            low_key = pair.split("=")[0]
            assert f"{low_key}: value -1e+308 out of range" in err and "Traceback" not in err

    def test_generator_value_beyond_its_physical_bound_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "huge.cfg"
        for lines, key in (("data.speed_max=1e308", "data.speed_max"),
                           ("data.speed_min=1e300\ndata.speed_max=1e300", "data.speed_min"),
                           ("data.speed_min=-101.0", "data.speed_min"),
                           ("data.curvature_max=1e308", "data.curvature_max"),
                           ("data.curvature_min=-2.0", "data.curvature_min"),
                           ("data.dt=1e308", "data.dt"),
                           ("data.noise_scale=1e308", "data.noise_scale")):
            cfg.write_text(f"data.num_scenes=2\n{lines}\n")
            assert main(["generate-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
            err = capsys.readouterr().err
            assert f"{key}: value" in err and "out of range" in err and "Traceback" not in err

    def test_empty_config_range_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("data.num_roads_min=5\ndata.num_roads_max=4\n")
        assert main(["generate-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "data.num_roads_max: range (5, 4) is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate-data", "train", "ensemble"])
    @pytest.mark.parametrize("seed", ["-1", "seven"])
    def test_a_seed_flag_that_is_not_a_non_negative_integer_exits_2(self, tmp_path, capsys,
                                                                    command, seed):
        files = {"generate-data": [], "train": ["--data", "d"],
                 "ensemble": ["--data", "d", "--model", "m"]}[command]
        with pytest.raises(SystemExit) as exit_info:
            main([command, *files, "--out", str(tmp_path / "x"), "--seed", seed])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --seed: expected a non-negative integer, got '{seed}'" in captured.err

    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_a_second_model_flag_of_a_one_model_command_exits_2(self, tmp_path, capsys, command):
        """Refused before any file is read: none of these files exist."""
        out = ["--out", str(tmp_path / "x")] if command == "predict" else []
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--data", "d", "--model", "m", "--model", "no_such.mnmg", *out])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --model: {command} takes one model, got 2" in captured.err

    def test_scene_without_a_valid_future_step_exits_1(self, tmp_path, tiny_config, capsys):
        data = str(tmp_path / "scenes.jsonl")
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        scenes = read_dataset(data)
        scenes[2].future_mask[:] = False
        write_dataset(scenes, data)
        capsys.readouterr()
        code = main(["train", "--config", tiny_config, "--data", data,
                     "--out", str(tmp_path / "m.mnmg")])
        err = capsys.readouterr().err
        assert code == 1
        assert "scene 2" in err and "Traceback" not in err

    def test_missing_data_file_exits_1(self, tmp_path, tiny_config, capsys):
        code = main(["train", "--config", tiny_config,
                     "--data", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "m.mnmg")])
        assert code == 1
        assert capsys.readouterr().err

    def test_an_undecodable_data_file_exits_1(self, tmp_path, tiny_config, capsys):
        data = tmp_path / "scenes.jsonl"
        assert main(["generate-data", "--config", tiny_config, "--out", str(data)]) == 0
        raw = data.read_bytes()
        data.write_bytes(raw[:-100] + b"\xff" + raw[-99:])
        capsys.readouterr()
        code = main(["train", "--config", tiny_config, "--data", str(data),
                     "--out", str(tmp_path / "m.mnmg")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff in position ")
        assert "Traceback" not in err

    def test_ensemble_k_exceeding_modes_exits_2(self, tmp_path, tiny_config, capsys):
        data = str(tmp_path / "scenes.jsonl")
        model = str(tmp_path / "model.mnmg")
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        assert main(["train", "--config", tiny_config, "--data", data, "--out", model]) == 0
        cfg2 = tmp_path / "bigk.cfg"
        cfg2.write_text(TINY_CONFIG + "\nensemble.k=5\n")
        code = main(["ensemble", "--config", str(cfg2), "--data", data,
                     "--model", model, "--out", str(tmp_path / "e.jsonl")])
        assert code == 2
        assert "ensemble.k" in capsys.readouterr().err

    def test_horizon_mismatch_exits_1(self, tmp_path, tiny_config, capsys):
        data = str(tmp_path / "scenes.jsonl")
        model = str(tmp_path / "model.mnmg")
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        assert main(["train", "--config", tiny_config, "--data", data, "--out", model]) == 0
        other_cfg = tmp_path / "other.cfg"
        other_cfg.write_text(TINY_CONFIG.replace("data.horizon=4", "data.horizon=8"))
        other_data = str(tmp_path / "other.jsonl")
        assert main(["generate-data", "--config", str(other_cfg), "--out", other_data]) == 0
        assert main(["evaluate", "--config", str(other_cfg), "--data", other_data,
                     "--model", model]) == 1
        assert "horizon" in capsys.readouterr().err

    def test_mixed_horizon_dataset_exits_1(self, tmp_path, tiny_config, capsys):
        data = str(tmp_path / "scenes.jsonl")
        model = str(tmp_path / "model.mnmg")
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        assert main(["train", "--config", tiny_config, "--data", data, "--out", model]) == 0
        long_cfg = tmp_path / "long.cfg"
        long_cfg.write_text(TINY_CONFIG.replace("data.horizon=4", "data.horizon=8"))
        long_data = str(tmp_path / "long.jsonl")
        assert main(["generate-data", "--config", str(long_cfg), "--out", long_data]) == 0
        mixed = tmp_path / "mixed.jsonl"
        long_scene = open(long_data).read().splitlines()[1]
        mixed.write_text(open(data).read() + long_scene + "\n")  # scene 6 has horizon 8
        capsys.readouterr()
        commands = [
            ["train", "--out", str(tmp_path / "m2.mnmg")],
            ["evaluate", "--model", model],
            ["predict", "--model", model, "--out", str(tmp_path / "p.jsonl")],
            ["ensemble", "--model", model, "--model", model],
        ]
        for command in commands:
            code = main([*command, "--config", tiny_config, "--data", str(mixed)])
            err = capsys.readouterr().err
            assert code == 1, command[0]
            assert "scene 6" in err and "horizon 8" in err and "Traceback" not in err

    @pytest.mark.parametrize("config_blob", [
        b"[1,2]",
        b'"x"',
        b'{"d": 64}',
        b'{"decoder_hidden": [128], "bogus": 1}',
        json.dumps({**asdict(GolferConfig()), "bogus": 1}).encode(),
        b"{",
        b"\xff",
    ], ids=["list", "string", "missing-keys", "unknown-key", "extra-key", "bad-json", "bad-utf8"])
    def test_corrupt_embedded_model_config_exits_1(self, tmp_path, tiny_config, capsys,
                                                   config_blob):
        data = str(tmp_path / "scenes.jsonl")
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        model = tmp_path / "corrupt.mnmg"
        model.write_bytes(MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(config_blob))
                          + config_blob)
        with pytest.raises(ModelFormatError, match=re.escape(f"{model}: bad embedded config")):
            load_params(model)
        capsys.readouterr()
        assert main(["evaluate", "--config", tiny_config, "--data", data,
                     "--model", str(model)]) == 1
        err = capsys.readouterr().err
        assert str(model) in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [
        ("d", 16.0), ("seed", -1), ("heads", True), ("k_modes", "3"), ("decoder_hidden", [16.5]),
        ("position_scale", "10"), ("log_sigma_scale", float("nan")), ("interact_proj", 1),
        ("d_ff", -5), ("horizon", 0), ("interact_depth", 0), ("log_sigma_scale", 0.0),
        ("heads", 3), ("d", 0),
    ])
    def test_mistyped_embedded_model_config_value_is_named(self, tmp_path, tiny_config, capsys,
                                                           key, value):
        data = str(tmp_path / "scenes.jsonl")
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        blob = json.dumps({**asdict(GolferConfig()), key: value}).encode()
        model = tmp_path / "mistyped.mnmg"
        model.write_bytes(MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(blob)) + blob)
        with pytest.raises(ModelFormatError,
                           match=re.escape(f"{model}: bad embedded config: {key}")):
            load_params(model)
        capsys.readouterr()
        assert main(["evaluate", "--config", tiny_config, "--data", data,
                     "--model", str(model)]) == 1
        err = capsys.readouterr().err
        assert f"{model}: bad embedded config: {key}" in err and "Traceback" not in err

    def test_an_embedded_model_config_over_the_budget_is_a_format_error(self, tmp_path):
        blob = json.dumps({**asdict(GolferConfig()), "d_ff": 10**20}).encode()
        model = tmp_path / "huge.mnmg"
        model.write_bytes(MODEL_MAGIC + struct.pack("<II", MODEL_VERSION, len(blob)) + blob)
        with pytest.raises(ModelFormatError,
                           match=re.escape(f"{model}: bad embedded config: at least ")):
            load_params(model)

    def test_gradcheck_failure_exits_nonzero(self, monkeypatch, capsys):
        import golfer.cli as cli_mod
        from golfer.gradcheck import CheckResult

        monkeypatch.setattr(cli_mod, "run_gradient_suite",
                            lambda: [CheckResult("fake", 1.0, 1e-4)])
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gradcheck_success_exits_zero(self, monkeypatch, capsys):
        import golfer.cli as cli_mod
        from golfer.gradcheck import CheckResult

        monkeypatch.setattr(cli_mod, "run_gradient_suite",
                            lambda: [CheckResult("fake", 1e-9, 1e-4)])
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out


class TestCliDeterminism:
    def test_train_and_predict_are_byte_deterministic(self, tmp_path, tiny_config):
        data = str(tmp_path / "scenes.jsonl")
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        outputs = []
        for tag in ("a", "b"):
            model = str(tmp_path / f"{tag}.mnmg")
            preds = str(tmp_path / f"{tag}_preds.jsonl")
            assert main(["train", "--config", tiny_config, "--data", data, "--out", model]) == 0
            assert main(["predict", "--config", tiny_config, "--data", data,
                         "--model", model, "--out", preds]) == 0
            outputs.append((open(model, "rb").read(), open(preds, "rb").read(),
                            open(model + ".trace", "rb").read()))
        assert outputs[0] == outputs[1]
