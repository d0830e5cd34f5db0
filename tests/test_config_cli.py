import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golfer.cli import main
from golfer.config import ConfigError, echo_config, parse_config, parse_config_text
from golfer.scene import read_dataset

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
# stays on its side of the other half's default, and model.d is a multiple of
# every heads value, so any subset of the keys is a valid config.
VALID_VALUES = {
    "data.seed": _ints(0, 2**32 - 1),
    "data.num_scenes": _ints(1, 10**6),
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

    def test_heads_divisibility_checked(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config_text("model.d=30\nmodel.heads=4")

    def test_default_echo_is_byte_exact(self):
        assert echo_config(parse_config_text("")) == DEFAULT_ECHO
        assert set(VALID_VALUES) == {line.split("=")[0] for line in DEFAULT_ECHO.splitlines()}

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

    def test_echoed_config_reparses_to_the_same_effective_config(self, tiny_config, capsys, tmp_path):
        data = str(tmp_path / "d.jsonl")
        assert main(["generate-data", "--config", tiny_config, "--out", data]) == 0
        out = capsys.readouterr().out
        echoed = "\n".join(l for l in out.splitlines() if "=" in l)
        assert parse_config_text(echoed) == parse_config(tiny_config)


class TestCliErrors:
    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("train.mask_ratio=2.0\n")
        assert main(["generate-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "train.mask_ratio" in capsys.readouterr().err

    def test_missing_data_file_exits_1(self, tmp_path, tiny_config, capsys):
        code = main(["train", "--config", tiny_config,
                     "--data", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "m.mnmg")])
        assert code == 1
        assert capsys.readouterr().err

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
