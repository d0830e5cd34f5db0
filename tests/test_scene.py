import dataclasses
import functools
import hashlib
import json
import operator
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from golfer.scene import (
    FormatError,
    GeneratorConfig,
    GoalConditioning,
    ParseError,
    Scene,
    apply_goal_masking,
    constant_velocity_baseline,
    encode_goal_element,
    generate_dataset,
    generate_synthetic_scene,
    prediction_conditioning,
    read_dataset,
    to_json_text,
    write_dataset,
)
from oracles import ref_json_text

FULLY_MASKED_FRACTION = 0.85 ** 16  # ~0.0743
ALL_VALID = np.ones(16, dtype=bool)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestGoalMasking:
    def test_full_mask_ratio_hides_everything(self):
        future = _rng(0).normal(size=(16, 2))
        gc = apply_goal_masking(future, _rng(1), mask_ratio=1.0, valid=ALL_VALID)
        assert not gc.step_mask.any()
        assert gc.exclusion_index is None
        assert (gc.masked_future == 0.0).all()

    def test_at_most_one_unmasked_step(self):
        future = _rng(2).normal(size=(16, 2))
        rng = _rng(3)
        for _ in range(100_000):
            gc = apply_goal_masking(future, rng, mask_ratio=0.85, valid=ALL_VALID)
            assert gc.step_mask.sum() <= 1

    def test_fully_masked_fraction_matches_bernoulli_product(self):
        future = np.zeros((16, 2))
        rng = _rng(4)
        hidden = sum(
            1 for _ in range(10_000)
            if not apply_goal_masking(future, rng, 0.85, ALL_VALID).step_mask.any()
        )
        assert abs(hidden / 10_000 - FULLY_MASKED_FRACTION) < 0.01

    def test_placement_coin_is_fair(self):
        future = np.zeros((16, 2))
        rng = _rng(5)
        agents = sum(
            1 for _ in range(10_000)
            if apply_goal_masking(future, rng, 0.85, ALL_VALID).placement == "agents"
        )
        assert abs(agents / 10_000 - 0.5) < 0.02

    def test_exclusion_index_points_at_the_visible_step(self):
        future = _rng(6).normal(size=(16, 2))
        rng = _rng(7)
        seen_visible = 0
        for _ in range(2_000):
            gc = apply_goal_masking(future, rng, 0.5, ALL_VALID)
            if gc.step_mask.any():
                seen_visible += 1
                assert gc.step_mask[gc.exclusion_index]
            else:
                assert gc.exclusion_index is None
        assert seen_visible > 0

    def test_all_valid_draws_are_pinned(self):
        # The first 24 draws at ratio 0.9 with an all-valid mask, as drawn
        # before validity was taken into account.
        expected = [2, 12, 10, 14, 12, 2, None, 0, 2, 9, 14, 8, 14, 14, None, None, None, 6, 3,
                    None, 7, 0, None, 14]
        rng = _rng(16)
        draws = [apply_goal_masking(np.zeros((16, 2)), rng, 0.9, ALL_VALID) for _ in range(24)]
        assert [gc.exclusion_index for gc in draws] == expected
        assert "".join(gc.placement[0] for gc in draws) == "aarrrarraaaaaaaarrraaara"

    def test_reveals_only_valid_steps(self):
        future = _rng(10).normal(size=(16, 2))
        valid = np.ones(16, dtype=bool)
        valid[[0, 3, 7, 8, 12, 15]] = False
        rng = _rng(11)
        revealed = 0
        for _ in range(1_000):
            gc = apply_goal_masking(future, rng, 0.5, valid)
            assert not (gc.step_mask & ~valid).any()
            revealed += int(gc.step_mask.any())
        assert revealed > 0

    def test_a_lone_valid_step_is_never_revealed(self):
        future = _rng(12).normal(size=(16, 2))
        valid = np.zeros(16, dtype=bool)
        valid[5] = True
        rng = _rng(13)
        for _ in range(200):
            gc = apply_goal_masking(future, rng, 0.0, valid)
            assert not gc.step_mask.any() and gc.exclusion_index is None

    def test_mask_ratio_out_of_range(self):
        with pytest.raises(ValueError, match="mask_ratio"):
            apply_goal_masking(np.zeros((4, 2)), _rng(8), 1.5, np.ones(4, dtype=bool))

    def test_conditioning_rejects_two_visible_steps(self):
        with pytest.raises(ValueError, match="at most one"):
            GoalConditioning(
                masked_future=np.zeros((4, 2)),
                step_mask=np.array([True, True, False, False]),
                placement="agents",
                exclusion_index=0,
            )


    @pytest.mark.parametrize("field, masked_future, step_mask", [
        ("masked_future", np.zeros((4, 3)), np.zeros(4, dtype=bool)),
        ("masked_future", np.zeros(4), np.zeros(4, dtype=bool)),
        ("masked_future", np.zeros((0, 2)), np.zeros(0, dtype=bool)),
        ("masked_future", np.array([[0.0, 0.0], [np.nan, 0.0]]), np.zeros(2, dtype=bool)),
        ("masked_future", np.array([[np.inf, 0.0], [0.0, 0.0]]), np.array([True, False])),
        ("step_mask", np.zeros((4, 2)), np.zeros(3, dtype=bool)),
        ("step_mask", np.zeros((4, 2)), np.zeros((4, 1), dtype=bool)),
    ], ids=["three-columns", "flat", "no-steps", "nan", "inf-visible", "short-mask", "2d-mask"])
    def test_conditioning_names_a_malformed_field(self, field, masked_future, step_mask):
        visible = np.flatnonzero(step_mask)
        with pytest.raises(ValueError, match=f"^{field}"):
            GoalConditioning(masked_future=masked_future, step_mask=step_mask, placement="agents",
                             exclusion_index=int(visible[0]) if visible.size == 1 else None)

    def test_no_field_of_a_conditioning_can_be_reassigned(self):
        gc = apply_goal_masking(np.ones((4, 2)), _rng(3), 0.5, np.ones(4, dtype=bool))
        for name, value in (("placement", "sky"), ("step_mask", np.ones(4, dtype=bool)),
                            ("masked_future", np.zeros((4, 2))), ("exclusion_index", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(gc, name, value)

    def test_a_conditioning_s_arrays_are_read_only(self):
        gc = prediction_conditioning(4)
        with pytest.raises(ValueError, match="read-only"):
            gc.step_mask[0] = True
        with pytest.raises(ValueError, match="read-only"):
            gc.masked_future[0] = (1.0, 2.0)

    def test_a_conditioning_copies_a_view_of_a_caller_s_array(self):
        future = np.zeros((2, 4, 2))
        gc = GoalConditioning(masked_future=future[0], step_mask=np.zeros(4, dtype=bool),
                              placement="roads", exclusion_index=None)
        future[0, 0] = (5.0, 6.0)
        assert (gc.masked_future == 0.0).all() and future.flags.writeable


class TestGoalElement:
    def test_fully_masked_element_is_all_zero(self):
        gc = prediction_conditioning(16)
        element = encode_goal_element(gc)
        assert element.kind == "goal"
        assert (element.tokens[:, 0:3] == 0.0).all()
        assert element.mask.all()

    def test_single_visible_step_layout(self):
        t, horizon = 5, 16
        step_mask = np.zeros(horizon, dtype=bool)
        step_mask[t] = True
        masked = np.zeros((horizon, 2))
        masked[t] = (3.0, 4.0)
        gc = GoalConditioning(masked_future=masked, step_mask=step_mask,
                              placement="roads", exclusion_index=t)
        element = encode_goal_element(gc)
        assert (element.tokens[t, 0:4] == [3.0, 4.0, 1.0, t / horizon]).all()
        others = np.delete(element.tokens, t, axis=0)
        assert (others[:, 0:4] == 0.0).all()

    def test_visible_steps_round_trip(self):
        rng = _rng(9)
        future = rng.normal(size=(16, 2)) * 20
        for _ in range(50):
            gc = apply_goal_masking(future, rng, 0.6, ALL_VALID)
            element = encode_goal_element(gc)
            visible = element.tokens[:, 2] == 1.0
            assert (visible == gc.step_mask).all()
            assert (element.tokens[visible, 0:2] == gc.masked_future[visible]).all()


class TestGenerator:
    def test_same_seed_gives_identical_scenes(self, tmp_path):
        cfg = GeneratorConfig(seed=13)
        a = generate_synthetic_scene(cfg, _rng(99))
        b = generate_synthetic_scene(cfg, _rng(99))
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset([a], pa)
        write_dataset([b], pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_step_displacement_bound(self):
        cfg = GeneratorConfig(seed=14)
        v_max, dt, noise = cfg.speed_range[1], cfg.dt, cfg.noise_scale
        bound = v_max * dt + 4.0 * noise + 1e-9
        for scene in generate_dataset(cfg, 20):
            steps = np.linalg.norm(np.diff(scene.future, axis=0), axis=1)
            assert (steps <= bound).all()

    def test_zero_noise_straight_roads_extrapolate_exactly(self):
        cfg = GeneratorConfig(seed=15, noise_scale=0.0, curvature_range=(0.0, 0.0))
        for i, scene in enumerate(generate_dataset(cfg, 10)):
            history = scene.ego.tokens[scene.ego.mask, 0:2]
            step = history[-1] - history[-2]
            expected = history[-1] + np.arange(1, scene.horizon + 1)[:, None] * step
            np.testing.assert_allclose(scene.future, expected, atol=1e-9,
                                       err_msg=f"scene {i}")
            np.testing.assert_allclose(constant_velocity_baseline(scene), expected,
                                       atol=1e-9)

    def test_ego_frame(self):
        for scene in generate_dataset(GeneratorConfig(seed=16), 10):
            current = scene.ego.tokens[scene.ego.mask, 0:2][-1]
            np.testing.assert_allclose(current, 0.0, atol=1e-9)

    def test_generate_dataset_is_deterministic(self, tmp_path):
        cfg = GeneratorConfig(seed=17)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_dataset(generate_dataset(cfg, 8), pa)
        write_dataset(generate_dataset(cfg, 8), pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("speed_range", (5.0, 1e308)), ("dt", 1e308), ("curvature_range", (0.0, 1e308)),
        ("noise_scale", 1e308), ("speed_range", (float("nan"), 5.0)), ("dt", 0.0),
        ("noise_scale", -1.0),
    ])
    def test_a_value_beyond_its_physical_bound_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: value .* out of range$"):
            generate_dataset(GeneratorConfig(**{field: value}), 2)

    @pytest.mark.parametrize("field, value", [
        ("num_roads", (1, 1001)), ("num_agents", (0, 10**20)), ("points_per_polyline", 1001),
        ("history_steps", 10**20), ("horizon", 10**20),
    ])
    def test_a_count_above_1000_names_the_field(self, field, value):
        """Refused when the config is built, before any scene is generated."""
        most = (1000, 1000) if isinstance(value, tuple) else 1000
        assert getattr(GeneratorConfig(**{field: most}), field) == most
        with pytest.raises(ValueError, match=f"^{field}: value .* out of range$"):
            GeneratorConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("seed", -1), ("num_agents", (-3, -1))])
    def test_a_negative_seed_or_count_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: value .* out of range$"):
            generate_dataset(GeneratorConfig(**{field: value}), 2)

    @pytest.mark.parametrize("field, value, expected", [
        ("num_roads", (1.5, 3), "a (min, max) pair of integers"), ("seed", 2.0, "an integer"),
        ("seed", True, "an integer"), ("speed_range", [5.0, 15.0], "a (min, max) pair of numbers"),
        ("dt", "0.5", "a number"),
    ])
    def test_a_mistyped_value_names_the_field(self, field, value, expected):
        with pytest.raises(ValueError, match="^" + re.escape(f"{field}: expected {expected}, got")):
            generate_dataset(GeneratorConfig(**{field: value}), 2)

    def test_no_field_of_a_generator_config_can_be_reassigned(self):
        cfg = GeneratorConfig()
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))


class TestDatasetIO:
    def test_round_trip_is_exact(self, tmp_path):
        scenes = generate_dataset(GeneratorConfig(seed=18), 100)
        path = tmp_path / "scenes.jsonl"
        write_dataset(scenes, path)
        loaded = read_dataset(path)
        assert len(loaded) == len(scenes)
        for i, (a, b) in enumerate(zip(scenes, loaded)):
            _assert_bitwise_equal(a, b, f"scene {i}")

    @pytest.mark.parametrize("config, digest", [
        (GeneratorConfig(), "7e59e60afea0844bf4c80a2b03eff2f591deff4b9cded8f70ee97e3a7f9d9fb7"),
        (GeneratorConfig(num_roads=(16, 24), num_agents=(8, 12)),
         "0ebab4b4a4f587f961440302467325525ca98e821b063af698326aaa5ed62073"),
    ], ids=["default", "crowded"])
    def test_dataset_file_bytes_are_pinned(self, tmp_path, config, digest):
        """Dataset files are pinned byte for byte: neither the generator nor
        the formatter may move them."""
        path = tmp_path / "scenes.jsonl"
        write_dataset(generate_dataset(config, 8), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("where, edit, field", [
        (("roads", 0, "mask"), lambda m: [2, 0.5, *m[2:]], "roads[0]: mask"),
        (("ego", "mask"), lambda m: [1] * len(m), "ego: mask"),
        (("future_mask",), lambda m: [7, *m[1:]], "future_mask"),
        (("agents", 0, "tokens"), lambda t: [["12.5", *t[0][1:]], *t[1:]], "agents[0]: tokens"),
        (("agents", 0, "tokens"), lambda t: [[v != 0 for v in row] for row in t], "agents[0]: tokens"),
        (("ego", "context"), lambda c: [True] * len(c), "ego: context"),
        (("roads", 1, "context"), lambda c: [None, *c[1:]], "roads[1]: context"),
        (("future",), lambda f: [[str(v) for v in row] for row in f], "future"),
        (("agents", 0, "tokens"), lambda t: [[True, *t[0][1:]], *t[1:]], "agents[0]: tokens"),
        (("ego", "tokens"), lambda t: [*t[:-1], [*t[-1][:-1], False]], "ego: tokens"),
        (("roads", 1, "context"), lambda c: [*c[:3], False, *c[4:]], "roads[1]: context"),
        (("future",), lambda f: [[True, f[0][1]], *f[1:]], "future"),
    ], ids=["numbers-in-road-mask", "integer-ego-mask", "number-in-future-mask", "string-token",
            "boolean-tokens", "boolean-context", "null-in-context", "string-future",
            "boolean-among-tokens", "boolean-among-ego-tokens", "boolean-among-context",
            "boolean-among-future"])
    def test_mistyped_value_names_the_line_and_field(self, tmp_path, where, edit, field):
        scenes = generate_dataset(GeneratorConfig(seed=22), 2)
        path = tmp_path / "scenes.jsonl"
        write_dataset(scenes, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        *parents, key = where
        holder = functools.reduce(operator.getitem, parents, record)
        holder[key] = edit(holder[key])
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"line 3: .*{re.escape(field)}: expected"):
            read_dataset(path)

    def test_empty_file_is_an_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_dataset(path) == []

    def test_truncated_last_line_names_the_line(self, tmp_path):
        scenes = generate_dataset(GeneratorConfig(seed=19), 3)
        path = tmp_path / "scenes.jsonl"
        write_dataset(scenes, path)
        text = path.read_text()
        path.write_text(text[: len(text) - 40])
        with pytest.raises(ParseError, match="line 4"):
            read_dataset(path)

    def test_version_mismatch_is_a_format_error(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text('{"format":"mnm-scenes","version":99}\n')
        with pytest.raises(FormatError, match="version"):
            read_dataset(path)

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_header_version_that_only_equals_1_is_a_format_error(self, tmp_path, version):
        path = tmp_path / "scenes.jsonl"
        path.write_text('{"format":"mnm-scenes","version":' + version + '}\n')
        with pytest.raises(FormatError, match="line 1: unsupported version"):
            read_dataset(path)

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_record_version_that_only_equals_1_is_a_format_error(self, tmp_path, version):
        scenes = generate_dataset(GeneratorConfig(seed=20), 2)
        path = tmp_path / "scenes.jsonl"
        write_dataset(scenes, path)
        lines = path.read_text().splitlines()
        assert lines[2].startswith('{"version":1,')
        lines[2] = '{"version":' + version + lines[2][len('{"version":1'):]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 3: record version"):
            read_dataset(path)

    def test_wrong_format_is_a_format_error(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text('{"format":"something-else","version":1}\n')
        with pytest.raises(FormatError):
            read_dataset(path)

    def test_malformed_record_names_the_line(self, tmp_path):
        scenes = generate_dataset(GeneratorConfig(seed=20), 2)
        path = tmp_path / "scenes.jsonl"
        write_dataset(scenes, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"version":1,"ego":"nope"}\n')
        with pytest.raises(ParseError, match="line 4"):
            read_dataset(path)

    def test_non_finite_future_names_the_line(self, tmp_path):
        scenes = generate_dataset(GeneratorConfig(seed=21), 2)
        path = tmp_path / "scenes.jsonl"
        write_dataset(scenes, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["future"][3][1] = float("nan")
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 3.*finite"):
            read_dataset(path)
        with pytest.raises(ValueError, match="finite"):
            Scene(ego=scenes[0].ego, agents=[], roads=[],
                  future=np.full((4, 2), np.inf), future_mask=np.ones(4, dtype=bool))


    def test_ego_with_no_valid_point_names_the_line(self, tmp_path):
        scenes = generate_dataset(GeneratorConfig(seed=22), 6)
        scenes[3].ego.mask[:] = False
        path = tmp_path / "scenes.jsonl"
        write_dataset(scenes, path)
        with pytest.raises(ParseError, match="line 5.*ego has no valid point"):
            read_dataset(path)
        with pytest.raises(ValueError, match="ego has no valid point"):
            Scene(ego=scenes[3].ego, agents=[], roads=scenes[0].roads,
                  future=np.zeros((4, 2)), future_mask=np.ones(4, dtype=bool))

    def test_a_read_holds_little_beyond_its_scenes(self, tmp_path):
        """A read streams its file: its traced peak stays near the memory of
        the scenes it returns, with no copy of the whole text beside them."""
        path = tmp_path / "scenes.jsonl"
        write_dataset(generate_dataset(GeneratorConfig(seed=24), 256), path)
        tracemalloc.start()
        try:
            scenes = read_dataset(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scenes) == 256
        assert peak < 1.25 * held, (peak, held)

    @pytest.mark.parametrize("build, outcome", [
        (lambda h, r: "\r\n".join([h, *r]) + "\r\n", None),
        (lambda h, r: "\r\n".join([h, r[0], r[1], _version(r[2], 2)]) + "\r\n", (FormatError, 4)),
        (lambda h, r: "\r".join([h, *r]) + "\r", None),
        (lambda h, r: "\r".join([h, r[0], "{", r[2]]), (ParseError, 3)),
        (lambda h, r: f"\n \n{h}\n\n{r[0]}\n\t\n\n{r[1]}\n{r[2]}\n\n", None),
        (lambda h, r: f"\n{h}\n\n{r[0]}\n \n{r[1]}\n\n{r[2][:-9]}\n", (ParseError, 8)),
        (lambda h, r: f"{h}\n{r[0]}\f{r[1]}\n{r[2]}\n", None),
        (lambda h, r: f"{h}\n{r[0]}\f\n{r[1]}\n{_version(r[2], 2)}\n", (FormatError, 5)),
        (lambda h, r: f"{h}\n{r[0]}\n{r[1][:50]}\f{r[1][50:]}\n{r[2]}\n", (ParseError, 3)),
        (lambda h, r: f"{h}\u2028{r[0]}\n{r[1]}\u2028{r[2]}", None),
        (lambda h, r: f"{h}\n{r[0]}\u2028\u2028{r[1]}\n{_version(r[2], 2)}\n", (FormatError, 5)),
        (lambda h, r: f"{h}\n{r[0]}\n{r[1]}\n{r[2][:50]}\u2028{r[2][50:]}\n", (ParseError, 4)),
    ], ids=["crlf", "crlf-bad-version", "cr", "cr-malformed", "blank-lines",
            "blank-lines-truncated", "formfeed-joins-records", "formfeed-ends-a-record",
            "formfeed-splits-a-record", "u2028-joins-records", "u2028-ends-a-record",
            "u2028-splits-a-record"])
    def test_lines_are_numbered_as_the_whole_text_splits_them(self, tmp_path, build, outcome):
        """Every line break `str.splitlines` knows counts, and a CR, CRLF or LF
        ends one line: each case reads the written scenes, or names the line
        by its number in `splitlines()` of the whole text."""
        scenes = generate_dataset(GeneratorConfig(seed=25), 3)
        path = tmp_path / "scenes.jsonl"
        write_dataset(scenes, path)
        header, *records = path.read_text(encoding="utf-8").splitlines()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(build(header, records))
        if outcome is None:
            _assert_bitwise_equal(tuple(scenes), tuple(read_dataset(path)), "scenes")
            return
        error, line_no = outcome
        with pytest.raises(error, match=rf"^line {line_no}: "):
            read_dataset(path)


def _version(record: str, version: int) -> str:
    assert record.startswith('{"version":1,')
    return f'{{"version":{version},' + record[len('{"version":1,'):]


def _assert_bitwise_equal(a, b, where):
    """Every field of `a` and `b`, recursing through dataclasses, lists and
    tuples; arrays must agree in dtype, shape and bytes (so -0.0 differs
    from 0.0)."""
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b), where
        for f in dataclasses.fields(a):
            _assert_bitwise_equal(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_bitwise_equal(x, y, f"{where}[{i}]")
    elif isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
    else:
        assert a == b, where


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
                2.2250738585072014e-308, -2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308]
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats())),
    hnp.arrays(np.bool_, _SHAPES),
    hnp.arrays(st.one_of(hnp.integer_dtypes(), hnp.unsigned_integer_dtypes()), _SHAPES),
)
_JSON_VALUES = st.one_of(
    _ARRAYS,
    st.lists(_ARRAYS, max_size=3),
    st.dictionaries(st.text(max_size=4), st.one_of(_ARRAYS, st.lists(_ARRAYS, max_size=2)), max_size=3),
)


class TestJsonText:
    @settings(max_examples=300, deadline=None)
    @given(value=_JSON_VALUES, sig_digits=st.sampled_from([9, 17]))
    def test_matches_the_per_value_formatter(self, value, sig_digits):
        assert to_json_text(value, sig_digits) == ref_json_text(value, sig_digits)
