import json

import numpy as np
import pytest

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
    write_dataset,
)

FULLY_MASKED_FRACTION = 0.85 ** 16  # ~0.0743


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestGoalMasking:
    def test_full_mask_ratio_hides_everything(self):
        future = _rng(0).normal(size=(16, 2))
        gc = apply_goal_masking(future, _rng(1), mask_ratio=1.0)
        assert not gc.step_mask.any()
        assert gc.exclusion_index is None
        assert (gc.masked_future == 0.0).all()

    def test_at_most_one_unmasked_step(self):
        future = _rng(2).normal(size=(16, 2))
        rng = _rng(3)
        for _ in range(100_000):
            gc = apply_goal_masking(future, rng, mask_ratio=0.85)
            assert gc.step_mask.sum() <= 1

    def test_fully_masked_fraction_matches_bernoulli_product(self):
        future = np.zeros((16, 2))
        rng = _rng(4)
        hidden = sum(
            1 for _ in range(10_000)
            if not apply_goal_masking(future, rng, 0.85).step_mask.any()
        )
        assert abs(hidden / 10_000 - FULLY_MASKED_FRACTION) < 0.01

    def test_placement_coin_is_fair(self):
        future = np.zeros((16, 2))
        rng = _rng(5)
        agents = sum(
            1 for _ in range(10_000)
            if apply_goal_masking(future, rng, 0.85).placement == "agents"
        )
        assert abs(agents / 10_000 - 0.5) < 0.02

    def test_exclusion_index_points_at_the_visible_step(self):
        future = _rng(6).normal(size=(16, 2))
        rng = _rng(7)
        seen_visible = 0
        for _ in range(2_000):
            gc = apply_goal_masking(future, rng, 0.5)
            if gc.step_mask.any():
                seen_visible += 1
                assert gc.step_mask[gc.exclusion_index]
            else:
                assert gc.exclusion_index is None
        assert seen_visible > 0

    def test_mask_ratio_out_of_range(self):
        with pytest.raises(ValueError, match="mask_ratio"):
            apply_goal_masking(np.zeros((4, 2)), _rng(8), 1.5)

    def test_conditioning_rejects_two_visible_steps(self):
        with pytest.raises(ValueError, match="at most one"):
            GoalConditioning(
                masked_future=np.zeros((4, 2)),
                step_mask=np.array([True, True, False, False]),
                placement="agents",
                exclusion_index=0,
            )


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
            gc = apply_goal_masking(future, rng, 0.6)
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


class TestDatasetIO:
    def test_round_trip_is_exact(self, tmp_path):
        scenes = generate_dataset(GeneratorConfig(seed=18), 100)
        path = tmp_path / "scenes.jsonl"
        write_dataset(scenes, path)
        loaded = read_dataset(path)
        assert len(loaded) == len(scenes)
        for a, b in zip(scenes, loaded):
            assert (a.future == b.future).all()
            assert (a.future_mask == b.future_mask).all()
            assert (a.ego.tokens == b.ego.tokens).all()
            assert len(a.agents) == len(b.agents)
            for ea, eb in zip(a.roads, b.roads):
                assert (ea.tokens == eb.tokens).all()
                assert (ea.mask == eb.mask).all()
                assert (ea.context == eb.context).all()

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
