import json
import struct

import numpy as np
import pytest

from golfer.mnm import MatchKind, MixKind, init_mnm_block, mnm_query
from golfer.model import (
    GolferConfig,
    ModelFormatError,
    decode,
    encode_element,
    encode_scene,
    forward,
    init_model_params,
    interact,
    load_params,
    parameter_count,
    save_params,
)
from golfer.numerics import EmptySetError, Tape
from golfer.scene import (
    CTX_DIM,
    TOKEN_DIM,
    GeneratorConfig,
    Scene,
    SceneElement,
    generate_dataset,
    prediction_conditioning,
)

from oracles import (
    ref_decode,
    ref_encode_element,
    ref_encode_scene,
    ref_layer_norm,
    ref_max_pool,
)

TINY = GolferConfig(d=16, heads=2, fe_depth=1, interact_depth=1, k_modes=3, horizon=4,
                    d_ff=32, decoder_hidden=(16,), seed=5)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _element(seed, kind="road", points=5, invalid=()):
    rng = _rng(seed)
    mask = np.ones(points, dtype=bool)
    mask[list(invalid)] = False
    tokens = rng.normal(size=(points, TOKEN_DIM))
    tokens[~mask] = 0.0
    return SceneElement(kind=kind, tokens=tokens, mask=mask, context=rng.normal(size=CTX_DIM))


def _scene(seed, num_roads=2, num_agents=2):
    rng_seed = seed * 100
    ego = _element(rng_seed, kind="ego", points=4)
    roads = [_element(rng_seed + 1 + i, "road") for i in range(num_roads)]
    agents = [_element(rng_seed + 50 + i, "agent") for i in range(num_agents)]
    future = _rng(rng_seed + 90).normal(size=(4, 2)) * 5
    return Scene(ego=ego, agents=agents, roads=roads, future=future,
                 future_mask=np.ones(4, dtype=bool))


class TestFeBlock:
    def test_zero_weights_identity_and_pooled_context(self):
        block = init_mnm_block(_rng(0), 16, 2, 32, MixKind.MAX_POOL, MatchKind.CONCAT,
                               query_variant=True)
        block.w2.value[...] = 0.0
        block.w4.value[...] = 0.0
        for p in block.wm:
            p.value[...] = 0.0
        rng = _rng(1)
        tokens, context = rng.normal(size=(5, 16)), rng.normal(size=16)
        mask = np.array([True, True, False, True, True])
        tape = Tape()
        t_out, c_out = mnm_query(tape, tape.constant(tokens), tape.constant(context), mask, block)
        assert (t_out.value == tokens).all()
        expected = ref_max_pool(
            ref_layer_norm(tokens, block.norm_mix_gamma.value, block.norm_mix_beta.value), mask
        )
        np.testing.assert_allclose(c_out.value, expected, atol=1e-15)

    def test_permuting_tokens_permutes_output_and_fixes_context(self):
        block = init_mnm_block(_rng(2), 16, 2, 32, MixKind.MAX_POOL, MatchKind.CONCAT,
                               query_variant=True)
        rng = _rng(3)
        tokens, context = rng.normal(size=(6, 16)), rng.normal(size=16)
        mask = np.ones(6, dtype=bool)
        perm = rng.permutation(6)
        tape = Tape()
        t_base, c_base = mnm_query(tape, tape.constant(tokens), tape.constant(context), mask, block)
        tape = Tape()
        t_perm, c_perm = mnm_query(tape, tape.constant(tokens[perm]), tape.constant(context),
                                   mask[perm], block)
        np.testing.assert_allclose(t_perm.value, t_base.value[perm], atol=1e-12)
        np.testing.assert_allclose(c_perm.value, c_base.value, atol=1e-12)


class TestEncodeElement:
    def test_duplicating_a_valid_token_changes_nothing(self):
        params = init_model_params(TINY)
        element = _element(4)
        dup = SceneElement(
            kind=element.kind,
            tokens=np.vstack([element.tokens, element.tokens[2:3]]),
            mask=np.append(element.mask, True),
            context=element.context,
        )
        tape = Tape()
        base = encode_element(tape, element, params).value
        tape = Tape()
        again = encode_element(tape, dup, params).value
        np.testing.assert_allclose(again, base, atol=1e-12)

    def test_permutation_invariance(self):
        params = init_model_params(TINY)
        element = _element(5, points=6)
        perm = _rng(6).permutation(6)
        permuted = SceneElement(kind=element.kind, tokens=element.tokens[perm],
                                mask=element.mask[perm], context=element.context)
        tape = Tape()
        base = encode_element(tape, element, params).value
        tape = Tape()
        again = encode_element(tape, permuted, params).value
        np.testing.assert_allclose(again, base, atol=1e-12)

    def test_matches_dense_oracle(self):
        params = init_model_params(TINY)
        for seed in range(5):
            element = _element(seed + 10, invalid=(1,))
            tape = Tape()
            out = encode_element(tape, element, params).value
            np.testing.assert_allclose(out, ref_encode_element(params, element), atol=1e-12)

    def test_empty_element_is_an_error(self):
        params = init_model_params(TINY)
        element = _element(7)
        element.mask[:] = False
        with pytest.raises(EmptySetError):
            encode_element(Tape(), element, params)


class TestInteract:
    def test_all_ones_latent_zero_ffn(self):
        config = GolferConfig(d=16, heads=2, fe_depth=1, interact_depth=1, k_modes=3,
                              horizon=4, d_ff=32, decoder_hidden=(16,), seed=8)
        params = init_model_params(config)
        block = params.road_interact[0]
        block.w2.value[...] = 0.0
        block.w4.value[...] = 0.0
        ego = _rng(9).normal(size=16)
        tape = Tape()
        out = interact(tape, tape.constant(ego), tape.constant(np.ones((1, 16))),
                       np.ones(1, dtype=bool), [block])
        s = ego * 1.0 + 1.0  # match(c, x) + x with x = ones: c*1 + 1
        expected = ref_max_pool(
            ref_layer_norm(s[None, :], block.norm_mix_gamma.value, block.norm_mix_beta.value),
            [True],
        )
        np.testing.assert_allclose(out.value, expected, atol=1e-15)

    def test_permuting_latents_changes_nothing(self):
        params = init_model_params(TINY)
        rng = _rng(10)
        ego = rng.normal(size=16)
        latents = rng.normal(size=(5, 16))
        perm = rng.permutation(5)
        mask = np.ones(5, dtype=bool)
        tape = Tape()
        base = interact(tape, tape.constant(ego), tape.constant(latents), mask,
                        params.agent_interact).value
        tape = Tape()
        again = interact(tape, tape.constant(ego), tape.constant(latents[perm]), mask,
                         params.agent_interact).value
        np.testing.assert_allclose(again, base, atol=1e-12)


class TestEncodeScene:
    def test_road_order_is_irrelevant(self):
        params = init_model_params(TINY)
        scene = _scene(1, num_roads=3)
        swapped = Scene(ego=scene.ego, agents=scene.agents,
                        roads=[scene.roads[2], scene.roads[0], scene.roads[1]],
                        future=scene.future, future_mask=scene.future_mask)
        a = encode_scene(Tape(), scene, params).value
        b = encode_scene(Tape(), swapped, params).value
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_matches_dense_oracle(self):
        params = init_model_params(TINY)
        for seed in range(3):
            scene = _scene(seed + 2)
            out = encode_scene(Tape(), scene, params).value
            np.testing.assert_allclose(out, ref_encode_scene(params, scene), atol=1e-12)

    def test_goal_placement_in_each_set(self):
        from golfer.scene import apply_goal_masking, encode_goal_element

        params = init_model_params(TINY)
        scene = _scene(3)
        gc = apply_goal_masking(scene.future, _rng(11), 0.5)
        goal = encode_goal_element(gc)
        on_agents = encode_scene(Tape(), scene, params, goal=goal, placement="agents").value
        on_roads = encode_scene(Tape(), scene, params, goal=goal, placement="roads").value
        oracle_agents = ref_encode_scene(params, scene, goal=goal, placement="agents")
        oracle_roads = ref_encode_scene(params, scene, goal=goal, placement="roads")
        np.testing.assert_allclose(on_agents, oracle_agents, atol=1e-12)
        np.testing.assert_allclose(on_roads, oracle_roads, atol=1e-12)

    def test_no_agents_uses_the_null_latent(self):
        params = init_model_params(TINY)
        scene = _scene(4, num_agents=0)
        out = encode_scene(Tape(), scene, params).value
        np.testing.assert_allclose(out, ref_encode_scene(params, scene), atol=1e-12)
        assert np.isfinite(out).all()

    def test_appending_all_invalid_element_changes_nothing(self):
        params = init_model_params(TINY)
        scene = _scene(5)
        ghost = _element(999, "road")
        ghost.mask[:] = False
        padded = Scene(ego=scene.ego, agents=scene.agents, roads=scene.roads + [ghost],
                       future=scene.future, future_mask=scene.future_mask)
        base = encode_scene(Tape(), scene, params).value
        again = encode_scene(Tape(), padded, params).value
        assert (base == again).all()

    def test_appending_all_invalid_tokens_changes_nothing(self):
        params = init_model_params(TINY)
        scene = _scene(6)
        road = scene.roads[0]
        padded_road = SceneElement(
            kind=road.kind,
            tokens=np.vstack([road.tokens, np.zeros((2, TOKEN_DIM))]),
            mask=np.append(road.mask, [False, False]),
            context=road.context,
        )
        padded = Scene(ego=scene.ego, agents=scene.agents,
                       roads=[padded_road] + scene.roads[1:],
                       future=scene.future, future_mask=scene.future_mask)
        base = encode_scene(Tape(), scene, params).value
        again = encode_scene(Tape(), padded, params).value
        assert (base == again).all()


class TestDecode:
    def test_zero_weights_give_zero_means_and_uniform_probs(self):
        params = init_model_params(TINY)
        for branch in params.decoder_branches + [params.cls_branch]:
            for p in branch.weights + branch.biases:
                p.value[...] = 0.0
        tape = Tape()
        pred = decode(tape, tape.constant(_rng(12).normal(size=16)), params).to_prediction()
        assert (pred.means == 0.0).all()
        assert (pred.logits == 0.0).all()
        np.testing.assert_allclose(pred.probs, 1.0 / 3.0, atol=1e-15)

    def test_probs_sum_to_one(self):
        params = init_model_params(TINY)
        for seed in range(10):
            tape = Tape()
            pred = decode(tape, tape.constant(_rng(seed).normal(size=16) * 3), params)
            assert abs(pred.to_prediction().probs.sum() - 1.0) < 1e-12

    def test_matches_branch_by_branch_oracle(self):
        params = init_model_params(TINY)
        f_enc = _rng(13).normal(size=16)
        tape = Tape()
        pred = decode(tape, tape.constant(f_enc), params).to_prediction()
        means, log_sigmas, logits, probs = ref_decode(params, f_enc)
        np.testing.assert_allclose(pred.means, means, atol=1e-12)
        np.testing.assert_allclose(pred.log_sigmas, log_sigmas, atol=1e-12)
        np.testing.assert_allclose(pred.logits, logits, atol=1e-12)
        np.testing.assert_allclose(pred.probs, probs, atol=1e-12)


class TestForward:
    def test_is_deterministic(self):
        params = init_model_params(TINY)
        scene = _scene(7)
        gc = prediction_conditioning(4)
        a = forward(scene, gc, params)
        b = forward(scene, gc, params)
        assert (a.means == b.means).all()
        assert (a.probs == b.probs).all()

    def test_output_shape_is_config_driven(self):
        params = init_model_params(TINY)
        for seed, (roads, agents) in enumerate([(1, 0), (3, 2), (5, 4)]):
            scene = _scene(seed + 20, num_roads=roads, num_agents=agents)
            pred = forward(scene, prediction_conditioning(4), params)
            assert pred.means.shape == (3, 4, 2)
            assert pred.log_sigmas.shape == (3, 4, 2)
            assert pred.probs.shape == (3,)


class TestModelFiles:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        params = init_model_params(TINY)
        a, b = tmp_path / "a.mnmg", tmp_path / "b.mnmg"
        save_params(params, a)
        save_params(load_params(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_forward_survives_round_trip_exactly(self, tmp_path):
        params = init_model_params(TINY)
        path = tmp_path / "m.mnmg"
        save_params(params, path)
        loaded = load_params(path)
        scene = _scene(8)
        gc = prediction_conditioning(4)
        before = forward(scene, gc, params)
        after = forward(scene, gc, loaded)
        assert (before.means == after.means).all()
        assert (before.logits == after.logits).all()

    def test_config_mismatch_requires_force(self, tmp_path):
        params = init_model_params(TINY)
        path = tmp_path / "m.mnmg"
        save_params(params, path)
        other = GolferConfig(d=32, heads=2, fe_depth=1, interact_depth=1, k_modes=3,
                             horizon=4, d_ff=32, decoder_hidden=(16,), seed=5)
        with pytest.raises(ModelFormatError, match="config"):
            load_params(path, expected_config=other)
        assert load_params(path, expected_config=other, force=True) is not None

    def test_shape_mismatch_names_expected_and_found(self, tmp_path):
        params = init_model_params(TINY)
        path = tmp_path / "m.mnmg"
        save_params(params, path)
        blob = bytearray(path.read_bytes())
        (config_len,) = struct.unpack_from("<I", blob, 8)
        config = json.loads(blob[12:12 + config_len].decode())
        config["d"] = 8  # embedded config now disagrees with the stored tensors
        new_blob = json.dumps(config, sort_keys=True).encode()
        patched = (bytes(blob[:8]) + struct.pack("<I", len(new_blob)) + new_blob
                   + bytes(blob[12 + config_len:]))
        path.write_bytes(patched)
        with pytest.raises(ModelFormatError, match=r"shape"):
            load_params(path)

    def test_non_finite_tensor_is_named(self, tmp_path):
        params = init_model_params(TINY)
        dict(params.named_parameters())["fe.0.wm.1"].value[2, 3] = np.nan
        path = tmp_path / "m.mnmg"
        save_params(params, path)
        with pytest.raises(ModelFormatError, match=r"'fe\.0\.wm\.1'.*finite"):
            load_params(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mnmg"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ModelFormatError, match="magic"):
            load_params(path)

    def test_parameter_count_is_config_determined(self):
        a = init_model_params(TINY)
        b = init_model_params(TINY)
        assert parameter_count(a) == parameter_count(b)
        names_a = [(n, p.value.shape) for n, p in a.named_parameters()]
        names_b = [(n, p.value.shape) for n, p in b.named_parameters()]
        assert names_a == names_b


class TestEndToEnd:
    def test_generated_scene_forward(self):
        scenes = generate_dataset(GeneratorConfig(seed=30), 2)
        config = GolferConfig(d=16, heads=2, fe_depth=1, interact_depth=1, k_modes=3,
                              horizon=16, d_ff=32, decoder_hidden=(16,), seed=0)
        params = init_model_params(config)
        pred = forward(scenes[0], prediction_conditioning(16), params)
        assert np.isfinite(pred.means).all()
        assert (pred.log_sigmas <= 5.0).all() and (pred.log_sigmas >= -5.0).all()
