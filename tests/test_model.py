import hashlib
import json
import struct
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golfer.model as gm
import golfer.numerics as nm
from golfer.gradcheck import TINY_CONFIG as GRADCHECK_TINY
from golfer.mnm import MatchKind, init_mnm_block, mnm_query
from golfer.model import (
    GolferConfig,
    ModelFormatError,
    decode,
    encode_element,
    encode_scene,
    forward,
    forward_nodes,
    init_model_params,
    interact,
    load_params,
    save_params,
)
from golfer.numerics import EmptySetError, Node, Tape
from golfer.scene import (
    CTX_DIM,
    KIND_AGENT,
    KIND_EGO,
    KIND_GOAL,
    KIND_ROAD,
    TOKEN_DIM,
    GeneratorConfig,
    Scene,
    SceneElement,
    apply_goal_masking,
    build_layout,
    encode_goal_element,
    generate_dataset,
    pack_elements,
    prediction_conditioning,
)
from golfer.training import total_loss_nodes

from oracles import (
    parameter_count,
    ref_decode,
    ref_encode_element,
    ref_encode_scene,
    ref_layer_norm,
    ref_max_pool,
    ref_pack_elements,
    ref_scene_sets,
)

TINY = GolferConfig(d=16, heads=2, fe_depth=1, interact_depth=1, k_modes=3, horizon=4,
                    d_ff=32, decoder_hidden=(16,), seed=5)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _latents(elements, params):
    """The (E,d) latents of `elements` packed and encoded without a goal."""
    tape = Tape()
    layout, tokens, context = gm._projection_stage(tape, params, pack_elements(elements), None)
    return encode_element(tape, layout, tokens, context, params).value


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
        block = init_mnm_block(_rng(0), 16, 2, 32, MatchKind.CONCAT, query_variant=True)
        block.w2.value[...] = 0.0
        block.w4.value[...] = 0.0
        block.wm.value[...] = 0.0
        rng = _rng(1)
        tokens, context = rng.normal(size=(5, 16)), rng.normal(size=16)
        mask = np.array([True, True, False, True, True])
        tape = Tape()
        t_out, c_out = mnm_query(tape, tape.constant(tokens[mask]), tape.constant(context[None]),
                                 nm.Segments([4]), block)
        assert (t_out.value == tokens[mask]).all()
        expected = ref_max_pool(
            ref_layer_norm(tokens, block.norm_mix_gamma.value, block.norm_mix_beta.value), mask
        )
        np.testing.assert_allclose(c_out.value[0], expected, atol=1e-15)

    def test_permuting_tokens_permutes_output_and_fixes_context(self):
        block = init_mnm_block(_rng(2), 16, 2, 32, MatchKind.CONCAT, query_variant=True)
        rng = _rng(3)
        tokens, context = rng.normal(size=(6, 16)), rng.normal(size=16)
        segments = nm.Segments([6])
        perm = rng.permutation(6)
        tape = Tape()
        t_base, c_base = mnm_query(tape, tape.constant(tokens), tape.constant(context[None]),
                                   segments, block)
        tape = Tape()
        t_perm, c_perm = mnm_query(tape, tape.constant(tokens[perm]), tape.constant(context[None]),
                                   segments, block)
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
        base = _latents([element], params)
        again = _latents([dup], params)
        np.testing.assert_allclose(again, base, atol=1e-12)

    def test_permutation_invariance(self):
        params = init_model_params(TINY)
        element = _element(5, points=6)
        perm = _rng(6).permutation(6)
        permuted = SceneElement(kind=element.kind, tokens=element.tokens[perm],
                                mask=element.mask[perm], context=element.context)
        base = _latents([element], params)
        again = _latents([permuted], params)
        np.testing.assert_allclose(again, base, atol=1e-12)

    def test_matches_dense_oracle(self):
        params = init_model_params(TINY)
        for seed in range(5):
            element = _element(seed + 10, invalid=(1,))
            (out,) = _latents([element], params)
            np.testing.assert_allclose(out, ref_encode_element(params, element), atol=1e-12)

    def test_empty_element_is_an_error(self):
        params = init_model_params(TINY)
        element = _element(7)
        element.mask[:] = False
        with pytest.raises(EmptySetError):
            _latents([element], params)


class TestInteract:
    def test_all_ones_latent_zero_ffn(self):
        config = GolferConfig(d=16, heads=2, fe_depth=1, interact_depth=1, k_modes=3,
                              horizon=4, d_ff=32, decoder_hidden=(16,), seed=8)
        params = init_model_params(config)
        block = params.road_interact[0]
        block.w4.value[...] = 0.0
        ego = _rng(9).normal(size=16)
        tape = Tape()
        out = interact(tape, tape.constant(ego[None]), tape.constant(np.ones((1, 16))),
                       nm.Segments([1]), [block])
        s = ego * 1.0 + 1.0  # match(c, x) + x with x = ones: c*1 + 1
        expected = ref_max_pool(
            ref_layer_norm(s[None, :], block.norm_mix_gamma.value, block.norm_mix_beta.value),
            [True],
        )
        np.testing.assert_allclose(out.value[0], expected, atol=1e-15)

    def test_permuting_latents_changes_nothing(self):
        params = init_model_params(TINY)
        rng = _rng(10)
        ego = rng.normal(size=16)
        latents = rng.normal(size=(5, 16))
        perm = rng.permutation(5)
        tape = Tape()
        one_set = nm.Segments([5])
        base = interact(tape, tape.constant(ego[None]), tape.constant(latents), one_set,
                        params.agent_interact).value
        tape = Tape()
        again = interact(tape, tape.constant(ego[None]), tape.constant(latents[perm]), one_set,
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
        params = init_model_params(TINY)
        scene = _scene(3)
        gc = apply_goal_masking(scene.future, _rng(11), 0.5, scene.future_mask)
        goal = encode_goal_element(gc)
        on_agents = encode_scene(Tape(), scene, params, replace(gc, placement="agents")).value
        on_roads = encode_scene(Tape(), scene, params, replace(gc, placement="roads")).value
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
        padded = Scene(ego=scene.ego, agents=scene.agents, roads=[*scene.roads, ghost],
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
                       roads=[padded_road, *scene.roads[1:]],
                       future=scene.future, future_mask=scene.future_mask)
        base = encode_scene(Tape(), scene, params).value
        again = encode_scene(Tape(), padded, params).value
        assert (base == again).all()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _invalid_rows(draw, count):
    values = draw(st.lists(_FINITE, min_size=count * TOKEN_DIM, max_size=count * TOKEN_DIM))
    return np.array(values).reshape(count, TOKEN_DIM)


@st.composite
def _packing_cases(draw):
    """A random scene; the same scene with invalid rows of arbitrary finite
    values appended to its elements and ghost elements inserted into its
    sets; and a permutation of each set."""
    rng = _rng(draw(st.integers(0, 2**32 - 1)))

    def element(kind):
        points = draw(st.integers(1, 6))
        mask = rng.random(points) < 0.7
        mask[rng.integers(points)] = True
        return SceneElement(kind=kind, tokens=rng.normal(size=(points, TOKEN_DIM)), mask=mask,
                            context=rng.normal(size=CTX_DIM))

    def padded(e):
        extra = draw(st.integers(0, 3))
        return SceneElement(kind=e.kind, tokens=np.vstack([e.tokens, _invalid_rows(draw, extra)]),
                            mask=np.append(e.mask, np.zeros(extra, dtype=bool)), context=e.context)

    def with_ghosts(elements, kind):
        out = list(elements)
        for _ in range(draw(st.integers(0, 2))):
            points = draw(st.integers(1, 3))
            ghost = SceneElement(kind=kind, tokens=_invalid_rows(draw, points),
                                 mask=np.zeros(points, dtype=bool), context=rng.normal(size=CTX_DIM))
            out.insert(draw(st.integers(0, len(out))), ghost)
        return out

    ego = element("ego")
    roads = [element("road") for _ in range(draw(st.integers(1, 4)))]
    agents = [element("agent") for _ in range(draw(st.integers(0, 3)))]
    scene = Scene(ego=ego, agents=agents, roads=roads, future=np.zeros((4, 2)),
                  future_mask=np.ones(4, dtype=bool))
    pads = [padded(e) for e in [ego, *roads, *agents]]
    padded_scene = Scene(ego=pads[0], roads=with_ghosts(pads[1:1 + len(roads)], "road"),
                         agents=with_ghosts(pads[1 + len(roads):], "agent"),
                         future=scene.future, future_mask=scene.future_mask)
    perms = (draw(st.permutations(range(len(roads)))), draw(st.permutations(range(len(agents)))))
    return scene, pads, padded_scene, perms


class TestPackingInvariance:
    @settings(max_examples=60, deadline=None)
    @given(_packing_cases())
    def test_invalid_rows_ghosts_and_set_order(self, case):
        scene, pads, padded_scene, (road_perm, agent_perm) = case
        params = init_model_params(TINY)
        elements = [scene.ego, *scene.roads, *scene.agents]
        latents = _latents(elements, params)
        assert (_latents(pads, params) == latents).all()

        base = encode_scene(Tape(), scene, params).value
        assert (encode_scene(Tape(), padded_scene, params).value == base).all()

        roads = [scene.roads[i] for i in road_perm]
        agents = [scene.agents[i] for i in agent_perm]
        order = [0, *(1 + np.array(road_perm, dtype=int)),
                 *(1 + len(roads) + np.array(agent_perm, dtype=int))]
        permuted = _latents([scene.ego, *roads, *agents], params)
        np.testing.assert_allclose(permuted, latents[order], rtol=0, atol=1e-12)
        shuffled = Scene(ego=scene.ego, agents=agents, roads=roads, future=scene.future,
                         future_mask=scene.future_mask)
        np.testing.assert_allclose(encode_scene(Tape(), shuffled, params).value, base,
                                   rtol=0, atol=1e-12)


@st.composite
def _pack_cases(draw):
    """A random scene whose road and agent sets may be empty or hold elements
    with no valid point, and the goals of several forwards of it: in each
    round, one with no goal and one on each placement, each with its own
    masked future."""
    rng = _rng(draw(st.integers(0, 2**32 - 1)))

    def element(kind):
        points = draw(st.integers(1, 5))
        mask = rng.random(points) < draw(st.sampled_from([0.0, 0.5, 1.0]))
        if kind == "ego":
            mask[rng.integers(points)] = True
        return SceneElement(kind=kind, tokens=rng.normal(size=(points, TOKEN_DIM)), mask=mask,
                            context=rng.normal(size=CTX_DIM))

    scene = Scene(ego=element("ego"), roads=[element("road") for _ in range(draw(st.integers(0, 4)))],
                  agents=[element("agent") for _ in range(draw(st.integers(0, 3)))],
                  future=rng.normal(size=(4, 2)), future_mask=rng.random(4) < 0.8)
    goals = []
    for _ in range(draw(st.integers(1, 3))):
        for placement in draw(st.permutations([None, "agents", "roads"])):
            gc = apply_goal_masking(scene.future, rng, draw(st.floats(0.0, 1.0)), scene.future_mask)
            goals.append(None if placement is None else replace(gc, placement=placement))
    return scene, goals


def _goal_index(roads, agents, placement):
    """The goal's element index in a pack of the ego, roads and agents."""
    return len(roads) if placement == "roads" else len(roads) + len(agents)


class TestScenePack:
    @settings(max_examples=40, deadline=None)
    @given(_pack_cases())
    def test_pack_matches_the_element_by_element_oracle(self, case):
        scene, goals = case
        params = init_model_params(TINY)
        for gc in goals:
            goal = encode_goal_element(gc) if gc is not None else None
            placement = gc.placement if gc is not None else "agents"
            roads, agents = ref_scene_sets(scene, goal, placement)
            ref = ref_pack_elements([scene.ego, *roads, *agents])
            layout, tokens = scene.pack.splice_goal(gc)
            expected = {"tokens": np.array(ref["tokens"]).reshape(-1, TOKEN_DIM),
                        "row_kinds": np.array(ref["row_kinds"], dtype=np.intp),
                        "kinds": np.array(ref["kinds"], dtype=np.intp),
                        "counts": np.array(ref["counts"], dtype=np.intp),
                        "contexts": np.stack(ref["contexts"]),
                        "ids": np.array(ref["ids"], dtype=np.intp),
                        "starts": np.array(ref["starts"], dtype=np.intp)}
            got = {"tokens": tokens, "ids": layout.segments.ids, "starts": layout.segments.starts,
                   "row_kinds": layout.kinds[layout.segments.ids],
                   **{name: getattr(layout, name) for name in ("kinds", "counts", "contexts")}}
            for name, want in expected.items():
                assert got[name].dtype == want.dtype and got[name].shape == want.shape, name
                assert got[name].tobytes() == want.tobytes(), name
            assert layout.num_roads == len(roads)
            assert layout.segments.count == len(ref["counts"])
            if gc is None:
                assert layout.goal_row is None and tokens is scene.pack.tokens
            else:
                assert layout.goal_row == ref["starts"][_goal_index(roads, agents, placement)]

            spliced = encode_scene(Tape(), scene, params, gc).value
            as_elements = Scene(ego=scene.ego, roads=roads, agents=agents, future=scene.future,
                                future_mask=scene.future_mask)
            assert (encode_scene(Tape(), as_elements, params).value == spliced).all()
            np.testing.assert_allclose(spliced, ref_encode_scene(params, scene, goal, placement),
                                       rtol=0, atol=1e-12)
        keys = {None if gc is None else (gc.placement, gc.horizon) for gc in goals}
        assert scene.pack.layouts.keys() == keys

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=1, max_size=8))
    def test_a_plan_lays_out_consecutive_segments(self, counts):
        plan = nm.Segments(counts)
        assert plan.count == len(counts)
        for got, want in ((plan.ids, np.repeat(np.arange(len(counts)), counts)),
                          (plan.starts, np.cumsum([0, *counts[:-1]]))):
            assert got.dtype == np.intp and (got == want).all()

    @pytest.mark.parametrize("counts", [[0], [2, 0, 1], [3, -1], []])
    def test_a_plan_rejects_an_empty_segment(self, counts):
        with pytest.raises(nm.DimensionError):
            nm.Segments(counts)

    def test_a_second_forward_reuses_the_pack(self):
        from golfer import scene as scene_module

        params = init_model_params(TINY)
        scene = _scene(31)
        gc = prediction_conditioning(4)
        with mock.patch.object(scene_module, "pack_elements", wraps=pack_elements) as packing:
            first = forward(scene, gc, params)
            pack = scene.pack
            second = forward(scene, replace(gc, placement="roads"), params)
            third = forward(scene, gc, params)
        assert packing.call_count == 1 and scene.pack is pack
        assert (first.means == third.means).all() and (first.means != second.means).any()

    def test_a_layout_is_built_once_per_placement_and_horizon(self):
        from golfer import scene as scene_module

        params = init_model_params(TINY)
        scene = _scene(33)
        rng = _rng(34)
        base = scene.pack.layouts[None]  # built with the pack
        with mock.patch.object(scene_module, "build_layout", wraps=build_layout) as building:
            for _ in range(3):
                for placement in ("agents", "roads"):
                    gc = apply_goal_masking(scene.future, rng, 0.5, scene.future_mask)
                    forward(scene, replace(gc, placement=placement), params)
                forward(scene, None, params)
        assert building.call_count == 2 and scene.pack.layouts[None] is base
        assert scene.pack.layouts.keys() == {None, ("agents", 4), ("roads", 4)}
        for layout in scene.pack.layouts.values():
            elements = layout.kinds.size
            values = [getattr(layout, f.name) for f in fields(layout)]
            plans = [v for v in values if isinstance(v, nm.Segments)]
            arrays = [v for v in values if isinstance(v, np.ndarray)]
            arrays += [a for plan in plans for a in (plan.ids, plan.starts)]
            floats = [a for a in arrays if a.dtype.kind == "f"]
            assert [a.shape for a in floats] == [(elements, CTX_DIM)]
            assert not any(np.shares_memory(a, scene.pack.tokens) for a in arrays)
            assert not any(a.flags.writeable for a in arrays)

    def test_a_goal_of_another_horizon_gets_its_own_layout(self):
        params = init_model_params(TINY)
        scene = _scene(35)
        short = prediction_conditioning(3)
        for gc in (prediction_conditioning(4), short, replace(short, placement="roads")):
            layout, tokens = scene.pack.splice_goal(gc)
            assert layout.counts[layout.kinds == 3].tolist() == [gc.horizon]
            assert layout.segments.ids.size == tokens.shape[0] == scene.pack.tokens.shape[0] + gc.horizon
            goal = encode_goal_element(gc)
            roads, agents = ref_scene_sets(scene, goal, gc.placement)
            fresh = Scene(ego=scene.ego, roads=roads, agents=agents, future=scene.future,
                          future_mask=scene.future_mask)
            assert (encode_scene(Tape(), scene, params, gc).value
                    == encode_scene(Tape(), fresh, params).value).all()
        assert scene.pack.layouts.keys() == {None, ("agents", 4), ("agents", 3), ("roads", 3)}

    def test_a_packed_scene_s_element_sets_cannot_change(self):
        params = init_model_params(TINY)
        scene = _scene(36)
        gc = prediction_conditioning(4)
        first = forward(scene, gc, params)
        with pytest.raises(AttributeError):
            scene.roads.append(scene.roads[0])
        with pytest.raises(AttributeError):
            scene.agents.clear()
        for name in ("ego", "roads", "agents"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(scene, name, getattr(scene, name))
        assert (len(scene.roads), len(scene.agents)) == (2, 2)
        assert (forward(scene, gc, params).means == first.means).all()

    def test_an_element_on_a_view_owns_its_arrays(self):
        params = init_model_params(TINY)
        scene = _scene(37)
        road = scene.roads[0]
        big = np.vstack([road.tokens, road.tokens])
        viewed = SceneElement(kind=road.kind, tokens=big[:5], mask=road.mask, context=road.context)
        packed = Scene(ego=scene.ego, roads=[viewed, *scene.roads[1:]], agents=scene.agents,
                       future=scene.future, future_mask=scene.future_mask)
        forward(packed, prediction_conditioning(4), params)
        big[:, 0] += 5.0
        assert (viewed.tokens == road.tokens).all()
        with pytest.raises(ValueError, match="read-only"):
            viewed.tokens[0, 0] = 0.0

    def test_a_write_to_a_packed_element_raises(self):
        scene = _scene(32)
        scene.roads[0].tokens[0, 0] += 1.0  # writable until packed
        forward(scene, prediction_conditioning(4), init_model_params(TINY))
        for element in (scene.ego, scene.roads[1], scene.agents[0]):
            for name in ("tokens", "mask", "context"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(element, name)[0] = 0
        scene.future[0, 0] += 1.0
        scene.future_mask[0] = False

    def test_no_field_of_a_packed_scene_or_its_elements_can_be_reassigned(self):
        params = init_model_params(TINY)
        scene = _scene(38)
        first = forward(scene, prediction_conditioning(4), params)
        for element in (scene.ego, scene.roads[0], scene.agents[1]):
            for name in ("tokens", "mask", "context"):
                with pytest.raises(AttributeError):
                    setattr(element, name, getattr(element, name).copy())
        for name in ("ego", "roads", "agents"):
            with pytest.raises(AttributeError):
                setattr(scene, name, getattr(scene, name))
        assert (forward(scene, prediction_conditioning(4), params).means == first.means).all()


WIDE = GolferConfig(d=48, heads=4, fe_depth=1, interact_depth=1, k_modes=3, horizon=4,
                    d_ff=64, decoder_hidden=(16,), seed=6)


def _mean_form_layer_norm(x, gamma, beta, epsilon=1e-5):
    """`layer_norm`'s value with its means taken by `ndarray.mean`."""
    mu = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mu
    inv_std = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + epsilon)
    return Node(xc * inv_std * gamma.value + beta.value, x.tape)


class TestValueOnlyForward:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([TINY, WIDE]), st.floats(0.0, 1.0))
    def test_value_only_forward_is_bitwise_the_recorded_forward(self, seed, config, mask_ratio):
        """Also bitwise the forward with `ndarray.mean` in layer_norm: at d=48,
        a mean taken as a sum times 1/d would move bits."""
        generator = GeneratorConfig(seed=seed, num_roads=(1, 4), num_agents=(0, 3),
                                    points_per_polyline=4, history_steps=4, horizon=4)
        (scene,) = generate_dataset(generator, 1)
        gc = apply_goal_masking(scene.future, _rng(seed), mask_ratio, scene.future_mask)
        params = init_model_params(config)
        value_only = forward(scene, gc, params)
        recorded = forward_nodes(Tape(), scene, gc, params).to_prediction()
        with mock.patch.object(nm, "layer_norm", _mean_form_layer_norm):
            mean_form = forward(scene, gc, params)
        for name in ("means", "log_sigmas", "logits"):
            value = getattr(value_only, name)
            assert (value == getattr(recorded, name)).all()
            assert (value == getattr(mean_form, name)).all()


# Name prefixes of the tiny model's parameters, in arena order: the kind
# projections, the FE blocks, the interaction stage (null latents, interaction
# blocks), fusion, and the decoder and logit head that every probe runs.
_PROBE_GROUPS = ("proj.", "fe.", "null.", "interact.", "fusion.", "decoder.", "cls.")


def _probe_case(seed):
    """A tiny scene (its agent set may be empty), a goal and fresh tiny-model params."""
    generator = GeneratorConfig(seed=seed, num_roads=(1, 2), num_agents=(0, 2),
                                points_per_polyline=4, history_steps=4, horizon=4)
    (scene,) = generate_dataset(generator, 1)
    gc = apply_goal_masking(scene.future, _rng(seed), 0.5, scene.future_mask)
    return scene, gc, init_model_params(GRADCHECK_TINY)


def _probe_loss(tape, scene, gc, params):
    pred = forward_nodes(tape, scene, gc, params)
    total, _ = total_loss_nodes(tape, pred, scene.future, scene.future_mask, gc.exclusion_index,
                                lam=1.0)
    return total


def _fe_start(params):
    """The arena offset of the first FE-block parameter, the first after the
    kind projections'."""
    return min(p.value.ctypes.data - params.values.ctypes.data
               for name, p in params.named_parameters() if name.startswith("fe.")) // 8


class TestProbeMemo:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16),
           st.lists(st.tuples(st.sampled_from(_PROBE_GROUPS + ("edge",)), st.integers(0, 2**20),
                              st.sampled_from([1e-5, -1e-5, 0.5, -2.0]), st.booleans()),
                    min_size=1, max_size=10))
    @example(0, [("cls.", 3, 1e-5, True), ("fusion.", 5, -1e-5, False), ("proj.", 7, 0.5, True),
                 ("decoder.", 1, 1e-5, True), ("interact.", 2, -2.0, False), ("fe.", 11, 1e-5, True),
                 ("null.", 9, 0.5, True), ("fusion.", 5, 1e-5, True)])
    @example(1, [("edge", 1, 1e-5, True), ("edge", 0, 1e-5, True), ("edge", 1, -2.0, False),
                 ("fe.", 0, 0.5, True)])
    def test_probe_losses_are_bitwise_those_of_fresh_tapes(self, seed, steps):
        """Any sequence of one-coordinate perturbations, in any stage and
        order, kept or restored, gives each memo probe a fresh tape's loss.
        The "edge" group is the last projection coordinate and the first FE
        one, on either side of the first stage boundary in the arena. A probe
        projects the token and context rows again exactly when a projection
        parameter's bits changed since the memo's last probe."""
        scene, gc, params = _probe_case(seed)
        flats = {group: [p.value.reshape(-1) for name, p in params.named_parameters()
                         if name.startswith(group)] for group in _PROBE_GROUPS}
        fe_start = _fe_start(params)
        flats["edge"] = [params.values[fe_start - 1:fe_start + 1]]
        memo, projected = {}, None
        with mock.patch.object(gm, "_kind_rows", wraps=gm._kind_rows) as project:
            for group, k, delta, restore in steps:
                flat = flats[group][k % len(flats[group])]
                i = k // len(flats[group]) % flat.size
                saved = flat[i]
                flat[i] = saved + delta
                project.reset_mock()
                probe = _probe_loss(Tape(record=False, memo=memo), scene, gc, params)
                now = params.values[:fe_start].tobytes()
                assert project.call_count == (2 if now != projected else 0)
                projected = now
                fresh = _probe_loss(Tape(record=False), scene, gc, params)
                assert probe.value.tobytes() == fresh.value.tobytes()
                if restore:
                    flat[i] = saved

    @pytest.mark.parametrize("name, change, projections, encodes, interacts", [
        ("proj.goal.token.b", 1e-5, 2, 1, 2),
        ("proj.road.token.b", "negate", 2, 1, 2),
        ("proj.goal.ctx.b", 1e-5, 2, 1, 2),
        ("fe.0.w3", 1e-5, 0, 1, 2),
        ("fe.0.norm_mix.gamma", 1e-5, 0, 1, 2),
        ("null.agent", 1e-5, 0, 0, 2),
        ("interact.road.0.w4", 1e-5, 0, 0, 2),
        ("fusion.1.b", 1e-5, 0, 0, 0),
        ("decoder.1.0.b", 1e-5, 0, 0, 0),
        ("cls.1.w", 1e-5, 0, 0, 0),
    ])
    def test_a_probe_reruns_the_stages_from_its_parameter_s_on(self, name, change, projections,
                                                                encodes, interacts):
        """The splice and both kind projections, counted through
        `_kind_rows`, rerun only for a projection parameter. The arena is
        compared bit by bit: a zero bias negated to -0.0 counts as a change."""
        scene, gc, params = _probe_case(1)
        memo = {}
        _probe_loss(Tape(record=False, memo=memo), scene, gc, params)
        flat = dict(params.named_parameters())[name].value.reshape(-1)
        if change == "negate":
            flat[0] = -flat[0]
            assert flat[0] == 0.0 and np.signbit(flat[0])
        else:
            flat[0] += change
        with mock.patch.object(gm, "_kind_rows", wraps=gm._kind_rows) as project, \
                mock.patch.object(gm, "encode_element", wraps=encode_element) as encode, \
                mock.patch.object(gm, "interact", wraps=interact) as interaction:
            probe = _probe_loss(Tape(record=False, memo=memo), scene, gc, params)
        assert (project.call_count, encode.call_count, interaction.call_count) == (
            projections, encodes, interacts)
        assert probe.value.tobytes() == _probe_loss(Tape(), scene, gc, params).value.tobytes()

    def test_only_the_recording_pass_builds_backward_closures(self):
        """A value-only forward and the probes of a gradient check build no
        closure; the check's recording pass records one per op of the tiny
        loss."""
        scene, gc, params = _probe_case(3)
        leaf = dict(params.named_parameters())["cls.1.b"]
        with mock.patch.object(nm._TapeRef, "record", autospec=True,
                               side_effect=nm._TapeRef.record) as record:
            forward(scene, gc, params)
            assert record.call_count == 0
            nm.gradient_check(lambda tape: _probe_loss(tape, scene, gc, params), [leaf])
        assert record.call_count == 100

    @pytest.mark.parametrize("rebuilt, encodes", [(None, 2), ("scene", 7), ("gc", 7), ("params", 7)])
    def test_a_fn_that_builds_a_new_scene_gc_or_params_per_call_reuses_no_stage(self, rebuilt,
                                                                               encodes):
        """Sweeping the 3 coordinates of a logit bias: the recording pass and
        6 probes. With the same objects, only the first probe encodes."""
        scene, gc, params = _probe_case(2)
        leaf = dict(params.named_parameters())["cls.1.b"]

        def fn(tape):
            objects = {"scene": scene, "gc": gc, "params": params}
            if rebuilt is not None:
                objects[rebuilt] = replace(objects[rebuilt])
            return _probe_loss(tape, objects["scene"], objects["gc"], objects["params"])

        with mock.patch.object(gm, "encode_element", wraps=encode_element) as encode:
            worst = nm.gradient_check(fn, [leaf])
        assert encode.call_count == encodes and worst < 1e-6


class TestDecode:
    def test_zero_weights_give_zero_means_and_uniform_probs(self):
        params = init_model_params(TINY)
        for branch in (params.decoder, params.cls_branch):
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


INTERACT_PROJ = GolferConfig(heads=2, interact_proj=True, decoder_hidden=(32, 16))


class TestGoalHorizon:
    def test_a_goal_of_another_horizon_is_rejected(self):
        config = GolferConfig(d=16, heads=2, k_modes=3, horizon=16, d_ff=32, decoder_hidden=(16,))
        (scene,) = generate_dataset(GeneratorConfig(seed=33), 1)
        params = init_model_params(config)
        assert forward(scene, prediction_conditioning(16), params).means.shape == (3, 16, 2)
        for steps in (8, 17):
            with pytest.raises(ValueError, match=f"goal horizon {steps} .* model's horizon 16"):
                forward(scene, prediction_conditioning(steps), params)


class TestStackedLayout:
    """Weight families are stored stacked; `named_parameters` yields each
    slice under its own name as a view of its family."""

    def _family_slice(self, params, name):
        """The (family, index) that `name` is a slice of, read from the layout."""
        parts = name.split(".")
        if parts[0] == "proj":
            kinds = (KIND_ROAD, KIND_AGENT, KIND_EGO, KIND_GOAL)
            return getattr(params, f"{parts[2]}_{parts[3]}"), kinds.index(parts[1])
        if parts[0] == "decoder":
            layers = params.decoder.weights if parts[3] == "w" else params.decoder.biases
            return layers[int(parts[2])], int(parts[1])
        if parts[-2] in ("wm", "wq", "wk"):
            blocks = (params.fe_blocks if parts[0] == "fe"
                      else getattr(params, f"{parts[1]}_interact"))
            return getattr(blocks[int(parts[-3])], parts[-2]), int(parts[-1])
        return None

    def test_named_slice_grads_are_their_family_grads(self):
        config = GolferConfig(d=16, heads=2, fe_depth=2, interact_depth=1, k_modes=3, horizon=4,
                              d_ff=32, decoder_hidden=(16,), interact_proj=True, seed=4)
        params = init_model_params(config)
        named = list(params.named_parameters())  # taken before backward, as training does
        scene = _scene(21)
        gc = apply_goal_masking(scene.future, _rng(22), 0.85, scene.future_mask)
        tape = Tape()
        total, _ = total_loss_nodes(tape, forward_nodes(tape, scene, gc, params), scene.future,
                                    scene.future_mask, gc.exclusion_index, 1.0)
        tape.backward(total)
        sliced = 0
        for name, p in named:
            found = self._family_slice(params, name)
            if found is None:
                continue
            family, index = found
            assert (p.grad == family.grad[index]).all(), name
            assert (p.value == family.value[index]).all(), name
            sliced += 1
        # 16 projection slices, 2 FE blocks and 2 interaction blocks with 2 heads
        # each, and 3 modes of a 2-layer decoder.
        assert sliced == 16 + 4 * 2 + 3 * 4
        assert np.abs(params.decoder.weights[1].grad).sum() > 0.0

    def test_writing_a_named_slice_changes_only_its_mode(self):
        params = init_model_params(TINY)
        scene = _scene(23)
        gc = prediction_conditioning(4)
        before = forward(scene, gc, params)
        dict(params.named_parameters())["decoder.1.0.w"].value[...] += 0.5
        after = forward(scene, gc, params)
        changed = (before.means != after.means).any(axis=(1, 2))
        assert changed.tolist() == [False, True, False]
        assert (before.logits == after.logits).all()

    @pytest.mark.parametrize("config, digest", [
        (GRADCHECK_TINY, "55afca58e21037bb57078dc7411aad883f2d8e3f4b4c3f26e763b3c140e3e963"),
        (INTERACT_PROJ, "bbc7fe67036693608164b8ec46151bc9013c5b02176b269efb31ab745e6fa0f5"),
    ], ids=["gradcheck-tiny", "interact-proj"])
    def test_model_file_bytes_are_pinned(self, tmp_path, config, digest):
        """Model files are pinned byte for byte: a storage layout must not move them."""
        path = tmp_path / "m.mnmg"
        save_params(init_model_params(config), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestArena:
    """Every weight family views the model's one flat value buffer and one
    flat grad buffer."""

    def _offset(self, base, view) -> int:
        return (view.__array_interface__["data"][0]
                - base.__array_interface__["data"][0]) // base.itemsize

    def test_every_named_value_and_grad_views_the_arena_once(self):
        params = init_model_params(INTERACT_PROJ)
        uses = np.zeros(params.values.size, dtype=int)
        for name, p in params.named_parameters():
            assert np.shares_memory(p.value, params.values), name
            assert np.shares_memory(p.grad, params.grads), name
            start = self._offset(params.values, p.value)
            assert self._offset(params.grads, p.grad) == start, name
            uses[start:start + p.value.size] += 1
        assert (uses == 1).all()
        assert params.values.flags.c_contiguous and params.grads.flags.c_contiguous

    def test_a_declaration_past_the_budget_is_refused_without_storage(self):
        arena = nm.Arena()
        arena.param((nm.ARENA_BUDGET,))
        with pytest.raises(ValueError, match=f"^at least {nm.ARENA_BUDGET + 1} parameters, "
                                             f"over the arena budget of {nm.ARENA_BUDGET}$"):
            arena.param((1,))
        with pytest.raises(ValueError, match="over the arena budget"):
            nm.Arena().param((10**20, 10**20))

    def test_a_config_is_refused_by_its_arena_size(self):
        """Built only, never allocated: a config declares into a storage-free arena."""
        GolferConfig(d=512, d_ff=2048)  # 14,454,790 parameters, under the budget
        with pytest.raises(ValueError, match="over the arena budget"):
            GolferConfig(d=10**6, heads=1)

    def test_load_params_writes_into_the_arena(self, tmp_path):
        params = init_model_params(TINY)
        path = tmp_path / "m.mnmg"
        save_params(params, path)
        loaded = load_params(path)
        assert loaded.values.tobytes() == params.values.tobytes()
        for name, p in loaded.named_parameters():
            assert np.shares_memory(p.value, loaded.values), name

    def test_zero_grads_clears_the_whole_arena(self):
        params = init_model_params(TINY)
        scene = _scene(24)
        gc = apply_goal_masking(scene.future, _rng(25), 0.85, scene.future_mask)
        tape = Tape()
        total, _ = total_loss_nodes(tape, forward_nodes(tape, scene, gc, params), scene.future,
                                    scene.future_mask, gc.exclusion_index, 1.0)
        tape.backward(total)
        assert params.grads.any()
        params.zero_grads()
        assert not params.grads.any()
        assert all(not p.grad.any() for p in params.parameters())


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

    def test_zero_decoder_width_rejected(self):
        for widths in ((0,), (16, 0), (-3,)):
            with pytest.raises(ValueError, match="decoder_hidden"):
                GolferConfig(decoder_hidden=widths)

    def test_embedded_zero_decoder_width_rejected(self, tmp_path):
        path = tmp_path / "m.mnmg"
        save_params(init_model_params(TINY), path)
        blob = path.read_bytes()
        (size,) = struct.unpack("<I", blob[8:12])
        config = {**json.loads(blob[12:12 + size]), "decoder_hidden": [0]}
        edited = json.dumps(config, sort_keys=True).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(edited)) + edited + blob[12 + size:])
        with pytest.raises(ModelFormatError, match="decoder_hidden"):
            load_params(path)

    def test_no_field_of_a_model_config_can_be_reassigned(self, tmp_path):
        params = init_model_params(TINY)
        for f in fields(TINY):
            with pytest.raises(FrozenInstanceError):
                setattr(params.config, f.name, getattr(params.config, f.name))
        path = tmp_path / "m.mnmg"
        save_params(params, path)
        assert load_params(path).config == TINY

    def test_version_1_file_is_refused(self, tmp_path):
        """Version-1 files still declared a token FFN in query-only blocks; no
        reader for them is kept."""
        path = tmp_path / "m.mnmg"
        save_params(init_model_params(TINY), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
        with pytest.raises(ModelFormatError, match="unsupported model version 1"):
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
