import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from golfer import training
from golfer.cli import main
from golfer.ensemble import min_ade
from golfer.gradcheck import TINY_CONFIG as GRADCHECK_TINY
from golfer.model import GolferConfig, forward, forward_nodes, init_model_params
from golfer.numerics import EmptySetError, Parameter, Tape
from golfer.scene import (
    FieldError,
    GeneratorConfig,
    apply_goal_masking,
    generate_dataset,
    prediction_conditioning,
)
from golfer.training import (
    AdamState,
    TrainConfig,
    TrainingError,
    optimizer_step,
    select_winner,
    total_loss_nodes,
    train,
)

from oracles import (
    classification_loss,
    gmm_nll,
    ref_adam_step,
    ref_cross_entropy,
    ref_gaussian_nll,
    ref_winner,
    total_loss,
)
from test_acceptance import REPRO_CONFIG

LOG_2PI = math.log(2.0 * math.pi)
LOG_6 = math.log(6.0)


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _prediction(seed, k=6, horizon=8):
    from golfer.model import Prediction

    rng = _rng(seed)
    logits = rng.normal(size=k)
    e = np.exp(logits - logits.max())
    return Prediction(
        means=rng.normal(size=(k, horizon, 2)) * 5,
        log_sigmas=rng.normal(size=(k, horizon, 2)) * 0.3,
        logits=logits,
        probs=e / e.sum(),
    )


class TestSelectWinner:
    def test_exact_match_wins(self):
        gt = _rng(0).normal(size=(8, 2))
        means = _rng(1).normal(size=(3, 8, 2)) * 10
        means[1] = gt
        assert select_winner(means, gt, np.ones(8, dtype=bool)) == 1

    def test_constant_offsets(self):
        gt = np.zeros((5, 2))
        means = np.stack([gt + (1.0, 0.0), gt + (0.0, 2.0)])
        assert select_winner(means, gt, np.ones(5, dtype=bool)) == 0

    def test_matches_brute_force(self):
        for seed in range(20):
            rng = _rng(seed)
            gt = rng.normal(size=(8, 2)) * 4
            means = rng.normal(size=(6, 8, 2)) * 4
            valid = rng.random(8) < 0.8
            if not valid.any():
                valid[0] = True
            assert select_winner(means, gt, valid) == ref_winner(means, gt, valid)

    def test_invariant_to_positive_rescaling(self):
        rng = _rng(30)
        gt = rng.normal(size=(8, 2))
        means = rng.normal(size=(4, 8, 2))
        valid = np.ones(8, dtype=bool)
        base = select_winner(means, gt, valid)
        for lam in (0.1, 3.0, 250.0):
            assert select_winner(means * lam, gt * lam, valid) == base

    def test_no_valid_steps(self):
        with pytest.raises(EmptySetError):
            select_winner(np.zeros((2, 4, 2)), np.zeros((4, 2)), np.zeros(4, dtype=bool))


class TestGmmNll:
    def test_zero_residual_unit_sigma_closed_form(self):
        gt = _rng(2).normal(size=(6, 2))
        nll = gmm_nll(gt.copy(), np.zeros((6, 2)), gt, np.ones(6, dtype=bool))
        assert abs(nll - LOG_2PI) < 1e-12

    def test_exclusion_removes_exactly_that_step(self):
        rng = _rng(3)
        mu, ls, gt = rng.normal(size=(6, 2)), rng.normal(size=(6, 2)) * 0.2, rng.normal(size=(6, 2))
        valid = np.ones(6, dtype=bool)
        excl = 2
        with_excl = gmm_nll(mu, ls, gt, valid, exclusion_index=excl)
        remaining = valid.copy()
        remaining[excl] = False
        assert with_excl == gmm_nll(mu, ls, gt, remaining)

    def test_matches_density_oracle(self):
        for seed in range(20):
            rng = _rng(seed + 40)
            mu, ls, gt = rng.normal(size=(8, 2)), rng.normal(size=(8, 2)), rng.normal(size=(8, 2))
            valid = rng.random(8) < 0.8
            if not valid.any():
                valid[3] = True
            expected = ref_gaussian_nll(mu, ls, gt, valid)
            assert abs(gmm_nll(mu, ls, gt, valid) - expected) < 1e-10

    def test_strictly_decreases_as_mean_approaches_gt(self):
        rng = _rng(4)
        gt = rng.normal(size=(5, 2))
        ls = rng.normal(size=(5, 2)) * 0.1
        offsets = np.linspace(3.0, 0.0, 7)
        values = [gmm_nll(gt + off, ls, gt, np.ones(5, dtype=bool)) for off in offsets]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_no_counted_steps(self):
        valid = np.zeros(4, dtype=bool)
        valid[1] = True
        with pytest.raises(EmptySetError):
            gmm_nll(np.zeros((4, 2)), np.zeros((4, 2)), np.zeros((4, 2)), valid,
                    exclusion_index=1)


class TestClassificationLoss:
    def test_uniform_logits_closed_form(self):
        assert abs(classification_loss(np.zeros(6), 2) - LOG_6) < 1e-12

    def test_loss_vanishes_as_winner_logit_grows(self):
        losses = [classification_loss(np.array([g, 0.0, 0.0]), 0) for g in (0.0, 2.0, 8.0, 30.0)]
        assert all(a > b for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-12

    def test_matches_oracle(self):
        for seed in range(20):
            logits = _rng(seed + 60).normal(size=6) * 3
            winner = seed % 6
            assert abs(classification_loss(logits, winner) - ref_cross_entropy(logits, winner)) < 1e-12

    def test_winner_out_of_range(self):
        with pytest.raises(ValueError):
            classification_loss(np.zeros(3), 5)


class TestTotalLoss:
    def test_lambda_zero_reduces_to_regression(self):
        pred = _prediction(5)
        gt = _rng(6).normal(size=(8, 2))
        valid = np.ones(8, dtype=bool)
        breakdown = total_loss(pred, gt, valid, None, lam=0.0)
        assert breakdown.total == breakdown.regression_nll

    def test_total_composition_invariant(self):
        for seed in range(10):
            pred = _prediction(seed + 70)
            gt = _rng(seed + 80).normal(size=(8, 2))
            lam = 0.7
            b = total_loss(pred, gt, np.ones(8, dtype=bool), None, lam)
            assert abs(b.total - (b.regression_nll + lam * b.classification_ce)) < 1e-12

    def test_perfect_confident_winner_approaches_log_2pi(self):
        pred = _prediction(7, k=3)
        gt = _rng(8).normal(size=(8, 2))
        pred.means[1] = gt
        pred.log_sigmas[1] = 0.0
        pred.logits[:] = (0.0, 40.0, 0.0)
        breakdown = total_loss(pred, gt, np.ones(8, dtype=bool), None, lam=1.0)
        assert breakdown.winner_index == 1
        assert abs(breakdown.total - LOG_2PI) < 1e-9

    def test_excluded_step_has_exactly_zero_influence(self):
        for seed in range(100):
            rng = _rng(seed + 900)
            pred = _prediction(seed + 200, k=4)
            gt = rng.normal(size=(8, 2)) * 5
            valid = np.ones(8, dtype=bool)
            excl = int(rng.integers(0, 8))
            base = total_loss(pred, gt, valid, excl, lam=1.0)
            gt2 = gt.copy()
            gt2[excl] += rng.normal(size=2) * 100
            again = total_loss(pred, gt2, valid, excl, lam=1.0)
            assert again.regression_nll == base.regression_nll
            assert again.winner_index == base.winner_index

    @pytest.mark.parametrize("index", [-1, 8, 99, 3])
    def test_an_exclusion_off_the_valid_steps_is_named(self, index):
        """Negative, out of range, or on the invalid step 3."""
        valid = np.ones(8, dtype=bool)
        valid[3] = False
        with pytest.raises(ValueError, match=f"exclusion index {index} "):
            total_loss(_prediction(9), _rng(10).normal(size=(8, 2)), valid, index, lam=1.0)


TINY_MODEL = GolferConfig(d=16, heads=2, fe_depth=1, interact_depth=1, k_modes=3,
                          horizon=16, d_ff=32, decoder_hidden=(16,), seed=1)

# Gradient values the arena step must treat exactly as a per-tensor step does:
# signed zeros, subnormals, the smallest normal, and large finite values.
_SPECIAL_GRADS = [-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -2.2250738585072014e-308,
                  1e150, -1e150, 1e153, 1.0, -3.0]

_DEFAULT_PARAMS = []


def _default_params():
    """A default-config model (more than one Adam chunk) and its initial values."""
    if not _DEFAULT_PARAMS:
        params = init_model_params(GolferConfig())
        _DEFAULT_PARAMS.append((params, params.values.copy()))
    return _DEFAULT_PARAMS[0]


def _arena_offset(params, p) -> int:
    """Where a named tensor starts in the flat arena, in elements."""
    return (p.value.__array_interface__["data"][0]
            - params.values.__array_interface__["data"][0]) // params.values.itemsize


def _per_tensor(named):
    """Copies of the values and zero moments, per name, for `ref_adam_step`."""
    return ({name: p.value.copy() for name, p in named},
            {name: np.zeros_like(p.value) for name, p in named},
            {name: np.zeros_like(p.value) for name, p in named})


class TestOptimizer:
    def test_zero_grads_leave_params_unchanged(self):
        params = init_model_params(TINY_MODEL)
        before = params.values.copy()
        state = AdamState.create(params.values.size, TrainConfig())
        optimizer_step(params, state)
        assert (params.values == before).all()
        assert state.step_count == 1

    def test_quadratic_convergence(self):
        # Every parameter descends its own w**2 from its initial value.
        params = init_model_params(TINY_MODEL)
        state = AdamState.create(params.values.size, TrainConfig(lr=0.05))
        for _ in range(500):
            params.grads[...] = 2.0 * params.values
            optimizer_step(params, state)
        assert np.abs(params.values).max() < 1e-3

    def test_two_runs_are_bit_identical(self):
        def run():
            rng = _rng(10)
            params = init_model_params(TINY_MODEL)
            state = AdamState.create(params.values.size, TrainConfig(lr=0.01))
            for _ in range(50):
                params.grads[...] += rng.normal(size=params.grads.size)
                optimizer_step(params, state)
            return params.values.tobytes()

        assert run() == run()

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           specials=st.lists(st.sampled_from(_SPECIAL_GRADS), min_size=1, max_size=24),
           steps=st.integers(1, 4))
    def test_arena_step_matches_per_tensor_adam_bitwise(self, seed, specials, steps):
        params, initial = _default_params()
        params.values[...] = initial
        chunk = training.ADAM_CHUNK
        named = list(params.named_parameters())
        assert params.values.size > chunk
        assert any(_arena_offset(params, p) // chunk
                   != (_arena_offset(params, p) + p.value.size - 1) // chunk for _, p in named)
        rng = _rng(seed)
        config = TrainConfig(lr=3e-3)
        state = AdamState.create(params.values.size, config)
        values, m, v = _per_tensor(named)
        for t in range(1, steps + 1):
            grads = rng.normal(size=params.grads.size) * 10.0 ** int(rng.integers(-8, 3))
            # Specials at random places and on both sides of every chunk boundary.
            places = np.concatenate([rng.integers(0, grads.size, len(specials)),
                                     np.arange(chunk - 1, grads.size, chunk),
                                     np.arange(chunk, grads.size, chunk)])
            grads[places] = np.resize(specials, places.size)
            params.grads[...] = grads
            ref_adam_step(values, {name: p.grad.copy() for name, p in named}, m, v, t,
                          config.lr, config.beta1, config.beta2, config.epsilon)
            optimizer_step(params, state)
            assert not params.grads.any()
        assert state.step_count == steps
        for name, p in named:
            assert p.value.tobytes() == values[name].tobytes(), name

    def test_finite_grads_whose_squares_overflow_step_normally(self):
        params = init_model_params(TINY_MODEL)
        named = list(params.named_parameters())
        config = TrainConfig()
        state = AdamState.create(params.values.size, config)
        dict(named)["fusion.1.w"].grad[0, 0] = 1e200
        dict(named)["cls.0.b"].grad[1] = -1e200
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.dot(params.grads, params.grads))
        values, m, v = _per_tensor(named)
        grads = {name: p.grad.copy() for name, p in named}
        with np.errstate(over="ignore"):  # their second moments overflow to inf
            ref_adam_step(values, grads, m, v, 1, config.lr, config.beta1, config.beta2,
                          config.epsilon)
            optimizer_step(params, state)
        assert state.step_count == 1
        for name, p in named:
            assert p.value.tobytes() == values[name].tobytes(), name

    def test_non_finite_grad_names_the_parameter(self):
        for non_finite in (np.inf, -np.inf, np.nan):
            params = init_model_params(TINY_MODEL)
            state = AdamState.create(params.values.size, TrainConfig())
            params.grads[...] = 0.5
            optimizer_step(params, state)  # the moments are nonzero from here on
            params.grads[...] = 0.25
            dict(params.named_parameters())["fusion.1.w"].grad[0, 1] = non_finite
            arrays = (params.values, params.grads, state.m, state.v)
            before = [a.copy() for a in arrays]
            with pytest.raises(TrainingError, match=r"'fusion\.1\.w'"):
                optimizer_step(params, state)
            # Nothing was half-applied: the step is checked whole before it is taken.
            for now, then in zip(arrays, before):
                np.testing.assert_array_equal(now, then)
            assert state.step_count == 1


class _FlatParams:
    """An arena of one tensor, standing in for ModelParams in optimizer_step."""

    def __init__(self, values):
        self.values, self.grads = values, np.zeros_like(values)

    def named_parameters(self):
        yield "arena", Parameter(self.values, self.grads)


BLOCK = training.ADAM_BLOCK


class TestUntouchedBlocks:
    """Adam skips the arena blocks that have never held a non-zero gradient."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           size=st.one_of(st.integers(1, 4).map(lambda n: n * BLOCK), st.integers(1, 5 * BLOCK)),
           steps=st.integers(2, 5),
           specials=st.lists(st.sampled_from([-0.0, 5e-324, -5e-324, 1e-170]), min_size=1,
                             max_size=8))
    def test_skipping_step_matches_per_tensor_adam_bitwise(self, seed, size, steps, specials):
        """Blocks wake at random steps, zero stretches are aligned and
        unaligned to blocks, and -0.0, subnormal gradients and gradients whose
        square is 0 land anywhere, in sleeping blocks too. The touched blocks
        are exactly those that have held a non-zero."""
        rng = _rng(seed)
        blocks = -(-size // BLOCK)
        wake = rng.integers(1, steps + 2, size=blocks)  # steps + 1: never wakes
        params = _FlatParams(rng.normal(size=size))
        config = TrainConfig(lr=3e-3)
        state = AdamState.create(size, config)
        values = {"arena": params.values.copy()}
        m, v = {"arena": np.zeros(size)}, {"arena": np.zeros(size)}
        held = np.zeros(blocks, dtype=bool)
        for t in range(1, steps + 1):
            grads = rng.normal(size=size) * 10.0 ** int(rng.integers(-8, 3))
            grads[np.repeat(wake > t, BLOCK)[:size]] = 0.0
            for _ in range(int(rng.integers(0, 3))):
                lo = int(rng.integers(0, size))
                grads[lo:lo + int(rng.integers(1, 2 * BLOCK))] = 0.0
            grads[rng.integers(0, size, len(specials))] = specials
            params.grads[...] = grads
            held |= np.logical_or.reduceat(grads != 0.0, np.arange(0, size, BLOCK))
            ref_adam_step(values, {"arena": grads}, m, v, t, config.lr, config.beta1,
                          config.beta2, config.epsilon)
            optimizer_step(params, state)
            assert not params.grads.any()
            for name, ours, ref in (("values", params.values, values), ("m", state.m, m),
                                    ("v", state.v, v)):
                assert ours.tobytes() == ref["arena"].tobytes(), (name, t)
            assert (state.touched == held).all()

    def test_non_finite_grad_in_a_never_touched_block_raises_before_any_change(self):
        params = init_model_params(TINY_MODEL)
        state = AdamState.create(params.values.size, TrainConfig())
        params.grads[:BLOCK] = 0.5
        optimizer_step(params, state)
        last = dict(params.named_parameters())["cls.1.b"]
        assert not state.touched[_arena_offset(params, last) // BLOCK]
        for non_finite in (np.inf, -np.inf, np.nan):
            params.grads[:BLOCK] = 0.25
            last.grad[0] = non_finite
            arrays = (params.values, params.grads, state.m, state.v, state.touched)
            before = [a.copy() for a in arrays]
            with pytest.raises(TrainingError, match=r"'cls\.1\.b'"):
                optimizer_step(params, state)
            for now, then in zip(arrays, before):
                assert now.tobytes() == then.tobytes()
            assert state.step_count == 1

    def test_query_only_blocks_declare_no_token_ffn(self):
        """The last block of each interaction stack updates only its query, so
        it declares no token FFN and the arena holds no weights that no forward
        reads. An earlier block of a deeper stack keeps its FFN, and a training
        sample's gradient reaches it."""
        rng = _rng(11)
        for config, size in ((GolferConfig(), 332_038), (DEEP_PROJ, 467_974),
                             (GRADCHECK_TINY, 12_931)):
            params = init_model_params(config)
            assert params.values.size == size
            names = dict(params.named_parameters())
            for stack in (params.road_interact, params.agent_interact):
                assert stack[-1].w1 is None and stack[-1].w2 is None
                assert all(block.w1 is not None and block.w2 is not None for block in stack[:-1])
            ffn = [name for name in names if name.startswith("interact.") and
                   name.endswith((".w1", ".w2"))]
            depth = config.interact_depth
            assert ffn == [f"interact.{s}.{i}.{w}" for s in ("road", "agent")
                           for i in range(depth - 1) for w in ("w1", "w2")]
            scene = _sample_scenes(config, 1)[0]
            gc = apply_goal_masking(scene.future, rng, 0.85, scene.future_mask)
            tape = Tape()
            total, _ = total_loss_nodes(tape, forward_nodes(tape, scene, gc, params),
                                        scene.future, scene.future_mask, gc.exclusion_index, 1.0)
            tape.backward(total)
            assert all(names[name].grad.any() for name in ffn)


class TestTrainLoop:
    def test_trace_is_finite_and_consistent(self):
        scenes = generate_dataset(GeneratorConfig(seed=21), 4)
        params, trace = train(scenes, TINY_MODEL, TrainConfig(epochs=2, seed=0))
        assert len(trace) == 8
        for rec in trace:
            assert math.isfinite(rec.total)
            assert abs(rec.total - (rec.regression_nll + rec.classification_ce)) < 1e-12

    def test_full_loop_determinism(self, tmp_path):
        from golfer.model import save_params

        scenes = generate_dataset(GeneratorConfig(seed=22), 4)
        paths = []
        for name in ("a", "b"):
            params, _ = train(scenes, TINY_MODEL, TrainConfig(epochs=2, seed=5))
            path = tmp_path / f"{name}.mnmg"
            save_params(params, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_fully_masked_run_reproducible_and_distinct_seeds_differ(self):
        scenes = generate_dataset(GeneratorConfig(seed=23), 3)
        p1, _ = train(scenes, TINY_MODEL, TrainConfig(epochs=1, mask_ratio=1.0, seed=2))
        p2, _ = train(scenes, TINY_MODEL, TrainConfig(epochs=1, mask_ratio=1.0, seed=2))
        flat1 = np.concatenate([p.value.ravel() for p in p1.parameters()])
        flat2 = np.concatenate([p.value.ravel() for p in p2.parameters()])
        assert (flat1 == flat2).all()

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            train([], TINY_MODEL, TrainConfig(epochs=1))

    def test_scene_without_a_valid_future_step_rejected_before_step_0(self):
        scenes = generate_dataset(GeneratorConfig(seed=24), 3)
        scenes[1].future_mask[:] = False
        params = init_model_params(TINY_MODEL)
        before = [p.value.copy() for p in params.parameters()]
        with pytest.raises(EmptySetError, match="scene 1"):
            train(scenes, TINY_MODEL, TrainConfig(epochs=1), params=params)
        assert all((p.value == b).all() for p, b in zip(params.parameters(), before))

    def test_a_scene_of_another_horizon_is_rejected_before_step_0(self):
        scenes = [*generate_dataset(GeneratorConfig(seed=26), 2),
                  *generate_dataset(GeneratorConfig(seed=27, horizon=8), 1)]
        params = init_model_params(TINY_MODEL)
        before = params.values.copy()
        with pytest.raises(ValueError, match="scene 2 has horizon 8, the model's is 16"):
            train(scenes, TINY_MODEL, TrainConfig(epochs=1), params=params)
        assert params.values.tobytes() == before.tobytes()
        with pytest.raises(ValueError, match="scene 2 has horizon 8"):
            train(scenes, TINY_MODEL, TrainConfig(epochs=1))

    @pytest.mark.parametrize("field, value, message", [
        *((field, value, f"value {value} out of range") for field, value in (
            ("epochs", 0), ("lr", -1.0), ("lr", 0.0), ("lr", math.nan), ("beta1", 1.0),
            ("beta1", -0.1), ("beta2", 1.0), ("epsilon", 0.0), ("seed", -1), ("lam", -1.0),
            ("lam", math.inf), ("mask_ratio", 1.5))),
        ("epochs", True, "expected an integer, got True"),
        ("lr", True, "expected a number, got True"),
        ("epochs", 2.5, r"expected an integer, got 2\.5"),
        ("seed", 1.5, r"expected an integer, got 1\.5"),
    ])
    def test_an_unusable_train_config_is_named_before_step_0(self, field, value, message):
        scenes = generate_dataset(GeneratorConfig(seed=28), 2)
        params = init_model_params(TINY_MODEL)
        before = params.values.copy()
        with pytest.raises(ValueError, match=f"^{field}: {message}$"):
            train(scenes, TINY_MODEL, TrainConfig(**{"epochs": 1, field: value}), params=params)
        assert params.values.tobytes() == before.tobytes() and not params.grads.any()

    @pytest.mark.parametrize("ratio", [1.5, -0.1, math.nan])
    def test_goal_masking_and_the_train_config_refuse_a_mask_ratio_alike(self, ratio):
        with pytest.raises(FieldError) as masking:
            apply_goal_masking(np.zeros((4, 2)), np.random.default_rng(0), ratio,
                               np.ones(4, dtype=bool))
        with pytest.raises(FieldError) as config:
            TrainConfig(mask_ratio=ratio)
        assert str(masking.value) == str(config.value) == f"mask_ratio: value {ratio} out of range"

    def test_no_field_of_a_train_config_can_be_reassigned(self):
        cfg = TrainConfig()
        for f in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, f.name, getattr(cfg, f.name))

    def test_scenes_with_one_valid_step_train(self):
        # At mask ratio 0 every step survives the coin, so a goal that could
        # land on the lone valid step would leave no step to score.
        scenes = generate_dataset(GeneratorConfig(seed=25), 8)
        for index, scene in enumerate(scenes):
            scene.future_mask[:] = False
            scene.future_mask[index] = True
        _, trace = train(scenes, TINY_MODEL, TrainConfig(epochs=4, mask_ratio=0.0, seed=0))
        assert len(trace) == 32 and all(math.isfinite(rec.total) for rec in trace)


def _mirrored(scene):
    """The scene with its future mirrored across the ego's heading (+x): y -> -y."""
    return dataclasses.replace(scene, future=scene.future * [1.0, -1.0])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="hard winner-take-all trains one mode, which predicts between the "
                          "branches (ROADMAP Direction 1)")
def test_a_forked_future_is_predicted_on_both_branches():
    """Each training scene appears twice, with the same inputs and with its
    future mirrored, so a multi-modal model should put a mode on each branch.
    Held out, the worse branch's minADE should be under half the mean |y|."""
    base = generate_dataset(GeneratorConfig(), 128 + 64)
    forks = [fork for scene in base[:128] for fork in (scene, _mirrored(scene))]
    params, _ = train(forks, GolferConfig(), TrainConfig(epochs=4))
    held_out = base[128:]
    gc = prediction_conditioning(GolferConfig().horizon)
    means = [forward(scene, gc, params).means for scene in held_out]
    branch_ade = [np.mean([min_ade(m, s.future * [1.0, sign], s.future_mask)
                           for m, s in zip(means, held_out)]) for sign in (1.0, -1.0)]
    mean_abs_y = np.mean([np.abs(s.future[s.future_mask, 1]).mean() for s in held_out])
    assert max(branch_ade) < 0.5 * mean_abs_y, (branch_ade, mean_abs_y)


def test_tape_records_per_default_training_sample_within_budget():
    """Elements, heads and modes are array axes; a per-element, per-head or
    per-mode op loop would push a default-config training sample far past
    this budget."""
    scenes = generate_dataset(GeneratorConfig(seed=0), 8)
    params = init_model_params(GolferConfig())
    rng = _rng(0)
    counts = []
    for scene in scenes:
        gc = apply_goal_masking(scene.future, rng, 0.85, scene.future_mask)
        tape = Tape()
        pred = forward_nodes(tape, scene, gc, params)
        total_loss_nodes(tape, pred, scene.future, scene.future_mask, gc.exclusion_index, 1.0)
        counts.append(len(tape._steps))
    assert np.mean(counts) <= 200, counts


def test_tape_records_per_crowded_scene_forward_within_budget():
    """A crowded scene (about 31 elements) encodes in one FE pass, so its
    forward records no more than a default scene's training sample."""
    scenes = generate_dataset(GeneratorConfig(seed=0, num_roads=(16, 24), num_agents=(8, 12)), 4)
    params = init_model_params(GolferConfig())
    for scene in scenes:
        tape = Tape()
        forward_nodes(tape, scene, prediction_conditioning(scene.horizon), params)
        assert len(tape._steps) <= 200, (len(scene.roads) + len(scene.agents), len(tape._steps))


DEEP_PROJ = GolferConfig(interact_depth=2, interact_proj=True)
CROWDED = dict(num_roads=(16, 24), num_agents=(8, 12))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _sample_scenes(model_config: GolferConfig, count: int, **generator):
    return generate_dataset(GeneratorConfig(seed=41, horizon=model_config.horizon, **generator),
                            count)


class TestPinnedBytes:
    """Forward outputs and trained parameters are pinned byte for byte: a
    change that only removes work from a forward or backward must not move
    them."""

    @pytest.mark.parametrize("config, generator, digest", [
        (GolferConfig(), {}, "26bde8b502eae71eedd13a9580ff3ffb23efebc3387c5547d5eda8400ae8e9ed"),
        (GolferConfig(), CROWDED, "8b9aa92049b59b8780485da5bff3fadf11b9a3efc7f46e4ebc8a824ba1719cdf"),
        (DEEP_PROJ, {}, "e4933b3e064b4fee6e042776186cfcea4efe0e468d3d5ff5556f2475ad7e99f0"),
        (GRADCHECK_TINY, {}, "d391b6457956abe8bbb08193182e0bd6e98066687a401024f171aa61ec35a7e1"),
    ], ids=["default", "crowded", "deep-proj", "gradcheck-tiny"])
    def test_forward_outputs_are_pinned(self, config, generator, digest):
        params = init_model_params(config)
        rng = _rng(7)
        outputs = []
        for scene in _sample_scenes(config, 3, **generator):
            for gc in (prediction_conditioning(scene.horizon),
                       apply_goal_masking(scene.future, rng, 0.85, scene.future_mask)):
                pred = forward(scene, gc, params)
                outputs += [pred.means, pred.log_sigmas, pred.logits]
        assert _digest(outputs) == digest

    @pytest.mark.parametrize("config, digest", [
        (GolferConfig(), "453b3d2b485d95c3b688f4947d6b1d60ee68f17ce61c1753e8eb83841935a41a"),
        (DEEP_PROJ, "8f43870d5ee1ec5e2061f5a3f6fc610cab6cdba180a00595d70ec01189ff8380"),
        (GRADCHECK_TINY, "83ffa4ac47ac0dce15c0c7a8144a448dc6ee58db26f752d6a5408dbac4ef6174"),
    ], ids=["default", "deep-proj", "gradcheck-tiny"])
    def test_trained_parameters_and_loss_trace_are_pinned(self, config, digest):
        params, trace = train(_sample_scenes(config, 8), config, TrainConfig(epochs=2, seed=4))
        losses = [(r.regression_nll, r.classification_ce, r.total) for r in trace]
        assert _digest([params.values, np.array(losses)]) == digest

    def test_training_sample_gradients_are_pinned(self):
        """The arena gradients of default-config training samples: a backward
        that forms a product another way must give the same bytes."""
        config = GolferConfig()
        params = init_model_params(config)
        rng = _rng(5)
        grads = []
        for scene in _sample_scenes(config, 3):
            gc = apply_goal_masking(scene.future, rng, 0.85, scene.future_mask)
            tape = Tape()
            pred = forward_nodes(tape, scene, gc, params)
            total, _ = total_loss_nodes(tape, pred, scene.future, scene.future_mask,
                                        gc.exclusion_index, 1.0)
            tape.backward(total)
            grads.append(params.grads.copy())
            params.zero_grads()
        assert _digest(grads) == "9d99831b1c138c8d0d56861b26ab65a3ac33f20c5cfd6b15f13d873cd82f5aab"

    def test_cli_metric_reports_and_prediction_files_are_pinned(self, tmp_path, capsys):
        """The `generate-data` file, the `evaluate` and `ensemble` stdout and
        the `predict` and `ensemble` files of the reproducibility config: a
        change to how scenes are generated and written, or to how modes are
        scored or predicted, must not move a byte of them."""
        cfg = tmp_path / "repro.cfg"
        cfg.write_text(REPRO_CONFIG)
        data, m1, m2, preds, ens = (str(tmp_path / name) for name in
                                    ("scenes.jsonl", "m1.mnmg", "m2.mnmg", "p.jsonl", "e.jsonl"))
        common = ["--config", str(cfg), "--data", data]
        assert main(["generate-data", "--config", str(cfg), "--out", data]) == 0
        assert main(["train", *common, "--out", m1]) == 0
        assert main(["train", *common, "--out", m2, "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["evaluate", *common, "--model", m1]) == 0
        evaluate_out = capsys.readouterr().out
        assert main(["predict", *common, "--model", m1, "--out", preds]) == 0
        capsys.readouterr()
        assert main(["ensemble", *common, "--model", m1, "--model", m2, "--out", ens]) == 0
        ensemble_out = capsys.readouterr().out
        digests = [hashlib.sha256(blob).hexdigest() for blob in (
            evaluate_out.encode(), ensemble_out.encode(),
            open(preds, "rb").read(), open(ens, "rb").read(), open(data, "rb").read())]
        assert digests == [
            "09f8d32026da58d547c0bd21cab02700cc8729fdd2ebcec2c5f2c219608167d2",
            "1702a5659bb4d28c35dc316aa746ddc4997a636f088decc3aba83550b4464126",
            "48b5aca144ae1008358aec11660c9bddc8e8632107ed8fb9eb02fda760e6f323",
            "6268c208dbfbf023a7ebee8f545149ef3380fc316e5b4c64d23c190d1cb02457",
            "8c4d8157d7c330436ece38121d24e6b5169d462323869d0e323c6282c7a7ee45",
        ]


@pytest.mark.parametrize("config", [GolferConfig(), GRADCHECK_TINY, DEEP_PROJ],
                         ids=["default", "gradcheck-tiny", "deep-proj"])
def test_every_recorded_op_of_a_training_sample_receives_a_gradient(config):
    """An op whose output no later op reads records work that backward never
    uses; the training graph holds none."""
    params = init_model_params(config)
    rng = _rng(3)
    for scene in _sample_scenes(config, 4):
        gc = apply_goal_masking(scene.future, rng, 0.85, scene.future_mask)
        tape = Tape()
        pred = forward_nodes(tape, scene, gc, params)
        total, _ = total_loss_nodes(tape, pred, scene.future, scene.future_mask,
                                    gc.exclusion_index, 1.0)
        tape.backward(total)
        dead = [step.__qualname__.split(".")[0] for node, step in tape._steps if node._grad is None]
        assert dead == [], dead
