"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The expensive training fixture is shared between the learning and
goal-conditioning criteria.
"""

import time

import numpy as np
import pytest

from golfer.cli import main
from golfer.ensemble import WeightedTrajectorySet, min_ade, min_fde, weighted_kmeans
from golfer.gradcheck import run_gradient_suite
from golfer.mnm import MatchKind, init_mnm_block, mnm_basic
from golfer.model import GolferConfig, encode_scene, forward, init_model_params
from golfer.numerics import Tape
from golfer.scene import (
    TOKEN_DIM,
    GeneratorConfig,
    GoalConditioning,
    Scene,
    SceneElement,
    apply_goal_masking,
    constant_velocity_baseline,
    generate_dataset,
    prediction_conditioning,
)
from golfer.training import TrainConfig, train

from oracles import check_lloyd_fixed_point, ref_prenorm_transformer_layer, total_loss


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({name}){': ' + detail if detail else ''}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# Criterion 6/7 shared artifacts -------------------------------------------

TRAIN_SCENES = 256
HELD_OUT_SCENES = 64
OVERFIT_CONFIG = GolferConfig(log_sigma_scale=0.25)
OVERFIT_TRAIN = TrainConfig(epochs=500, mask_ratio=1.0, seed=0, lr=2e-3,
                            beta2=0.99, epsilon=1e-5)


@pytest.fixture(scope="module")
def trained():
    data = generate_dataset(GeneratorConfig(seed=11), TRAIN_SCENES + HELD_OUT_SCENES)
    train_split, held_out = data[:TRAIN_SCENES], data[TRAIN_SCENES:]
    start = time.time()
    params, trace = train(train_split, GolferConfig(), TrainConfig())
    elapsed = time.time() - start
    return params, held_out, trace, elapsed


def test_criterion_1_gradient_suite():
    start = time.time()
    results = run_gradient_suite()
    elapsed = time.time() - start
    worst = max(r.max_rel_error for r in results)
    failures = [r.name for r in results if not r.passed]
    ok = not failures and elapsed < 120.0
    _report(1, "gradient suite", ok,
            f"worst rel error {worst:.2e}, {len(results)} checks, {elapsed:.0f}s"
            + (f", failures: {failures}" if failures else ""))


def test_criterion_2_transformer_subsumption():
    worst = 0.0
    case = 0
    for heads in (1, 2):
        for _ in range(25):
            block = init_mnm_block(_rng(case), 8, heads, 16, MatchKind.ATTENTION_MATMUL)
            x = _rng(case + 1000).normal(size=(6, 8))
            mask = np.ones(6, dtype=bool)
            tape = Tape()
            ours = mnm_basic(tape, tape.constant(x), mask, block).value
            reference = ref_prenorm_transformer_layer(
                x, mask, heads,
                block.norm_mix_gamma.value, block.norm_mix_beta.value,
                block.norm_ffn_gamma.value, block.norm_ffn_beta.value,
                block.w1.value, block.w2.value,
            )
            worst = max(worst, np.abs(ours - reference).max())
            case += 1
    _report(2, "transformer subsumption", worst < 1e-10,
            f"max |diff| {worst:.2e} over 50 seeded inputs")


def test_criterion_3_set_and_mask_invariance():
    params = init_model_params(GolferConfig())
    scenes = generate_dataset(GeneratorConfig(seed=77), 100)
    worst_perm = 0.0
    exact_pad = True
    for i, scene in enumerate(scenes):
        rng = _rng(5000 + i)
        base = encode_scene(Tape(), scene, params).value

        shuffled = Scene(
            ego=scene.ego,
            agents=[scene.agents[j] for j in rng.permutation(len(scene.agents))],
            roads=[scene.roads[j] for j in rng.permutation(len(scene.roads))],
            future=scene.future,
            future_mask=scene.future_mask,
        )
        worst_perm = max(worst_perm,
                         np.abs(encode_scene(Tape(), shuffled, params).value - base).max())

        ghost = SceneElement(kind="road", tokens=np.zeros((3, TOKEN_DIM)),
                             mask=np.zeros(3, dtype=bool), context=np.zeros(8))
        first_road = scene.roads[0]
        padded_road = SceneElement(
            kind=first_road.kind,
            tokens=np.vstack([first_road.tokens, rng.normal(size=(2, TOKEN_DIM))]),
            mask=np.append(first_road.mask, [False, False]),
            context=first_road.context,
        )
        padded = Scene(ego=scene.ego, agents=[*scene.agents, ghost],
                       roads=[padded_road, *scene.roads[1:], ghost],
                       future=scene.future, future_mask=scene.future_mask)
        if not (encode_scene(Tape(), padded, params).value == base).all():
            exact_pad = False
    ok = worst_perm <= 1e-12 and exact_pad
    _report(3, "set/mask invariance", ok,
            f"max permutation deviation {worst_perm:.2e}, padding exact: {exact_pad}")


def test_criterion_4_masking_statistics():
    rng = _rng(99)
    future = np.zeros((16, 2))
    draws = 10_000
    fully_masked = 0
    on_agents = 0
    max_visible = 0
    for _ in range(draws):
        gc = apply_goal_masking(future, rng, 0.85, np.ones(16, dtype=bool))
        visible = int(gc.step_mask.sum())
        max_visible = max(max_visible, visible)
        fully_masked += visible == 0
        on_agents += gc.placement == "agents"
    frac_masked = fully_masked / draws
    frac_agents = on_agents / draws
    ok = (abs(frac_masked - 0.85 ** 16) < 0.01
          and abs(frac_agents - 0.5) < 0.02
          and max_visible <= 1)
    _report(4, "masking statistics", ok,
            f"fully-masked {frac_masked:.4f} (target {0.85 ** 16:.4f}+-0.01), "
            f"agents placement {frac_agents:.4f}+-0.02, max visible {max_visible}")


def test_criterion_5_loss_exclusion():
    from golfer.model import Prediction

    exact = True
    for seed in range(100):
        rng = _rng(seed + 31337)
        k, horizon = 6, 16
        logits = rng.normal(size=k)
        e = np.exp(logits - logits.max())
        pred = Prediction(
            means=rng.normal(size=(k, horizon, 2)) * 8,
            log_sigmas=rng.normal(size=(k, horizon, 2)) * 0.5,
            logits=logits,
            probs=e / e.sum(),
        )
        gt = rng.normal(size=(horizon, 2)) * 8
        valid = np.ones(horizon, dtype=bool)
        excl = int(rng.integers(0, horizon))
        base = total_loss(pred, gt, valid, excl, lam=1.0)
        gt2 = gt.copy()
        gt2[excl] += rng.normal(size=2) * 1000
        if total_loss(pred, gt2, valid, excl, lam=1.0).regression_nll != base.regression_nll:
            exact = False
    _report(5, "loss exclusion", exact, "100 seeded cases, exact-zero sensitivity")


def test_criterion_6_learning_check(trained):
    params, held_out, trace, train_elapsed = trained
    gc = prediction_conditioning(params.config.horizon)
    model_ade = np.mean([
        min_ade(forward(s, gc, params).means, s.future, s.future_mask) for s in held_out
    ])
    baseline_ade = np.mean([
        min_ade(constant_velocity_baseline(s)[None], s.future, s.future_mask) for s in held_out
    ])
    learned_ok = model_ade <= 0.8 * baseline_ade and train_elapsed < 900.0

    overfit_scene = generate_dataset(GeneratorConfig(seed=3), 1)
    start = time.time()
    overfit_params, _ = train(overfit_scene, OVERFIT_CONFIG, OVERFIT_TRAIN)
    overfit_elapsed = time.time() - start
    pred = forward(overfit_scene[0], prediction_conditioning(16), overfit_params)
    overfit_ade = min_ade(pred.means, overfit_scene[0].future, overfit_scene[0].future_mask)
    overfit_ok = overfit_ade < 0.1

    _report(6, "learning check", learned_ok and overfit_ok,
            f"held-out minADE {model_ade:.3f} vs baseline {baseline_ade:.3f} "
            f"(need <= {0.8 * baseline_ade:.3f}), train {train_elapsed:.0f}s; "
            f"overfit minADE {overfit_ade:.4f} in 500 steps ({overfit_elapsed:.0f}s)")


def test_criterion_7_goal_conditioning_effect(trained):
    params, held_out, _, _ = trained
    horizon = params.config.horizon
    masked_gc = prediction_conditioning(horizon)
    masked_fde, guided_fde = [], []
    for scene in held_out:
        step_mask = np.zeros(horizon, dtype=bool)
        step_mask[horizon - 1] = True
        guided = GoalConditioning(
            masked_future=np.where(step_mask[:, None], scene.future, 0.0),
            step_mask=step_mask,
            placement="agents",
            exclusion_index=horizon - 1,
        )
        masked_fde.append(min_fde(forward(scene, masked_gc, params).means,
                                  scene.future, scene.future_mask))
        guided_fde.append(min_fde(forward(scene, guided, params).means,
                                  scene.future, scene.future_mask))
    masked_mean = float(np.mean(masked_fde))
    guided_mean = float(np.mean(guided_fde))
    _report(7, "goal-conditioning effect", guided_mean < masked_mean,
            f"mean minFDE unmasked-final {guided_mean:.3f} < fully-masked {masked_mean:.3f}")


def test_criterion_8_ensemble_correctness():
    worst_fp = 0.0
    worst_prob = 0.0
    for seed in range(100):
        rng = _rng(seed + 4242)
        n = int(rng.integers(8, 24))
        k = int(rng.integers(2, 7))
        ts = WeightedTrajectorySet(
            trajectories=rng.normal(size=(n, 16, 2)) * 5,
            weights=rng.random(n) + 0.01,
        )
        out = weighted_kmeans(ts, k, rng)
        worst_fp = max(worst_fp, check_lloyd_fixed_point(
            ts.trajectories.reshape(n, -1), ts.weights, out.centroids.reshape(k, -1)))
        worst_prob = max(worst_prob, abs(out.probs.sum() - 1.0))

    rng = _rng(512)
    k = 5
    ts = WeightedTrajectorySet(trajectories=rng.normal(size=(k, 16, 2)) * 5,
                               weights=np.ones(k))
    out = weighted_kmeans(ts, k, rng)
    inputs = {t.tobytes() for t in ts.trajectories}
    identity_ok = {c.tobytes() for c in out.centroids} == inputs

    ok = worst_fp < 1e-9 and worst_prob < 1e-9 and identity_ok
    _report(8, "ensemble correctness", ok,
            f"max fixed-point violation {worst_fp:.2e}, max prob-sum error {worst_prob:.2e}, "
            f"N==k identity {identity_ok}")


REPRO_CONFIG = """
data.num_scenes=12
data.num_roads_min=2
data.num_roads_max=4
data.num_agents_min=1
data.num_agents_max=2
data.points_per_polyline=6
data.history_steps=6
data.horizon=8
model.d=16
model.heads=2
model.fe_depth=1
model.k_modes=3
model.d_ff=32
model.decoder_hidden=32
train.epochs=2
ensemble.k=4
"""


def test_criterion_9_reproducibility(tmp_path, capsys):
    cfg = tmp_path / "repro.cfg"
    cfg.write_text(REPRO_CONFIG)
    artifacts = []
    for tag in ("a", "b"):
        data = str(tmp_path / f"{tag}_scenes.jsonl")
        model_1 = str(tmp_path / f"{tag}_m1.mnmg")
        model_2 = str(tmp_path / f"{tag}_m2.mnmg")
        preds = str(tmp_path / f"{tag}_preds.jsonl")
        ens = str(tmp_path / f"{tag}_ens.jsonl")
        assert main(["generate-data", "--config", str(cfg), "--out", data]) == 0
        assert main(["train", "--config", str(cfg), "--data", data, "--out", model_1]) == 0
        assert main(["train", "--config", str(cfg), "--data", data, "--out", model_2,
                     "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--data", data, "--model", model_1]) == 0
        eval_out = capsys.readouterr().out
        assert main(["predict", "--config", str(cfg), "--data", data, "--model", model_1,
                     "--out", preds]) == 0
        capsys.readouterr()
        assert main(["ensemble", "--config", str(cfg), "--data", data, "--model", model_1,
                     "--model", model_2, "--out", ens]) == 0
        ens_out = capsys.readouterr().out
        artifacts.append((
            open(data, "rb").read(),
            open(model_1, "rb").read(),
            open(model_1 + ".trace", "rb").read(),
            open(preds, "rb").read(),
            open(ens, "rb").read(),
            eval_out,
            ens_out,
        ))
    ok = artifacts[0] == artifacts[1]
    _report(9, "reproducibility", ok,
            "generate/train/evaluate/predict/ensemble byte-identical across two runs")
