"""Smoke test of the benchmark: every workload at a tiny size, and every
correctness check rejecting a deliberately corrupted output.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE)]

import run  # noqa: E402  (pins BLAS and puts src/ and tests/ on the path)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
from golfer import ensemble, scene  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _workload(cls, tmp_path, seed=1):
    workload = cls(run.SMOKE, seed, tmp_path)
    workload.setup()
    rounds = [workload.run_round(run.ItemClock()) for _ in range(workload.min_rounds)]
    return workload, rounds


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_workload_runs_and_reports_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"] and math.isfinite(reported["value"])


def test_train_checks_reject_corrupted_outputs(tmp_path):
    workload, rounds = _workload(run.TrainDefault, tmp_path)
    quality, failures = workload.finish(rounds)
    assert failures == [] and quality > 0

    _, values, trace = rounds[0]
    totals, epochs = [t for _, t in trace], [e for e, _ in trace]
    checks.check_trace(totals, epochs)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace(totals[:-1] + [math.nan], epochs)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace(totals[::-1], epochs)

    ts = workload.sets[0]
    workload._load(ts.params, values)
    gc = scene.prediction_conditioning(ts.model_config.horizon)
    preds = [run.model.forward(s, gc, ts.params) for s in ts.heldout]
    own = [checks.plain_min_ade(p.means, s.future, s.future_mask) for p, s in zip(preds, ts.heldout)]
    program = [ensemble.min_ade(p.means, s.future, s.future_mask)
               for p, s in zip(preds, ts.heldout)]
    checks.check_min_ade_agrees(own, program)
    with pytest.raises(checks.CheckFailed):
        checks.check_min_ade_agrees([own[0] + 1e-6] + own[1:], program)

    untrained = np.mean([checks.plain_min_ade(run.model.forward(s, gc, run.model.load_params(
        ts.init_path)).means, s.future, s.future_mask) for s in ts.heldout])
    checks.check_training_helps(float(np.mean(own)), float(untrained))
    with pytest.raises(checks.CheckFailed):
        checks.check_training_helps(float(untrained), float(np.mean(own)))

    means = preds[0].means
    checks.check_bitwise_equal(means, means.copy(), "means")
    with pytest.raises(checks.CheckFailed):
        checks.check_bitwise_equal(np.nextafter(means, np.inf), means, "means")

    backprop, central = workload._directional_derivative(ts)
    checks.check_directional_derivative(backprop, central)
    with pytest.raises(checks.CheckFailed):
        checks.check_directional_derivative(backprop * 1.01 + 1e-3, central)


def test_ensemble_checks_reject_corrupted_outputs(tmp_path):
    workload, rounds = _workload(run.EnsembleCrowded, tmp_path)
    quality, failures = workload.finish(rounds)
    assert failures == [] and quality > 0

    preds, out = rounds[0][0]
    horizon = out.centroids.shape[1]
    checks.check_ensemble_output(out.centroids, out.probs, run.ENSEMBLE_K, horizon)
    with pytest.raises(checks.CheckFailed):
        checks.check_ensemble_output(out.centroids[1:], out.probs[1:], run.ENSEMBLE_K, horizon)
    with pytest.raises(checks.CheckFailed):
        checks.check_ensemble_output(out.centroids, out.probs * 1.01, run.ENSEMBLE_K, horizon)

    points = np.concatenate([p.means for p in preds])
    weights = np.concatenate([p.probs for p in preds])
    checks.check_lloyd(points, weights, out.centroids)
    shifted = out.centroids.copy()
    shifted[0, :, 0] += 0.5
    with pytest.raises(checks.CheckFailed):
        checks.check_lloyd(points, weights, shifted)

    member, pred = workload.members[0], preds[0]
    f_enc = oracles.ref_encode_scene(member, workload.scenes[0],
                                     goal=scene.encode_goal_element(workload.gc),
                                     placement=scene.PLACE_AGENTS)
    ref_means, _, _, ref_probs = oracles.ref_decode(member, f_enc)
    checks.check_matches_oracle(pred.means, pred.probs, ref_means, ref_probs)
    perturbed = pred.means.copy()
    perturbed[2, 5, 1] += 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_matches_oracle(perturbed, pred.probs, ref_means, ref_probs)


def test_gradcheck_check_rejects_a_large_error(tmp_path):
    workload, rounds = _workload(run.GradcheckTiny, tmp_path)
    quality, failures = workload.finish(rounds)
    assert failures == [] and quality > 0
    checks.check_gradient_sweep(rounds[0])
    for corrupted in (2e-4, math.nan):
        with pytest.raises(checks.CheckFailed):
            checks.check_gradient_sweep(corrupted)
