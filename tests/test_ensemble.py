from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from unittest import mock

from golfer import ensemble
from golfer.cli import _metrics_record
from golfer.ensemble import (
    DegenerateInputError,
    WeightedTrajectorySet,
    ensemble_predict,
    min_ade,
    min_fde,
    mode_errors,
    weighted_kmeans,
)
from golfer.model import Prediction
from golfer.numerics import EmptySetError
from golfer.training import select_winner

from oracles import check_lloyd_fixed_point, ref_min_ade, ref_min_fde


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _set(seed, n=8, horizon=5, weights=None):
    rng = _rng(seed)
    trajs = rng.normal(size=(n, horizon, 2)) * 4
    w = np.full(n, 1.0) if weights is None else np.asarray(weights, dtype=float)
    return WeightedTrajectorySet(trajectories=trajs, weights=w)


def _prediction(seed, k=6, horizon=5):
    rng = _rng(seed)
    logits = rng.normal(size=k)
    e = np.exp(logits - logits.max())
    return Prediction(
        means=rng.normal(size=(k, horizon, 2)) * 4,
        log_sigmas=np.zeros((k, horizon, 2)),
        logits=logits,
        probs=e / e.sum(),
    )


class TestWeightedKmeans:
    def test_n_equals_k_returns_the_inputs(self):
        ts = _set(0, n=4)
        out = weighted_kmeans(ts, 4, _rng(1))
        np.testing.assert_allclose(out.probs, 0.25, atol=1e-12)
        flat_in = {tuple(t.ravel()) for t in ts.trajectories}
        flat_out = {tuple(c.ravel()) for c in out.centroids}
        assert flat_in == flat_out

    def test_all_weight_on_one_trajectory(self):
        ts = _set(2, n=5, weights=[0.0, 0.0, 1.0, 0.0, 0.0])
        out = weighted_kmeans(ts, 2, _rng(3))
        idx = int(np.argmax(out.probs))
        assert out.probs[idx] == 1.0
        assert (out.centroids[idx] == ts.trajectories[2]).all()

    def test_lloyd_fixed_point_small_case(self):
        ts = _set(4, n=4)
        out = weighted_kmeans(ts, 2, _rng(5))
        err = check_lloyd_fixed_point(
            ts.trajectories.reshape(4, -1), ts.weights, out.centroids.reshape(2, -1)
        )
        assert err < 1e-9

    def test_lloyd_fixed_point_seeded_instances(self):
        for seed in range(30):
            rng = _rng(seed + 100)
            n = int(rng.integers(8, 20))
            k = int(rng.integers(2, 7))
            ts = WeightedTrajectorySet(
                trajectories=rng.normal(size=(n, 6, 2)) * 3,
                weights=rng.random(n) + 0.05,
            )
            out = weighted_kmeans(ts, k, rng)
            err = check_lloyd_fixed_point(
                ts.trajectories.reshape(n, -1), ts.weights, out.centroids.reshape(k, -1)
            )
            assert err < 1e-9, f"seed {seed}"
            assert abs(out.probs.sum() - 1.0) < 1e-9
            assert (out.probs >= 0).all()

    def test_probs_invariant_to_uniform_weight_rescaling(self):
        ts = _set(6, n=10)
        base = weighted_kmeans(ts, 3, _rng(7))
        scaled = WeightedTrajectorySet(trajectories=ts.trajectories, weights=ts.weights * 4.0)
        again = weighted_kmeans(scaled, 3, _rng(7))
        assert (base.probs == again.probs).all()
        assert (base.centroids == again.centroids).all()

    def test_deterministic_given_seed(self):
        ts = _set(8, n=12)
        a = weighted_kmeans(ts, 4, _rng(9))
        b = weighted_kmeans(ts, 4, _rng(9))
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert a.probs.tobytes() == b.probs.tobytes()

    def test_an_emptied_cluster_restarts_at_the_farthest_weighted_point(self):
        # Both seeds lie far left of every point, so all points join cluster 0
        # and cluster 1 empties. Weighted by 5, (0,0) is the farthest point and
        # restarts cluster 1; then every point joins cluster 1, and cluster 0
        # restarts at (10,0), the farthest from it. Unweighted, (10,0) would
        # restart cluster 1 first and the centroids would come out swapped.
        points = WeightedTrajectorySet(trajectories=[[[0.0, 0.0]], [[1.0, 0.0]], [[10.0, 0.0]]],
                                       weights=[5.0, 1.0, 1.0])
        far = np.array([[-1000.0, 0.0], [-2000.0, 0.0]])
        with mock.patch.object(ensemble, "_kmeanspp_init", return_value=far.copy()):
            out = weighted_kmeans(points, 2, _rng(0))
        assert np.isfinite(out.centroids).all() and np.isfinite(out.probs).all()
        np.testing.assert_allclose(out.centroids[:, 0], [[10.0, 0.0], [1.0 / 6.0, 0.0]],
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(out.probs, [1.0 / 7.0, 6.0 / 7.0], rtol=0, atol=1e-15)
        assert out.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_too_few_points_is_an_error(self):
        with pytest.raises(DegenerateInputError, match="clusters"):
            weighted_kmeans(_set(10, n=3), 4, _rng(11))

    def test_all_zero_weights_is_an_error(self):
        ts = _set(12, n=5, weights=[0.0] * 5)
        with pytest.raises(DegenerateInputError, match="zero"):
            weighted_kmeans(ts, 2, _rng(13))

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            _set(14, n=4, weights=[1.0, -0.5, 1.0, 1.0])


class TestEnsemblePredict:
    def test_single_model_with_k_equal_modes_is_identity(self):
        pred = _prediction(20, k=6)
        out = ensemble_predict([pred], 6, _rng(21))
        order = []
        for mode in range(6):
            dists = np.abs(out.centroids - pred.means[mode]).max(axis=(1, 2))
            assert dists.min() < 1e-12  # single-member weighted mean, up to rounding
            order.append(int(dists.argmin()))
        assert sorted(order) == list(range(6))
        np.testing.assert_allclose(out.probs[order], pred.probs, atol=1e-12)

    def test_duplicated_model_matches_single_model(self):
        # Modes that differ only in the sign of a zero are one trajectory: six
        # modes give five clusters at most, not a NaN centroid.
        signed_zeros = _prediction(24, k=6)
        signed_zeros.means[4] = 0.0
        signed_zeros.means[5] = 0.0
        signed_zeros.means[5, 2, 1] = -0.0
        with pytest.raises(DegenerateInputError, match="5 distinct"):
            ensemble_predict([signed_zeros, signed_zeros], 6, _rng(25))
        cases = [(_prediction(22, k=6), 4, 23), (signed_zeros, 5, 25)]
        cases += [(_prediction(seed, k=5, horizon=3), k, seed) for seed in (40, 41) for k in (1, 3, 5)]
        for pred, k, seed in cases:
            single = ensemble_predict([pred], k, _rng(seed))
            doubled = ensemble_predict([pred, pred], k, _rng(seed))
            assert single.centroids.tobytes() == doubled.centroids.tobytes()
            assert single.probs.tobytes() == doubled.probs.tobytes()

    def test_three_models_satisfy_fixed_point(self):
        preds = [_prediction(seed) for seed in (30, 31, 32)]
        out = ensemble_predict(preds, 6, _rng(33))
        points = np.concatenate([p.means for p in preds]).reshape(18, -1)
        weights = np.concatenate([p.probs for p in preds])
        err = check_lloyd_fixed_point(points, weights, out.centroids.reshape(6, -1))
        assert err < 1e-9

    def test_too_few_modes_is_an_error(self):
        with pytest.raises(DegenerateInputError):
            ensemble_predict([_prediction(34, k=3)], 6, _rng(35))

    def test_requires_a_prediction(self):
        with pytest.raises(ValueError):
            ensemble_predict([], 3, _rng(36))


def _scored_scene(means, gt, steps=None):
    """What `cli._metrics_record` reads of a scene, with the modes to score."""
    steps = np.ones(gt.shape[0], dtype=bool) if steps is None else steps
    return SimpleNamespace(means=means, future=gt, future_mask=steps)


@st.composite
def _scored_scenes(draw):
    k, t = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    coords = st.floats(-50.0, 50.0)
    return _scored_scene(draw(hnp.arrays(np.float64, (k, t, 2), elements=coords)),
                         draw(hnp.arrays(np.float64, (t, 2), elements=coords)),
                         draw(hnp.arrays(np.bool_, t).filter(np.any)))


class TestMetrics:
    def test_min_ade_zero_for_exact_mode(self):
        gt = _rng(40).normal(size=(6, 2))
        means = np.stack([gt + 5.0, gt])
        assert min_ade(means, gt, np.ones(6, dtype=bool)) == 0.0

    def test_min_ade_constant_offset(self):
        gt = np.zeros((4, 2))
        means = (gt + np.array([3.0, 4.0]))[None]
        assert abs(min_ade(means, gt, np.ones(4, dtype=bool)) - 5.0) < 1e-12

    def test_min_ade_matches_brute_force(self):
        for seed in range(20):
            rng = _rng(seed + 50)
            gt = rng.normal(size=(8, 2)) * 3
            means = rng.normal(size=(6, 8, 2)) * 3
            valid = rng.random(8) < 0.75
            if not valid.any():
                valid[2] = True
            assert abs(min_ade(means, gt, valid) - ref_min_ade(means, gt, valid)) < 1e-12

    def test_min_fde_final_step_only(self):
        gt = _rng(60).normal(size=(5, 2))
        means = _rng(61).normal(size=(2, 5, 2)) * 10
        means[1, -1] = gt[-1]
        assert min_fde(means, gt, np.ones(5, dtype=bool)) == 0.0

    def test_min_fde_constant_offset(self):
        gt = np.zeros((4, 2))
        means = np.zeros((3, 4, 2))
        means[:, -1] = (0.0, 2.0)
        assert abs(min_fde(means, gt, np.ones(4, dtype=bool)) - 2.0) < 1e-12

    def test_min_fde_matches_brute_force(self):
        for seed in range(20):
            rng = _rng(seed + 70)
            gt = rng.normal(size=(8, 2)) * 3
            means = rng.normal(size=(6, 8, 2)) * 3
            valid = rng.random(8) < 0.75
            if not valid.any():
                valid[5] = True
            assert abs(min_fde(means, gt, valid) - ref_min_fde(means, gt, valid)) < 1e-12

    def test_min_is_bounded_by_every_mode(self):
        rng = _rng(80)
        gt = rng.normal(size=(8, 2))
        means = rng.normal(size=(5, 8, 2))
        valid = np.ones(8, dtype=bool)
        best_ade = min_ade(means, gt, valid)
        best_fde = min_fde(means, gt, valid)
        for k in range(5):
            assert best_ade <= min_ade(means[k:k + 1], gt, valid) + 1e-15
            assert best_fde <= min_fde(means[k:k + 1], gt, valid) + 1e-15

    def test_empty_valid_is_an_error(self):
        with pytest.raises(EmptySetError):
            min_ade(np.zeros((2, 4, 2)), np.zeros((4, 2)), np.zeros(4, dtype=bool))

    @settings(max_examples=150, deadline=None)
    @given(scenes=st.lists(_scored_scenes(), min_size=1, max_size=5),
           threshold_m=st.floats(0.1, 60.0))
    @example(scenes=[_scored_scene(np.zeros((2, 4, 2)), np.zeros((4, 2)))] * 5, threshold_m=2.0)
    @example(scenes=[_scored_scene(np.full((2, 4, 2), 10.0), np.zeros((4, 2)))] * 5,
             threshold_m=2.0)
    def test_the_winner_the_metrics_and_the_record_read_mode_errors(self, scenes, threshold_m):
        for s in scenes:
            ade, fde = mode_errors(s.means, s.future, s.future_mask)
            assert select_winner(s.means, s.future, s.future_mask) == np.argmin(ade)
            assert min_ade(s.means, s.future, s.future_mask) == ade.min()
            assert min_fde(s.means, s.future, s.future_mask) == fde.min()
            assert abs(ade.min() - ref_min_ade(s.means, s.future, s.future_mask)) < 1e-12
            assert abs(fde.min() - ref_min_fde(s.means, s.future, s.future_mask)) < 1e-12
        ades = [min_ade(s.means, s.future, s.future_mask) for s in scenes]
        fdes = [min_fde(s.means, s.future, s.future_mask) for s in scenes]
        record = _metrics_record(scenes, [s.means for s in scenes], 2, threshold_m)
        assert record["num_samples"] == len(scenes)
        assert record["minADE"] == np.mean(ades)
        assert record["minFDE"] == np.mean(fdes)
        assert record["miss_rate"] == sum(fde > threshold_m for fde in fdes) / len(scenes)
