"""Weighted k-means over pooled trajectory modes, and displacement metrics.

Model ensembling pools every mode from every member model, weighted by its
probability, and clusters the pool with Lloyd iterations in flattened
trajectory space. Cluster centroids become the ensembled modes; normalized
per-cluster weight sums become their probabilities. `mode_errors` scores
every mode once, as its ADE and FDE over the valid steps; minADE and minFDE
are their minima, training's winner is the argmin of ADE, and the CLI's
miss rate counts the scenes whose minFDE exceeds the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Prediction
from .numerics import EmptySetError


class DegenerateInputError(ValueError):
    """Clustering input cannot support the requested number of clusters."""


@dataclass
class WeightedTrajectorySet:
    trajectories: np.ndarray  # (N, T, 2)
    weights: np.ndarray  # (N,) nonnegative

    def __post_init__(self):
        self.trajectories = np.asarray(self.trajectories, dtype=np.float64)
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.trajectories.ndim != 3 or self.trajectories.shape[2] != 2:
            raise ValueError(f"trajectories must be (N,T,2), got {self.trajectories.shape}")
        if self.weights.shape != (self.trajectories.shape[0],):
            raise ValueError("one weight per trajectory required")
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")


@dataclass
class EnsembleOutput:
    centroids: np.ndarray  # (k, T, 2)
    probs: np.ndarray  # (k,), nonnegative, sums to 1


def _merge_duplicates(points: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge identical rows, summing their weights (first-seen order).

    Rows are compared by their bytes after adding 0.0, which turns -0.0 into
    0.0, so rows equal in value merge. Keeps duplicated model pools exactly
    equivalent to their deduplicated form, draws from the rng included.
    """
    rows = points + 0.0
    keys = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    merged = np.zeros(len(order))
    np.add.at(merged, np.argsort(order)[group], weights)
    return points[first[order]], merged


def _kmeanspp_init(
    points: np.ndarray, weights: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted k-means++ seeding: D^2-weighted sampling, weight-proportional start."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    first = int(rng.choice(n, p=weights / weights.sum()))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        scores = weights * d2
        total = scores.sum()
        if total > 0:
            idx = int(rng.choice(n, p=scores / total))
        else:
            # Remaining mass sits on zero-weight points; fall back to farthest.
            idx = int(np.argmax(d2))
        centers[c] = points[idx]
        d2 = np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1))
    return centers


KMEANS_MAX_ITERS = 100
KMEANS_TOL = 1e-12


def weighted_kmeans(
    traj_set: WeightedTrajectorySet, k: int, rng: np.random.Generator
) -> EnsembleOutput:
    """Lloyd iterations in flattened 2T-dimensional space.

    Assignment breaks ties toward the lowest centroid index; centroids are
    weight-weighted member means; an emptied cluster is re-seeded to the point
    with the largest weighted squared distance to its assigned centroid. Stops
    when assignments stabilize (an exact fixed point), when the largest
    centroid movement drops below `KMEANS_TOL`, or after `KMEANS_MAX_ITERS`.
    """
    if traj_set.weights.sum() <= 0:
        raise DegenerateInputError("all trajectory weights are zero")
    horizon = traj_set.trajectories.shape[1]
    points, weights = _merge_duplicates(
        traj_set.trajectories.reshape(traj_set.trajectories.shape[0], -1), traj_set.weights
    )
    n = points.shape[0]
    if n < k:
        raise DegenerateInputError(f"{n} distinct trajectories cannot form {k} clusters")

    centers = _kmeanspp_init(points, weights, k, rng)
    assign = None
    for _ in range(KMEANS_MAX_ITERS):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        # Re-seed empty clusters before accepting the assignment.
        for _ in range(k):
            empty = np.setdiff1d(np.arange(k), new_assign)
            if empty.size == 0:
                break
            spread = weights * d2[np.arange(n), new_assign]
            donor = int(np.argmax(spread))
            centers[empty[0]] = points[donor]
            d2[:, empty[0]] = ((points - centers[empty[0]]) ** 2).sum(axis=1)
            new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        old_centers = centers.copy()
        for c in range(k):
            members = assign == c
            centers[c] = np.average(points[members], axis=0, weights=weights[members]) \
                if weights[members].sum() > 0 else points[members].mean(axis=0)
        if np.linalg.norm(centers - old_centers, axis=1).max() < KMEANS_TOL:
            break

    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assign = d2.argmin(axis=1)
    probs = np.zeros(k)
    np.add.at(probs, assign, weights)
    return EnsembleOutput(centroids=centers.reshape(k, horizon, 2), probs=probs / probs.sum())


def ensemble_predict(
    predictions: list[Prediction], k: int, rng: np.random.Generator
) -> EnsembleOutput:
    """Pool every model's modes (probabilities as weights) and cluster."""
    if not predictions:
        raise ValueError("ensemble requires at least one prediction")
    total_modes = sum(p.means.shape[0] for p in predictions)
    if total_modes < k:
        raise DegenerateInputError(f"{total_modes} pooled modes cannot form {k} clusters")
    pooled = WeightedTrajectorySet(
        trajectories=np.concatenate([p.means for p in predictions], axis=0),
        weights=np.concatenate([p.probs for p in predictions]),
    )
    return weighted_kmeans(pooled, k, rng)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def mode_errors(means: np.ndarray, gt: np.ndarray,
                steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of K (T,2) modes' (ADE, FDE) against the (T,2) ground truth, as two
    (K,) arrays, over the S >= 1 steps set in the (T,) mask `steps`: its mean
    L2 distance over those steps (their sum / S, bitwise `ndarray.mean`) and
    its distance at the last of them. No step set: EmptySetError."""
    steps = np.asarray(steps, dtype=bool)
    if not steps.any():
        raise EmptySetError("no valid step to score")
    diffs = np.asarray(means)[:, steps, :] - np.asarray(gt)[steps]
    dists = np.sqrt(np.add.reduce(diffs * diffs, axis=2))
    return np.add.reduce(dists, axis=1) / dists.shape[1], dists[:, -1]


def min_ade(pred_means: np.ndarray, gt: np.ndarray, valid: np.ndarray) -> float:
    """Min over modes of the mean displacement over valid steps."""
    return float(mode_errors(pred_means, gt, valid)[0].min())


def min_fde(pred_means: np.ndarray, gt: np.ndarray, valid: np.ndarray) -> float:
    """Min over modes of the displacement at the last valid step."""
    return float(mode_errors(pred_means, gt, valid)[1].min())
