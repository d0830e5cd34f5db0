"""Correctness checks of the benchmark, kept apart from the timed code.

Each check compares values the program produced against values computed apart
from it (plain numpy, the oracles in tests/oracles.py, finite differences), or
against a property the method must have. A check raises CheckFailed with a
one-line reason; it never compares against stored output of an earlier run.
The smoke test feeds each check a corrupted output to show that it rejects it.
"""

from __future__ import annotations

import math

import numpy as np

from oracles import check_lloyd_fixed_point

# The model-level tolerance of the finite-difference suite
# (golfer.gradcheck.MODEL_TOL), restated so that a change to the program
# cannot loosen the benchmark's gate.
MODEL_TOL = 1e-4
ORACLE_TOL = 1e-9
LLOYD_TOL = 1e-9
PROB_SUM_TOL = 1e-12


class CheckFailed(AssertionError):
    """A benchmark output is wrong."""


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def plain_min_ade(means, gt, valid) -> float:
    """WOMD minADE: min over modes of the mean L2 error over valid steps."""
    valid = np.asarray(valid, dtype=bool)
    err = np.asarray(means)[:, valid, :] - np.asarray(gt)[valid][None]
    return float(np.sqrt((err ** 2).sum(axis=2)).mean(axis=1).min())


# ---------------------------------------------------------------------------
# train_default
# ---------------------------------------------------------------------------


def check_trace(totals, epochs) -> None:
    """Every loss is finite and the last epoch's mean is below the first's."""
    totals = np.asarray(totals, dtype=np.float64)
    epochs = np.asarray(epochs)
    _require(totals.size > 0 and np.isfinite(totals).all(), "non-finite or empty loss trace")
    first, last = totals[epochs == epochs.min()].mean(), totals[epochs == epochs.max()].mean()
    _require(epochs.max() > epochs.min() and last < first,
             f"last epoch mean loss {last:.6g} is not below the first's {first:.6g}")


def check_training_helps(trained_ade: float, untrained_ade: float) -> None:
    _require(math.isfinite(trained_ade) and trained_ade < untrained_ade,
             f"trained minADE {trained_ade:.6g} not below untrained {untrained_ade:.6g}")


def check_min_ade_agrees(own, program) -> None:
    own, program = np.asarray(own), np.asarray(program)
    _require(own.shape == program.shape and np.allclose(own, program, rtol=1e-12, atol=1e-12),
             f"plain minADE differs from ensemble.min_ade by {np.abs(own - program).max():.3g}")


def check_bitwise_equal(a, b, what: str) -> None:
    a, b = np.asarray(a), np.asarray(b)
    _require(a.shape == b.shape and a.tobytes() == b.tobytes(), f"{what} are not bitwise equal")


def check_directional_derivative(backprop: float, central: float) -> None:
    err = abs(backprop - central) / max(1.0, abs(central))
    _require(err < MODEL_TOL,
             f"directional derivative: backprop {backprop:.10g} vs central {central:.10g} "
             f"(relative error {err:.3g})")


# ---------------------------------------------------------------------------
# ensemble_crowded
# ---------------------------------------------------------------------------


def check_matches_oracle(means, probs, ref_means, ref_probs) -> None:
    for got, ref, what in ((means, ref_means, "means"), (probs, ref_probs, "probabilities")):
        got, ref = np.asarray(got), np.asarray(ref)
        _require(got.shape == ref.shape and np.allclose(got, ref, rtol=ORACLE_TOL, atol=ORACLE_TOL),
                 f"member {what} differ from the plain-numpy oracle")


def check_ensemble_output(centroids, probs, k: int, horizon: int) -> None:
    centroids, probs = np.asarray(centroids), np.asarray(probs)
    _require(centroids.shape == (k, horizon, 2) and probs.shape == (k,),
             f"ensemble output has shapes {centroids.shape} and {probs.shape}, expected k={k}")
    _require(np.isfinite(centroids).all() and (probs >= 0).all()
             and abs(probs.sum() - 1.0) <= PROB_SUM_TOL,
             "ensemble probabilities are negative or do not sum to 1")


def check_lloyd(points, weights, centroids) -> None:
    """Nearest-centroid assignment and weighted-mean centroids both hold."""
    points = np.asarray(points).reshape(len(points), -1)
    flat = np.asarray(centroids).reshape(len(centroids), -1)
    violation = check_lloyd_fixed_point(points, np.asarray(weights), flat)
    _require(violation <= LLOYD_TOL, f"k-means output violates a Lloyd condition by {violation:.3g}")


# ---------------------------------------------------------------------------
# gradcheck_tiny
# ---------------------------------------------------------------------------


def check_gradient_sweep(worst: float) -> None:
    _require(math.isfinite(worst) and worst < MODEL_TOL,
             f"finite-difference sweep worst relative error {worst:.3g} >= {MODEL_TOL:g}")
