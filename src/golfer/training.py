"""Winner-take-all Gaussian mixture objective, Adam, and the training loop.

The regression head is scored only on the mode whose mean trajectory is
closest to the ground truth (mean Euclidean distance over counted steps); the
classification head gets that winner as its cross-entropy target. A goal step
that leaked into the input through the conditioning element is excluded from
the counted set, for both winner selection and the likelihood, so the loss
carries no information about it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import numerics as nm
from .ensemble import mode_errors
from .model import GolferConfig, ModelParams, PredictionNodes, forward_nodes, init_model_params
from .numerics import EmptySetError, Node, Tape
from .scene import MASKING_RULES, Scene, apply_goal_masking, at_least, check_fields

LOG_2PI = math.log(2.0 * math.pi)


class TrainingError(RuntimeError):
    """Training hit a non-finite quantity."""


@dataclass
class LossBreakdown:
    regression_nll: float
    classification_ce: float
    total: float
    winner_index: int


def select_winner(means: np.ndarray, gt: np.ndarray, valid: np.ndarray) -> int:
    """Index of the mode with the smallest ADE over valid steps, as
    `ensemble.mode_errors` scores it (ties go to the lowest index)."""
    return int(np.argmin(mode_errors(means, gt, valid)[0]))


def _counted_steps(valid: np.ndarray, exclusion_index: int | None) -> np.ndarray:
    """The valid steps less the excluded one, which must be a valid step."""
    counted = np.asarray(valid, dtype=bool).copy()
    if exclusion_index is not None:
        if not (0 <= exclusion_index < counted.size and counted[exclusion_index]):
            raise ValueError(f"exclusion index {exclusion_index} does not name a valid step "
                             f"(horizon {counted.size})")
        counted[exclusion_index] = False
    return counted


def gmm_nll_node(tape: Tape, mu: Node, log_sigma: Node, gt: np.ndarray, counted: np.ndarray) -> Node:
    """Mean diagonal-Gaussian negative log density over counted steps.

    Per step: 0.5*((x-mu_x)/sig_x)^2 + 0.5*((y-mu_y)/sig_y)^2
              + log sig_x + log sig_y + log(2*pi).
    """
    n_counted = int(counted.sum())
    if n_counted == 0:
        raise EmptySetError("gmm_nll: no counted steps")
    resid = nm.add(mu, tape.constant(-np.asarray(gt, dtype=np.float64)))
    z = nm.mul(resid, nm.exp(nm.scale(log_sigma, -1.0)))
    terms = nm.add(nm.scale(nm.mul(z, z), 0.5), log_sigma)
    weights = np.repeat(counted[:, None], 2, axis=1) / n_counted
    return nm.add(nm.weighted_sum(terms, weights), tape.constant(LOG_2PI))


def classification_loss_node(tape: Tape, logits: Node, winner: int) -> Node:
    """Stabilized cross entropy -log softmax(logits)[winner]."""
    if not 0 <= winner < logits.value.shape[0]:
        raise ValueError(f"winner {winner} out of range for {logits.value.shape[0]} modes")
    return nm.add(nm.logsumexp(logits), nm.scale(nm.pick(logits, winner), -1.0))


def total_loss_nodes(
    tape: Tape,
    pred: PredictionNodes,
    gt: np.ndarray,
    valid: np.ndarray,
    exclusion_index: int | None,
    lam: float,
) -> tuple[Node, LossBreakdown]:
    """Winner-take-all NLL plus weighted classification CE.

    Winner selection is non-differentiable and, like the NLL, runs on the
    counted step set (valid minus the excluded goal step).
    """
    counted = _counted_steps(valid, exclusion_index)
    winner = select_winner(pred.means.value, gt, counted)
    nll = gmm_nll_node(tape, nm.pick(pred.means, winner), nm.pick(pred.log_sigmas, winner),
                       gt, counted)
    ce = classification_loss_node(tape, pred.logits, winner)
    total = nm.add(nll, nm.scale(ce, lam))
    breakdown = LossBreakdown(
        regression_nll=float(nll.value),
        classification_ce=float(ce.value),
        total=float(total.value),
        winner_index=winner,
    )
    return total, breakdown


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


# Elements per chunk of the Adam update: its six chunk-sized arrays (value,
# grad, two moments, two temporaries) stay in a core's L2 cache.
ADAM_CHUNK = 16384
# Elements per block of the arena whose gradients Adam tracks: a block that
# has never held a non-zero gradient is skipped.
ADAM_BLOCK = 1024


def _block_runs(flags: np.ndarray, size: int) -> list[tuple[int, int]]:
    """The (start, stop) element bounds of each run of flagged blocks in an
    arena of `size` elements."""
    edges = np.zeros(flags.size + 2, dtype=bool)
    edges[1:-1] = flags
    bounds = (np.flatnonzero(edges[1:] != edges[:-1]) * ADAM_BLOCK).tolist()
    return [(lo, min(hi, size)) for lo, hi in zip(bounds[::2], bounds[1::2])]


@dataclass
class AdamState:
    """Adam's rates and moments; `m` and `v` are flat, laid out like the
    parameter arena they update, and `scratch` holds two chunk temporaries.
    `touched` flags each `ADAM_BLOCK`-element block of the arena that has
    ever held a non-zero gradient."""

    lr: float
    beta1: float
    beta2: float
    epsilon: float
    step_count: int
    m: np.ndarray
    v: np.ndarray
    touched: np.ndarray
    scratch: np.ndarray = field(default_factory=lambda: np.empty((2, ADAM_CHUNK)), repr=False)

    @classmethod
    def create(cls, size: int, train_config: TrainConfig) -> "AdamState":
        """Zero moments for `size` parameters; rates and betas from `train_config`."""
        return cls(lr=train_config.lr, beta1=train_config.beta1, beta2=train_config.beta2,
                   epsilon=train_config.epsilon, step_count=0,
                   m=nm.mapped_zeros(size), v=nm.mapped_zeros(size),
                   touched=np.zeros(-(-size // ADAM_BLOCK), dtype=bool))

    def touch(self, grads: np.ndarray) -> None:
        """Flag each untouched block whose gradients hold a non-zero. Each run
        of untouched blocks is tested whole, and block by block only if it
        holds one; `any` sees a subnormal gradient, whose square would be 0."""
        for lo, hi in _block_runs(~self.touched, grads.size):
            if grads[lo:hi].any():
                for start in range(lo, hi, ADAM_BLOCK):
                    self.touched[start // ADAM_BLOCK] = grads[start:start + ADAM_BLOCK].any()


def optimizer_step(params: ModelParams, state: AdamState) -> None:
    """Bias-corrected adaptive-moment update, chunk by chunk in place, of
    every arena block that has ever held a non-zero gradient; grads are reset
    afterwards (an untouched block's are zero already).

    One dot product checks every gradient: if the sum of squares is finite,
    so is every element. Otherwise each named parameter is checked, and a
    non-finite one raises before any state changes, leaving values, grads,
    moments, touched blocks and the step count as they were; finite grads
    whose squares overflow step normally. Each element sees the per-tensor
    operations in the same order, so the bits do not depend on the chunking.
    A block whose gradients and moments are all zero is a fixed point of the
    update (its moments stay +0 and its step is 0/(sqrt(0)+eps) = 0), so the
    blocks never touched are skipped with no bit changed; their moments'
    pages are never written. A touched block stays touched, as its moments
    are no longer zero.
    """
    grads = params.grads
    with np.errstate(over="ignore"):
        squares = np.dot(grads, grads)
    if not math.isfinite(squares):
        for name, p in params.named_parameters():
            if not np.isfinite(p.grad).all():
                raise TrainingError(f"non-finite gradient in parameter {name!r}")
    state.touch(grads)
    state.step_count += 1
    t = state.step_count
    b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.epsilon
    c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    for first, stop in _block_runs(state.touched, grads.size):
        for lo in range(first, stop, ADAM_CHUNK):
            hi = min(lo + ADAM_CHUNK, stop)
            g, m, v = grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
            a, b = state.scratch[:, :g.size]
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.multiply(g, 1.0 - b2, out=a)
            a *= g
            v += a
            np.divide(m, c1, out=a)
            a *= lr
            np.divide(v, c2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            params.values[lo:hi] -= a
            g.fill(0.0)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


TRAIN_RULES = {
    "epochs": at_least(1), "lr": lambda v: 0 < v < math.inf, "lam": lambda v: 0 <= v < math.inf,
    **MASKING_RULES, "seed": at_least(0), "beta1": lambda v: 0 <= v < 1,
    "beta2": lambda v: 0 <= v < 1, "epsilon": lambda v: 0 < v < math.inf,
}


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters: frozen, and checked when built.

    `lr` is the peak Adam step size: the rate starts there at step 0 and is
    cosine-annealed to zero over the run's `epochs * len(scenes)` steps.
    """

    epochs: int = 16
    lr: float = 1e-3
    lam: float = 1.0
    mask_ratio: float = 0.85
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        check_fields(self, TRAIN_RULES)


@dataclass
class TraceRecord:
    epoch: int
    step: int
    regression_nll: float
    classification_ce: float
    total: float


def train(
    scenes: list[Scene],
    model_config: GolferConfig,
    train_config: TrainConfig,
    params: ModelParams | None = None,
) -> tuple[ModelParams, list[TraceRecord]]:
    """Sample-wise training: mask the goal, run the model, step the optimizer.

    The Adam rate follows a cosine from train_config.lr at step 0 down to zero
    over epochs * len(scenes) steps (SGDR without restarts); at a constant
    rate the single-scene overfit settles into a limit cycle instead of
    converging.

    Deterministic given (scenes, configs): sample order and goal masking draw
    from seed streams derived from train_config.seed.
    """
    if not scenes:
        raise ValueError("training requires a non-empty dataset")
    horizon = (model_config if params is None else params.config).horizon
    for index, scene in enumerate(scenes):
        if not scene.future_mask.any():
            raise EmptySetError(f"scene {index} has no valid future step to train on")
        if scene.horizon != horizon:
            raise ValueError(f"scene {index} has horizon {scene.horizon}, the model's is {horizon}")
    if params is None:
        params = init_model_params(model_config)
    state = AdamState.create(params.values.size, train_config)
    order_seed, mask_seed = np.random.SeedSequence(train_config.seed).spawn(2)
    order_rng = np.random.Generator(np.random.PCG64(order_seed))
    mask_rng = np.random.Generator(np.random.PCG64(mask_seed))

    trace: list[TraceRecord] = []
    total_steps = train_config.epochs * len(scenes)
    step = 0
    for epoch in range(train_config.epochs):
        for idx in order_rng.permutation(len(scenes)):
            scene = scenes[idx]
            gc = apply_goal_masking(scene.future, mask_rng, train_config.mask_ratio,
                                    scene.future_mask)
            tape = Tape()
            pred = forward_nodes(tape, scene, gc, params)
            total, breakdown = total_loss_nodes(
                tape, pred, scene.future, scene.future_mask, gc.exclusion_index, train_config.lam
            )
            if not math.isfinite(breakdown.total):
                raise TrainingError(f"non-finite loss at sample {int(idx)} (epoch {epoch}, step {step})")
            tape.backward(total)
            state.lr = 0.5 * train_config.lr * (1.0 + math.cos(math.pi * step / total_steps))
            optimizer_step(params, state)
            trace.append(
                TraceRecord(
                    epoch=epoch,
                    step=step,
                    regression_nll=breakdown.regression_nll,
                    classification_ce=breakdown.classification_ce,
                    total=breakdown.total,
                )
            )
            step += 1
    return params, trace
