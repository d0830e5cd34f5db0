"""Finite-difference verification suite: primitives, blocks, full model.

Each check builds a seeded scalar composite around one target (a primitive
op, a whole block, or the model with its training loss) and compares analytic
gradients against central differences. This is what `golfer gradcheck` runs
and what the acceptance tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .mnm import MatchKind, init_mnm_block, mnm_basic, mnm_query
from .model import GolferConfig, decode, forward_nodes, init_model_params
from .numerics import Node, Parameter, gradient_check
from .scene import (
    CTX_DIM,
    KIND_AGENT,
    KIND_EGO,
    KIND_ROAD,
    TOKEN_DIM,
    GoalConditioning,
    Scene,
    SceneElement,
)
from .training import total_loss_nodes

PRIMITIVE_TOL = 1e-4
LINEAR_TOL = 1e-8
BLOCK_TOL = 1e-4
MODEL_TOL = 1e-4
PRIMITIVE_INSTANCES = 20
BLOCK_INSTANCES = 2


@dataclass
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _scalarize(out: Node) -> Node:
    """Collapse to a scalar with a fixed random projection (same every call)."""
    weights = _rng(104729).normal(size=out.value.shape)
    return nm.weighted_sum(out, weights)


def _check(name: str, build, instances: int, tol: float) -> CheckResult:
    """`build(rng) -> (leaves, fn)`; FD-check fn over leaves per seed."""
    worst = 0.0
    for seed in range(instances):
        leaves, fn = build(_rng(seed))
        worst = max(worst, gradient_check(fn, leaves))
    return CheckResult(name=name, max_rel_error=worst, tolerance=tol)


# ---------------------------------------------------------------------------
# Primitive builders
# ---------------------------------------------------------------------------


def _primitive_builders():
    def on(op, *shapes, scalar_out=False):
        """Check op on fresh standard-normal leaves of the given shapes; a
        non-scalar output is projected to a scalar."""

        def build(rng):
            leaves = [Parameter(rng.normal(size=shape)) for shape in shapes]

            def fn(t):
                out = op(*(t.watch(p) for p in leaves))
                return out if scalar_out else _scalarize(out)

            return leaves, fn

        return build

    grid = (4, 5)
    keys = np.array([True, False, True, True, True])
    queries = np.array([True, True, False, True, True])
    pool_mask = np.array([True, False, True, True, False])
    weights = _rng(31).normal(size=(4, 3))

    def segment_max_tied(rng):
        """Column 2 peaks at one value in all segments: a tie across segments only."""
        x = Parameter(rng.normal(size=(6, 4)))
        x.value[[1, 2, 5], 2] = np.abs(x.value[:, 2]).max() + 1.0
        segments = nm.Segments([2, 3, 1])
        return [x], lambda t: _scalarize(nm.segment_max(t.watch(x), segments))

    return {
        "add": on(nm.add, grid, grid),
        "mul": on(nm.mul, grid, grid),
        "maximum": on(nm.maximum, grid, grid),
        "scale": on(lambda x: nm.scale(x, -1.7), grid),
        "exp": on(nm.exp, grid),
        "clamp": on(lambda x: nm.clamp(x, -1.0, 1.0), grid),
        "relu": on(nm.relu, grid),
        "gelu": on(nm.gelu, grid),
        "transpose": on(lambda x: nm.transpose(x, (1, 0)), grid),
        "transpose_axes": on(lambda x: nm.transpose(x, (1, 2, 0)), (2, 3, 4)),
        "reshape": on(lambda x: nm.reshape(x, (2, 10)), grid),
        "slice_last": on(lambda x: nm.slice_last(x, 1, 4), grid),
        "matmul": on(nm.matmul, (3, 4), (4, 2)),
        "matmul_batched": on(nm.matmul, (2, 3, 4), (2, 4, 2)),
        "matmul_vector": on(nm.matmul, (4,), (4, 3)),
        "layer_norm": on(nm.layer_norm, (4, 8), (8,), (8,)),
        "masked_softmax_rows": on(lambda z: nm.masked_softmax_rows(z, keys, keys), (5, 5)),
        "masked_softmax_rows_3d": on(lambda z: nm.masked_softmax_rows(z, keys, queries),
                                     (2, 5, 5)),
        "masked_max_pool": on(lambda x: nm.masked_max_pool(x, pool_mask), (5, 6)),
        "segment_max": segment_max_tied,
        "take_rows": on(lambda x: nm.take_rows(x, [2, 0, 2, 1, 2]), (4, 5)),
        "concat_last": on(nm.concat_last, (3, 4), (3, 2)),
        "weighted_sum": on(lambda x: nm.weighted_sum(x, weights), (4, 3), scalar_out=True),
        "pick": on(lambda v: nm.pick(v, 2), (6,), scalar_out=True),
        "logsumexp": on(nm.logsumexp, (6,), scalar_out=True),
    }


def _build_linear_map(rng):
    """f(x) = sum(w * (A @ x)): exact FD up to rounding."""
    a_fixed = rng.normal(size=(5, 4))
    x = Parameter(rng.normal(size=(4, 3)))
    return [x], lambda t: _scalarize(nm.matmul(t.constant(a_fixed), t.watch(x)))


# ---------------------------------------------------------------------------
# Block builders
# ---------------------------------------------------------------------------

_BLOCK_CONFIGS = [
    ("basic/maxpool-concat", MatchKind.CONCAT, False),
    ("basic/maxpool-product", MatchKind.PRODUCT, False),
    ("basic/attention-matmul", MatchKind.ATTENTION_MATMUL, False),
    ("query/maxpool-concat", MatchKind.CONCAT, True),
    ("query/maxpool-product", MatchKind.PRODUCT, True),
]


def _block_builder(match_kind: MatchKind, query: bool, heads: int):
    def build(rng):
        n, d, d_ff = 5, 8, 16
        block = init_mnm_block(rng, d, heads, d_ff, match_kind, activation="gelu",
                               query_variant=query, proj=match_kind is not MatchKind.CONCAT)
        x = Parameter(rng.normal(size=(n, d)))
        c = Parameter(rng.normal(size=(2, d))) if query else None
        mask = np.array([True, True, False, True, True])
        segments = nm.Segments([2, 3])
        leaves = [x] + ([c] if query else []) + [p for _, p in block.named_parameters()]

        def fn(tape):
            if query:
                x_out, c_out = mnm_query(tape, tape.watch(x), tape.watch(c), segments, block)
                return _scalarize(nm.add(x_out, nm.take_rows(c_out, segments)))
            return _scalarize(mnm_basic(tape, tape.watch(x), mask, block))

        return leaves, fn

    return build


# ---------------------------------------------------------------------------
# Model-level builders
# ---------------------------------------------------------------------------

TINY_CONFIG = GolferConfig(
    d=16, heads=2, fe_depth=1, interact_depth=1, k_modes=3, horizon=4,
    d_ff=64, decoder_hidden=(16,), activation="gelu", seed=3,
)


def _tiny_scene(seed: int = 42) -> tuple[Scene, GoalConditioning]:
    rng = _rng(seed)

    def element(kind: str, points: int, mask) -> SceneElement:
        mask = np.asarray(mask, dtype=bool)
        tokens = rng.normal(size=(points, TOKEN_DIM)) * 2.0
        tokens[~mask] = 0.0
        return SceneElement(kind=kind, tokens=tokens, mask=mask, context=rng.normal(size=CTX_DIM))

    ego = element(KIND_EGO, 4, [True] * 4)
    roads = [element(KIND_ROAD, 4, [True] * 4), element(KIND_ROAD, 4, [True, True, True, False])]
    agents = [element(KIND_AGENT, 4, [False, True, True, True])]
    future = rng.normal(size=(4, 2)) * 3.0
    scene = Scene(ego=ego, agents=agents, roads=roads, future=future,
                  future_mask=np.ones(4, dtype=bool))
    step_mask = np.array([False, True, False, False])
    gc = GoalConditioning(
        masked_future=np.where(step_mask[:, None], future, 0.0),
        step_mask=step_mask,
        placement="agents",
        exclusion_index=1,
    )
    return scene, gc


def _build_decode_loss(rng):
    params = init_model_params(TINY_CONFIG)
    f_enc = rng.normal(size=TINY_CONFIG.d)
    gt = rng.normal(size=(TINY_CONFIG.horizon, 2)) * 3.0
    valid = np.ones(TINY_CONFIG.horizon, dtype=bool)
    leaves = [p for name, p in params.named_parameters()
              if name.startswith(("decoder.", "cls."))]

    def fn(tape):
        pred = decode(tape, tape.constant(f_enc), params)
        total, _ = total_loss_nodes(tape, pred, gt, valid, None, lam=1.0)
        return total

    return leaves, fn


def _build_full_model(_rng_unused):
    params = init_model_params(TINY_CONFIG)
    scene, gc = _tiny_scene()
    leaves = params.parameters()

    def fn(tape):
        pred = forward_nodes(tape, scene, gc, params)
        total, _ = total_loss_nodes(
            tape, pred, scene.future, scene.future_mask, gc.exclusion_index, lam=1.0
        )
        return total

    return leaves, fn


def primitive_checks() -> list[CheckResult]:
    """Each primitive op, then the linear map, over `PRIMITIVE_INSTANCES` seeds."""
    results = [_check(name, build, PRIMITIVE_INSTANCES, PRIMITIVE_TOL)
               for name, build in _primitive_builders().items()]
    return results + [_check("linear_map", _build_linear_map, PRIMITIVE_INSTANCES, LINEAR_TOL)]


def block_checks() -> list[CheckResult]:
    """Each block variant with one and two heads, over `BLOCK_INSTANCES` seeds."""
    return [_check(f"{label}/h{heads}", _block_builder(match_kind, query, heads),
                   BLOCK_INSTANCES, BLOCK_TOL)
            for label, match_kind, query in _BLOCK_CONFIGS for heads in (1, 2)]


def run_gradient_suite() -> list[CheckResult]:
    """The primitive and block checks, then the model's decode and full forward
    under the training loss: what `golfer gradcheck` reports, in its order."""
    return [*primitive_checks(), *block_checks(),
            _check("decode+total_loss", _build_decode_loss, 1, MODEL_TOL),
            _check("golfer_forward+total_loss", _build_full_model, 1, MODEL_TOL)]
