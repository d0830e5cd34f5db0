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
from .mnm import MatchKind, MixKind, init_mnm_block, mnm_basic, mnm_query
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
    def leaf(rng, *shape) -> Parameter:
        return Parameter(rng.normal(size=shape))

    def unary(op):
        def build(rng):
            x = leaf(rng, 4, 5)
            return [x], lambda t: _scalarize(op(t.watch(x)))

        return build

    def binary(op):
        def build(rng):
            a, b = leaf(rng, 4, 5), leaf(rng, 4, 5)
            return [a, b], lambda t: _scalarize(op(t.watch(a), t.watch(b)))

        return build

    def build_matmul(rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 4, 2)
        return [a, b], lambda t: _scalarize(nm.matmul(t.watch(a), t.watch(b)))

    def build_vecmat(rng):
        v, w = leaf(rng, 4), leaf(rng, 4, 3)
        return [v, w], lambda t: _scalarize(nm.vecmat(t.watch(v), t.watch(w)))

    def build_layer_norm(rng):
        x, g, b = leaf(rng, 4, 8), leaf(rng, 8), leaf(rng, 8)
        return [x, g, b], lambda t: _scalarize(nm.layer_norm(t.watch(x), t.watch(g), t.watch(b)))

    def build_masked_softmax_rows(rng):
        z = leaf(rng, 5, 5)
        mask = np.array([True, False, True, True, True])
        return [z], lambda t: _scalarize(nm.masked_softmax_rows(t.watch(z), mask, mask))

    def build_masked_max_pool(rng):
        x = leaf(rng, 5, 6)
        mask = np.array([True, False, True, True, False])
        return [x], lambda t: _scalarize(nm.masked_max_pool(t.watch(x), mask))

    def build_concat(rng):
        a, b = leaf(rng, 3, 4), leaf(rng, 3, 2)
        return [a, b], lambda t: _scalarize(nm.concat_last(t.watch(a), t.watch(b)))

    def build_tile_rows(rng):
        v = leaf(rng, 5)
        return [v], lambda t: _scalarize(nm.tile_rows(t.watch(v), 4))

    def build_stack_rows(rng):
        vs = [leaf(rng, 5) for _ in range(3)]
        return vs, lambda t: _scalarize(nm.stack_rows([t.watch(v) for v in vs]))

    def build_weighted_sum(rng):
        x = leaf(rng, 4, 3)
        weights = _rng(31).normal(size=(4, 3))
        return [x], lambda t: nm.weighted_sum(t.watch(x), weights)

    def build_pick(rng):
        v = leaf(rng, 6)
        return [v], lambda t: nm.pick(t.watch(v), 2)

    def build_logsumexp(rng):
        v = leaf(rng, 6)
        return [v], lambda t: nm.logsumexp(t.watch(v))

    return {
        "add": binary(nm.add),
        "mul": binary(nm.mul),
        "maximum": binary(nm.maximum),
        "scale": unary(lambda x: nm.scale(x, -1.7)),
        "exp": unary(nm.exp),
        "clamp": unary(lambda x: nm.clamp(x, -1.0, 1.0)),
        "relu": unary(nm.relu),
        "gelu": unary(nm.gelu),
        "transpose": unary(nm.transpose),
        "reshape": unary(lambda x: nm.reshape(x, (2, 10))),
        "slice_last": unary(lambda x: nm.slice_last(x, 1, 4)),
        "matmul": build_matmul,
        "vecmat": build_vecmat,
        "layer_norm": build_layer_norm,
        "masked_softmax_rows": build_masked_softmax_rows,
        "masked_max_pool": build_masked_max_pool,
        "concat_last": build_concat,
        "tile_rows": build_tile_rows,
        "stack_rows": build_stack_rows,
        "weighted_sum": build_weighted_sum,
        "pick": build_pick,
        "logsumexp": build_logsumexp,
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
    ("basic/maxpool-concat", MixKind.MAX_POOL, MatchKind.CONCAT, False),
    ("basic/maxpool-product", MixKind.MAX_POOL, MatchKind.PRODUCT, False),
    ("basic/attention-matmul", MixKind.ATTENTION, MatchKind.ATTENTION_MATMUL, False),
    ("query/maxpool-concat", MixKind.MAX_POOL, MatchKind.CONCAT, True),
    ("query/maxpool-product", MixKind.MAX_POOL, MatchKind.PRODUCT, True),
]


def _block_builder(mix_kind: MixKind, match_kind: MatchKind, query: bool, heads: int):
    def build(rng):
        n, d, d_ff = 5, 8, 16
        block = init_mnm_block(
            rng, d, heads, d_ff, mix_kind, match_kind,
            activation="gelu", query_variant=query,
            attn_proj=(mix_kind is MixKind.ATTENTION),
            product_proj=(match_kind is MatchKind.PRODUCT),
        )
        x = Parameter(rng.normal(size=(n, d)))
        c = Parameter(rng.normal(size=(d,))) if query else None
        mask = np.array([True, True, False, True, True])
        leaves = [x] + ([c] if query else []) + [p for _, p in block.named_parameters()]

        def fn(tape):
            if query:
                x_out, c_out = mnm_query(tape, tape.watch(x), tape.watch(c), mask, block)
                return _scalarize(nm.add(x_out, nm.tile_rows(c_out, n)))
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


def run_gradient_suite(
    primitive_instances: int = 20,
    block_instances: int = 2,
    include_model: bool = True,
) -> list[CheckResult]:
    results = []
    for name, build in _primitive_builders().items():
        results.append(_check(name, build, primitive_instances, PRIMITIVE_TOL))
    results.append(_check("linear_map", _build_linear_map, primitive_instances, LINEAR_TOL))
    if block_instances > 0:
        for label, mix_kind, match_kind, query in _BLOCK_CONFIGS:
            for heads in (1, 2):
                results.append(
                    _check(f"{label}/h{heads}", _block_builder(mix_kind, match_kind, query, heads),
                           block_instances, BLOCK_TOL)
                )
    if include_model:
        results.append(_check("decode+total_loss", _build_decode_loss, 1, MODEL_TOL))
        results.append(_check("golfer_forward+total_loss", _build_full_model, 1, MODEL_TOL))
    return results
