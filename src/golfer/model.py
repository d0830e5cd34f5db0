"""The golfer encoder-decoder built from Mix-and-Match blocks.

Encoding is hierarchical: a stack of feature-extractor (FE) blocks turns each
element's point tokens into a single latent vector, the ego latent then
interacts with the road latents and with the agent latents through
product-match blocks, and a fusion MLP over [f_E, f_R, f_A] yields the scene
encoding. The decoder maps that encoding through independent MLP branches to
K trajectory modes (per-step diagonal Gaussians) plus mode logits.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from typing import Iterator

import numpy as np

from . import numerics as nm
from .mnm import MatchKind, MixKind, MnMBlockParams, init_mnm_block, mnm_query
from .numerics import EmptySetError, Node, Parameter, Tape
from .scene import (
    CTX_DIM,
    KIND_AGENT,
    KIND_EGO,
    KIND_GOAL,
    KIND_ROAD,
    PLACE_AGENTS,
    PLACE_ROADS,
    TOKEN_DIM,
    GoalConditioning,
    Scene,
    SceneElement,
    encode_goal_element,
)

MODEL_MAGIC = b"MNMG"
MODEL_VERSION = 1
LOG_SIGMA_CLAMP = 5.0

_ELEMENT_KINDS = (KIND_ROAD, KIND_AGENT, KIND_EGO, KIND_GOAL)


class ModelFormatError(ValueError):
    """A model file's magic, version, config, or tensor shapes are wrong."""


@dataclass
class GolferConfig:
    d: int = 64
    heads: int = 4
    fe_depth: int = 2
    interact_depth: int = 1
    k_modes: int = 6
    horizon: int = 16
    d_ff: int = 0  # 0 resolves to 4*d
    decoder_hidden: tuple[int, ...] = (128,)
    activation: str = "gelu"
    seed: int = 0
    position_scale: float = 10.0
    log_sigma_scale: float = 1.0
    interact_proj: bool = False
    token_dim: int = TOKEN_DIM
    ctx_dim: int = CTX_DIM

    def __post_init__(self):
        self.decoder_hidden = tuple(int(w) for w in self.decoder_hidden)
        if self.d_ff == 0:
            self.d_ff = 4 * self.d
        if self.d < 1 or self.heads < 1 or self.d % self.heads != 0:
            raise ValueError(f"latent width {self.d} must be a positive multiple of heads {self.heads}")
        if self.k_modes < 1 or self.horizon < 1:
            raise ValueError("k_modes and horizon must be >= 1")
        if self.fe_depth < 1 or self.interact_depth < 1:
            raise ValueError("fe_depth and interact_depth must be >= 1")
        if self.activation not in ("gelu", "relu"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.position_scale <= 0 or self.log_sigma_scale <= 0:
            raise ValueError("position_scale and log_sigma_scale must be positive")


@dataclass
class Prediction:
    """K candidate trajectories as per-step diagonal Gaussians, with mode probs."""

    means: np.ndarray  # (K, T, 2), meters
    log_sigmas: np.ndarray  # (K, T, 2), clamped to [-LOG_SIGMA_CLAMP, +]
    logits: np.ndarray  # (K,)
    probs: np.ndarray  # (K,), softmax(logits)


@dataclass
class PredictionNodes:
    """Graph-side prediction; one (T,2) mean/log-sigma pair per mode."""

    mode_means: list[Node]
    mode_log_sigmas: list[Node]
    logits: Node

    def to_prediction(self) -> Prediction:
        logits = self.logits.value.copy()
        e = np.exp(logits - logits.max())
        return Prediction(
            means=np.stack([m.value for m in self.mode_means]),
            log_sigmas=np.stack([s.value for s in self.mode_log_sigmas]),
            logits=logits,
            probs=e / e.sum(),
        )


@dataclass
class _Projection:
    w: Parameter
    b: Parameter


@dataclass
class _Mlp:
    weights: list[Parameter]
    biases: list[Parameter]


@dataclass
class ModelParams:
    config: GolferConfig
    token_proj: dict[str, _Projection]
    ctx_proj: dict[str, _Projection]
    fe_blocks: list[MnMBlockParams]
    null_road: Parameter
    null_agent: Parameter
    road_interact: list[MnMBlockParams]
    agent_interact: list[MnMBlockParams]
    fusion: _Mlp
    decoder_branches: list[_Mlp]
    cls_branch: _Mlp

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for kind in _ELEMENT_KINDS:
            yield f"proj.{kind}.token.w", self.token_proj[kind].w
            yield f"proj.{kind}.token.b", self.token_proj[kind].b
            yield f"proj.{kind}.ctx.w", self.ctx_proj[kind].w
            yield f"proj.{kind}.ctx.b", self.ctx_proj[kind].b
        for i, block in enumerate(self.fe_blocks):
            yield from block.named_parameters(f"fe.{i}.")
        yield "null.road", self.null_road
        yield "null.agent", self.null_agent
        for name, blocks in (("road", self.road_interact), ("agent", self.agent_interact)):
            for i, block in enumerate(blocks):
                yield from block.named_parameters(f"interact.{name}.{i}.")
        for i, (w, b) in enumerate(zip(self.fusion.weights, self.fusion.biases)):
            yield f"fusion.{i}.w", w
            yield f"fusion.{i}.b", b
        for k, branch in enumerate(self.decoder_branches):
            for i, (w, b) in enumerate(zip(branch.weights, branch.biases)):
                yield f"decoder.{k}.{i}.w", w
                yield f"decoder.{k}.{i}.b", b
        for i, (w, b) in enumerate(zip(self.cls_branch.weights, self.cls_branch.biases)):
            yield f"cls.{i}.w", w
            yield f"cls.{i}.b", b

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grads(self) -> None:
        for p in self.parameters():
            p.zero_grad()


def _init_mlp(rng: np.random.Generator, widths: list[int]) -> _Mlp:
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        weights.append(Parameter(nm.uniform_init(rng, (fan_in, fan_out), fan_in)))
        biases.append(Parameter(np.zeros(fan_out)))
    return _Mlp(weights=weights, biases=biases)


def init_model_params(config: GolferConfig) -> ModelParams:
    """Deterministic parameter construction; count and order depend only on config."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    d = config.d

    token_proj, ctx_proj = {}, {}
    for kind in _ELEMENT_KINDS:
        token_proj[kind] = _Projection(
            w=Parameter(nm.uniform_init(rng, (config.token_dim, d), config.token_dim)),
            b=Parameter(np.zeros(d)),
        )
        ctx_proj[kind] = _Projection(
            w=Parameter(nm.uniform_init(rng, (config.ctx_dim, d), config.ctx_dim)),
            b=Parameter(np.zeros(d)),
        )

    def query_block(match_kind: MatchKind, product_proj: bool = False) -> MnMBlockParams:
        return init_mnm_block(
            rng,
            d=d,
            heads=config.heads,
            d_ff=config.d_ff,
            mix_kind=MixKind.MAX_POOL,
            match_kind=match_kind,
            activation=config.activation,
            query_variant=True,
            product_proj=product_proj,
        )

    fe_blocks = [query_block(MatchKind.CONCAT) for _ in range(config.fe_depth)]
    null_road = Parameter(nm.uniform_init(rng, (d,), d))
    null_agent = Parameter(nm.uniform_init(rng, (d,), d))
    road_interact = [query_block(MatchKind.PRODUCT, config.interact_proj)
                     for _ in range(config.interact_depth)]
    agent_interact = [query_block(MatchKind.PRODUCT, config.interact_proj)
                      for _ in range(config.interact_depth)]
    fusion = _init_mlp(rng, [3 * d, d, d])
    branch_widths = [d, *config.decoder_hidden, 4 * config.horizon]
    decoder_branches = [_init_mlp(rng, branch_widths) for _ in range(config.k_modes)]
    cls_branch = _init_mlp(rng, [d, *config.decoder_hidden, config.k_modes])
    return ModelParams(
        config=config,
        token_proj=token_proj,
        ctx_proj=ctx_proj,
        fe_blocks=fe_blocks,
        null_road=null_road,
        null_agent=null_agent,
        road_interact=road_interact,
        agent_interact=agent_interact,
        fusion=fusion,
        decoder_branches=decoder_branches,
        cls_branch=cls_branch,
    )


def parameter_count(params: ModelParams) -> int:
    return sum(p.value.size for p in params.parameters())


# ---------------------------------------------------------------------------
# Forward graph
# ---------------------------------------------------------------------------


def _run_mlp(tape: Tape, mlp: _Mlp, v: Node, activation: str) -> Node:
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        v = nm.add(nm.vecmat(v, tape.watch(w)), tape.watch(b))
        if i < last:
            v = nm.activation(v, activation)
    return v


def encode_element(tape: Tape, element: SceneElement, params: ModelParams) -> Node:
    """Project, run the FE stack, and aggregate to one latent vector."""
    if element.num_valid == 0:
        raise EmptySetError("cannot encode an element with no valid tokens")
    proj_t = params.token_proj[element.kind]
    proj_c = params.ctx_proj[element.kind]
    n = element.tokens.shape[0]
    tokens = nm.add(
        nm.matmul(tape.constant(element.tokens), tape.watch(proj_t.w)),
        nm.tile_rows(tape.watch(proj_t.b), n),
    )
    context = nm.add(nm.vecmat(tape.constant(element.context), tape.watch(proj_c.w)),
                     tape.watch(proj_c.b))
    for block in params.fe_blocks:
        tokens, context = mnm_query(tape, tokens, context, element.mask, block)
    return nm.maximum(nm.masked_max_pool(tokens, element.mask), context)


def interact(tape: Tape, ego_latent: Node, latents: Node, mask, blocks: list[MnMBlockParams]) -> Node:
    """Ego-conditioned set interaction; returns the final query vector."""
    context = ego_latent
    for block in blocks:
        latents, context = mnm_query(tape, latents, context, mask, block)
    return context


def encode_scene(
    tape: Tape,
    scene: Scene,
    params: ModelParams,
    goal: SceneElement | None = None,
    placement: str = PLACE_AGENTS,
) -> Node:
    """f_enc = MLP(concat[f_E, f_R, f_A]); empty sets fall back to a learned null latent."""
    roads = list(scene.roads)
    agents = list(scene.agents)
    if goal is not None:
        (roads if placement == PLACE_ROADS else agents).append(goal)

    f_ego = encode_element(tape, scene.ego, params)

    def set_latents(elements: list[SceneElement], null: Parameter) -> Node:
        usable = [e for e in elements if e.num_valid > 0]
        if not usable:
            return nm.stack_rows([tape.watch(null)])
        return nm.stack_rows([encode_element(tape, e, params) for e in usable])

    road_latents = set_latents(roads, params.null_road)
    agent_latents = set_latents(agents, params.null_agent)
    f_road = interact(tape, f_ego, road_latents,
                      np.ones(road_latents.value.shape[0], dtype=bool), params.road_interact)
    f_agent = interact(tape, f_ego, agent_latents,
                       np.ones(agent_latents.value.shape[0], dtype=bool), params.agent_interact)
    fused_in = nm.concat_last(nm.concat_last(f_ego, f_road), f_agent)
    return _run_mlp(tape, params.fusion, fused_in, params.config.activation)


def decode(tape: Tape, f_enc: Node, params: ModelParams) -> PredictionNodes:
    """Independent MLP branches: K regression heads (T,4 each) + one logit head."""
    cfg = params.config
    mode_means, mode_log_sigmas = [], []
    for branch in params.decoder_branches:
        raw = nm.reshape(_run_mlp(tape, branch, f_enc, cfg.activation), (cfg.horizon, 4))
        mode_means.append(nm.scale(nm.slice_last(raw, 0, 2), cfg.position_scale))
        mode_log_sigmas.append(
            nm.clamp(nm.scale(nm.slice_last(raw, 2, 4), cfg.log_sigma_scale),
                     -LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP)
        )
    logits = _run_mlp(tape, params.cls_branch, f_enc, cfg.activation)
    return PredictionNodes(mode_means=mode_means, mode_log_sigmas=mode_log_sigmas, logits=logits)


def forward_nodes(
    tape: Tape, scene: Scene, gc: GoalConditioning | None, params: ModelParams
) -> PredictionNodes:
    goal = encode_goal_element(gc) if gc is not None else None
    placement = gc.placement if gc is not None else PLACE_AGENTS
    f_enc = encode_scene(tape, scene, params, goal=goal, placement=placement)
    return decode(tape, f_enc, params)


def forward(scene: Scene, gc: GoalConditioning | None, params: ModelParams) -> Prediction:
    """Inference pass; pure function of (scene, conditioning, params)."""
    return forward_nodes(Tape(), scene, gc, params).to_prediction()


# ---------------------------------------------------------------------------
# Model files: magic, version, config JSON, tensors with shape prefixes
# ---------------------------------------------------------------------------


def save_params(params: ModelParams, path) -> None:
    entries = list(params.named_parameters())
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", MODEL_VERSION))
        config_blob = json.dumps(asdict(params.config), sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(entries)))
        for name, p in entries:
            name_blob = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_blob)))
            fh.write(name_blob)
            fh.write(struct.pack("<I", p.value.ndim))
            fh.write(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
            fh.write(p.value.astype("<f8").tobytes())


def load_params(path, expected_config: GolferConfig | None = None, force: bool = False) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    view = memoryview(blob)
    offset = 0

    def take(count: int) -> memoryview:
        nonlocal offset
        if offset + count > len(view):
            raise ModelFormatError(f"truncated model file {path}")
        chunk = view[offset:offset + count]
        offset += count
        return chunk

    if bytes(take(4)) != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: bad magic, not a model file")
    (version,) = struct.unpack("<I", take(4))
    if version != MODEL_VERSION:
        raise ModelFormatError(f"{path}: unsupported model version {version}")
    (config_len,) = struct.unpack("<I", take(4))
    raw_config = json.loads(bytes(take(config_len)).decode("utf-8"))
    raw_config["decoder_hidden"] = tuple(raw_config["decoder_hidden"])
    config = GolferConfig(**raw_config)
    if expected_config is not None and asdict(expected_config) != asdict(config) and not force:
        raise ModelFormatError(
            f"{path}: embedded config does not match the expected config (use force to override)"
        )

    params = init_model_params(config)
    expected = list(params.named_parameters())
    (count,) = struct.unpack("<I", take(4))
    if count != len(expected):
        raise ModelFormatError(f"{path}: {count} tensors stored, expected {len(expected)}")
    for name, p in expected:
        (name_len,) = struct.unpack("<I", take(4))
        stored_name = bytes(take(name_len)).decode("utf-8")
        if stored_name != name:
            raise ModelFormatError(f"{path}: tensor {stored_name!r} where {name!r} expected")
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        if shape != p.value.shape:
            raise ModelFormatError(
                f"{path}: tensor {name!r} has shape {shape}, expected {p.value.shape}"
            )
        data = np.frombuffer(take(8 * p.value.size), dtype="<f8").reshape(shape)
        if not np.isfinite(data).all():
            raise ModelFormatError(f"{path}: tensor {name!r} has non-finite values")
        p.value[...] = data
    if offset != len(view):
        raise ModelFormatError(f"{path}: {len(view) - offset} trailing bytes")
    return params
