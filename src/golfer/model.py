"""The golfer encoder-decoder built from Mix-and-Match blocks.

Encoding is hierarchical: a stack of feature-extractor (FE) blocks turns each
element's point tokens into a single latent vector, the ego latent then
interacts with the road latents and with the agent latents through
product-match blocks, and a fusion MLP over [f_E, f_R, f_A] yields the scene
encoding. The FE stack runs once per scene, over the valid token rows of all
its elements packed into one matrix. Each scene packs its valid elements
once, on first use (`Scene.pack`): their token rows and one `GoalLayout`
per goal placement and horizon, or none, each built once and kept: the
kinds, counts and contexts, the road/agent split and the FE segment plan
that every FE block reuses. A forward
builds only what depends on the goal conditioning: the goal's token rows,
one splice of them into the scene's, each row's kind (its element's,
through the segment plan) and the kind-slot matrices its token and context
projections multiply. Each interaction stack returns only
its ego query, so its last block is declared query-only: it has no token
FFN and updates that query alone. The decoder maps that encoding through
independent MLP branches to K trajectory modes (per-step diagonal
Gaussians) plus mode logits. The K branches are identically shaped, so
they run as one MLP with the mode as a leading array axis. Each per-kind,
per-head and per-mode weight family is stored as one stacked tensor;
`named_parameters` yields its slices as views. Every family is in turn a
view of one flat value buffer and one flat grad buffer, so the optimizer
and the grad reset act on the whole model at once.
The encoder is a pipeline of four stages (the goal splice and kind
projections, the FE blocks, interaction, fusion), and each stage's weights
sit in the arena after those of every stage that feeds it. So the
finite-difference probes of one `numerics.gradient_check`, which share a
probe memo, rerun only the stages from the perturbed parameter's on
(`encode_scene`); every other forward carries no memo and runs them all.
Model files are version 2; a file of another version is refused with a
`ModelFormatError`.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from typing import Iterator

import numpy as np

from . import numerics as nm
from .mnm import MatchKind, MnMBlockParams, declare_mnm_block, mnm_query
from .numerics import Node, Parameter, Tape
from .scene import (CTX_DIM, ELEMENT_KINDS, TOKEN_DIM, ElementPack, GoalConditioning,
                    GoalLayout, Scene, at_least, check_fields)

MODEL_MAGIC = b"MNMG"
MODEL_VERSION = 2
LOG_SIGMA_CLAMP = 5.0


class ModelFormatError(ValueError):
    """A model file's magic, version, config, or tensor shapes are wrong."""


MODEL_RULES = {
    **dict.fromkeys(("d", "heads", "fe_depth", "interact_depth", "k_modes"), at_least(1)),
    "horizon": at_least(1), "d_ff": at_least(0), "seed": at_least(0),
    "decoder_hidden": lambda v: all(w >= 1 for w in v), "activation": lambda v: v in nm.ACTIVATIONS,
    **dict.fromkeys(("position_scale", "log_sigma_scale"), lambda v: 0 < v < math.inf),
}


@dataclass(frozen=True)
class GolferConfig:
    """The model's shape: frozen, checked when built (heads divide d, parameters in budget)."""

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

    def __post_init__(self):
        if isinstance(self.decoder_hidden, list):  # as a model file's JSON holds it
            object.__setattr__(self, "decoder_hidden", tuple(self.decoder_hidden))
        check_fields(self, MODEL_RULES)
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d)
        if self.d % self.heads != 0:
            raise ValueError(f"heads: {self.heads} must be a positive divisor of d={self.d}")
        _declare_families(self, nm.Arena())  # no storage: refuses a model over the budget


@dataclass
class Prediction:
    """K candidate trajectories as per-step diagonal Gaussians, with mode probs."""

    means: np.ndarray  # (K, T, 2), meters
    log_sigmas: np.ndarray  # (K, T, 2), clamped to [-LOG_SIGMA_CLAMP, +]
    logits: np.ndarray  # (K,)
    probs: np.ndarray  # (K,), softmax(logits)


@dataclass
class PredictionNodes:
    """Graph-side prediction: (K,T,2) means and log-sigmas, (K,) logits."""

    means: Node
    log_sigmas: Node
    logits: Node

    def to_prediction(self) -> Prediction:
        logits = self.logits.value.copy()
        e = np.exp(logits - logits.max())
        return Prediction(
            means=self.means.value,
            log_sigmas=self.log_sigmas.value,
            logits=logits,
            probs=e / e.sum(),
        )


@dataclass
class _Mlp:
    """Affine layers; a stacked MLP has (K,fan_in,fan_out) weights and (K,fan_out) biases."""

    weights: list[Parameter]
    biases: list[Parameter]


@dataclass
class ModelParams:
    """Every weight family as a view of one flat value buffer and one flat
    grad buffer, `values` and `grads`, laid out in declaration order."""

    config: GolferConfig
    values: np.ndarray
    grads: np.ndarray
    # Per-kind projections in `scene.ELEMENT_KINDS` order: (4,in,d) weights, (4,d) biases.
    token_w: Parameter
    token_b: Parameter
    ctx_w: Parameter
    ctx_b: Parameter
    fe_blocks: list[MnMBlockParams]
    null_road: Parameter
    null_agent: Parameter
    road_interact: list[MnMBlockParams]
    agent_interact: list[MnMBlockParams]
    fusion: _Mlp
    decoder: _Mlp
    cls_branch: _Mlp

    def named_parameters(self) -> Iterator[tuple[str, Parameter]]:
        for k, kind in enumerate(ELEMENT_KINDS):
            yield f"proj.{kind}.token.w", self.token_w[k]
            yield f"proj.{kind}.token.b", self.token_b[k]
            yield f"proj.{kind}.ctx.w", self.ctx_w[k]
            yield f"proj.{kind}.ctx.b", self.ctx_b[k]
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
        for k in range(self.config.k_modes):
            for i, (w, b) in enumerate(zip(self.decoder.weights, self.decoder.biases)):
                yield f"decoder.{k}.{i}.w", w[k]
                yield f"decoder.{k}.{i}.b", b[k]
        for i, (w, b) in enumerate(zip(self.cls_branch.weights, self.cls_branch.biases)):
            yield f"cls.{i}.w", w
            yield f"cls.{i}.b", b

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grads(self) -> None:
        self.grads.fill(0.0)


def _declare_families(config: GolferConfig, arena: nm.Arena) -> dict:
    """The model's weight families, declared in `arena` (`ModelParams` fields)."""
    d, kinds = config.d, len(ELEMENT_KINDS)

    def query_blocks(count: int, match_kind: MatchKind, proj: bool = False,
                     tokens_out: bool = True):
        """A stack of query blocks; without `tokens_out` its last block is query-only."""
        return [declare_mnm_block(arena, d=d, heads=config.heads, d_ff=config.d_ff,
                                  match_kind=match_kind, activation=config.activation,
                                  query_variant=True, proj=proj,
                                  update_tokens=tokens_out or i < count - 1)
                for i in range(count)]

    def mlp(widths: list[int], lead: tuple[int, ...] = ()) -> _Mlp:
        shapes = list(zip(widths[:-1], widths[1:]))
        return _Mlp(weights=[arena.param((*lead, *shape)) for shape in shapes],
                    biases=[arena.param((*lead, fan_out)) for _, fan_out in shapes])

    return dict(
        token_w=arena.param((kinds, TOKEN_DIM, d)),
        token_b=arena.param((kinds, d)),
        ctx_w=arena.param((kinds, CTX_DIM, d)),
        ctx_b=arena.param((kinds, d)),
        fe_blocks=query_blocks(config.fe_depth, MatchKind.CONCAT),
        null_road=arena.param((d,)),
        null_agent=arena.param((d,)),
        road_interact=query_blocks(config.interact_depth, MatchKind.PRODUCT, config.interact_proj,
                                   tokens_out=False),
        agent_interact=query_blocks(config.interact_depth, MatchKind.PRODUCT, config.interact_proj,
                                    tokens_out=False),
        fusion=mlp([3 * d, d, d]),
        decoder=mlp([d, *config.decoder_hidden, 4 * config.horizon], lead=(config.k_modes,)),
        cls_branch=mlp([d, *config.decoder_hidden, config.k_modes]),
    )


def _declare_params(config: GolferConfig) -> ModelParams:
    """The model's weight families in one allocated arena, every value zero."""
    arena = nm.Arena()
    families = _declare_families(config, arena)
    values, grads = arena.allocate()
    return ModelParams(config=config, values=values, grads=grads, **families)


def init_model_params(config: GolferConfig) -> ModelParams:
    """Deterministic parameter construction; count and order depend only on config.

    Weights are uniform in +-1/sqrt(fan_in), drawn in this order; biases and
    norm shifts start at 0, norm gains at 1."""
    params = _declare_params(config)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    d = config.d
    for k in range(len(ELEMENT_KINDS)):  # kind by kind, token weight before context weight
        params.token_w.value[k] = nm.uniform_init(rng, (TOKEN_DIM, d), TOKEN_DIM)
        params.ctx_w.value[k] = nm.uniform_init(rng, (CTX_DIM, d), CTX_DIM)
    for block in params.fe_blocks:
        block.initialize(rng)
    params.null_road.value[...] = nm.uniform_init(rng, (d,), d)
    params.null_agent.value[...] = nm.uniform_init(rng, (d,), d)
    for block in (*params.road_interact, *params.agent_interact):
        block.initialize(rng)
    for w in params.fusion.weights:
        w.value[...] = nm.uniform_init(rng, w.value.shape, w.value.shape[0])
    for k in range(config.k_modes):  # branch by branch, each into its slot of the mode axis
        for w in params.decoder.weights:
            w.value[k] = nm.uniform_init(rng, w.value.shape[1:], w.value.shape[1])
    for w in params.cls_branch.weights:
        w.value[...] = nm.uniform_init(rng, w.value.shape, w.value.shape[0])
    return params


# ---------------------------------------------------------------------------
# Forward graph
# ---------------------------------------------------------------------------


def _run_mlp(layers: list[tuple[Node, Node]], v: Node, activation: str) -> Node:
    """Affine layers given as (weight, bias) nodes, activated between layers."""
    for i, (w, b) in enumerate(layers):
        if i > 0:
            v = nm.activation(v, activation)
        v = nm.add(nm.matmul(v, w), b)
    return v


def _watched_layers(tape: Tape, mlp: _Mlp) -> list[tuple[Node, Node]]:
    return [(tape.watch(w), tape.watch(b)) for w, b in zip(mlp.weights, mlp.biases)]


def _kind_rows(tape: Tape, w: Parameter, b: Parameter, kinds, features) -> Node:
    """Each feature row's own kind's affine map, as one matmul: the row sits in
    its kind's slot of a (rows, 4*width) matrix, against all kinds' (4,width,d)
    weights w; b holds the (4,d) biases."""
    wide = np.zeros((len(kinds), len(ELEMENT_KINDS), features.shape[1]))
    wide[np.arange(len(kinds)), kinds] = features
    w_rows = nm.reshape(tape.watch(w), (wide[0].size, w.value.shape[2]))
    return nm.add(nm.matmul(tape.constant(wide.reshape(len(kinds), -1)), w_rows),
                  nm.take_rows(tape.watch(b), kinds))


def encode_element(tape: Tape, layout: GoalLayout, tokens: Node, context: Node,
                   params: ModelParams) -> Node:
    """Encode a layout's E elements in one FE pass over their (N,d) projected
    valid token rows (invalid rows are dropped, not padded) and (E,d)
    projected contexts -> (E,d) latents. The layout's segment plan is shared
    by every FE block and the final pooling."""
    for block in params.fe_blocks:
        tokens, context = mnm_query(tape, tokens, context, layout.segments, block)
    return nm.maximum(nm.segment_max(tokens, layout.segments), context)


def interact(tape: Tape, ego_latent: Node, latents: Node, segments: nm.Segments,
             blocks: list[MnMBlockParams]) -> Node:
    """Ego-conditioned set interaction: the (n,d) latents are the one segment
    of `segments`, whose query is the (1,d) ego latent; returns the final
    (1,d) query. Only the query leaves the stack, so its last block is
    query-only."""
    context = ego_latent
    for block in blocks:
        latents, context = mnm_query(tape, latents, context, segments, block)
    return context


# The encoder's stages; each maps (tape, params, *previous stage's outputs)
# to a tuple of outputs.


def _projection_stage(tape: Tape, params: ModelParams, pack: ElementPack,
                      gc: GoalConditioning | None):
    """The layout of gc's placement, and its token rows and contexts, each
    projected by its element's kind (a row's element is its segment id)."""
    layout, tokens = pack.splice_goal(gc)
    return (layout,
            _kind_rows(tape, params.token_w, params.token_b, layout.kinds[layout.segments.ids],
                       tokens),
            _kind_rows(tape, params.ctx_w, params.ctx_b, layout.kinds, layout.contexts))


def _fe_stage(tape: Tape, params: ModelParams, layout: GoalLayout, tokens: Node, context: Node):
    """The layout and the (E,d) latents of its elements."""
    return layout, encode_element(tape, layout, tokens, context, params)


def _interaction_stage(tape: Tape, params: ModelParams, layout: GoalLayout, latents: Node):
    """f_E, f_R and f_A, each (1,d); an empty set reads its null latent."""

    def set_latents(start: int, size: int, null: Parameter):
        if size == 0:
            return nm.reshape(tape.watch(null), (1, params.config.d)), nm.one_segment(1)
        return nm.take_rows(latents, slice(start, start + size)), nm.one_segment(size)

    roads = layout.num_roads
    f_ego = nm.take_rows(latents, slice(0, 1))
    f_road = interact(tape, f_ego, *set_latents(1, roads, params.null_road), params.road_interact)
    f_agent = interact(tape, f_ego, *set_latents(1 + roads, layout.kinds.size - 1 - roads,
                                                 params.null_agent), params.agent_interact)
    return f_ego, f_road, f_agent


def _fusion_stage(tape: Tape, params: ModelParams, f_ego: Node, f_road: Node, f_agent: Node):
    fused_in = nm.concat_last(nm.concat_last(f_ego, f_road), f_agent)
    return (_run_mlp(_watched_layers(tape, params.fusion), nm.reshape(fused_in, (-1,)),
                     params.config.activation),)


# The stages in arena order, each with the name group of the first parameter
# it reads; every parameter it reads lies before the next stage's first, and
# the decoder's parameters follow the last stage's.
_STAGES = ((_projection_stage, "proj"), (_fe_stage, "fe"), (_interaction_stage, "null"),
           (_fusion_stage, "fusion"))


class _EncoderMemo:
    """What `encode_scene` keeps in a probe memo: the scene, conditioning and
    parameters it last ran on, a copy of the parameter arena as it read it,
    and the outputs of its first stages, each valid for that copy. Stage k
    reads the arena only below `bounds[k]`, the offset of the next stage's
    first parameter in `_STAGES` (the decoder's after the last stage)."""

    __slots__ = ("scene", "gc", "params", "values", "bounds", "outputs")

    def __init__(self, scene: Scene, gc: GoalConditioning | None, params: ModelParams):
        self.scene, self.gc, self.params = scene, gc, params
        self.values = params.values.copy()
        base, first = params.values.ctypes.data, {}
        for name, p in params.named_parameters():
            first.setdefault(name.split(".")[0], (p.value.ctypes.data - base) // p.value.itemsize)
        self.bounds = [first[group] for _, group in _STAGES[1:]] + [first["decoder"]]
        self.outputs: list[tuple] = []

    def kept_outputs(self) -> list[tuple]:
        """The kept outputs of the stages whose parameters are bitwise what
        they read; later ones are dropped, and the copy takes the arena's
        present bits. Compared as uint64, -0.0 differs from 0.0 and each NaN
        from another."""
        now, then = self.params.values.view(np.uint64), self.values.view(np.uint64)
        changed = np.not_equal(now, then)
        first = int(changed.argmax())
        if not changed[first]:
            first = changed.size
        del self.outputs[sum(bound <= first for bound in self.bounds):]
        np.copyto(then, now)
        return self.outputs


def encode_scene(tape: Tape, scene: Scene, params: ModelParams,
                 gc: GoalConditioning | None = None) -> Node:
    """f_enc = MLP(concat[f_E, f_R, f_A]); empty sets fall back to a learned null latent.
    f_E and the set latents are rows of one `encode_element` call over the
    scene's pack, with the goal's rows spliced in at its placement; the
    plans come from the pack's kept layout for that placement.

    It runs in four stages (splice and kind projections, FE blocks,
    interaction, fusion). On a tape with a probe memo (see
    `numerics.gradient_check`) it keeps, under its own key, what it ran on
    and each stage's outputs. A later call on the same scene, `gc` and
    `params` objects finds the first arena offset whose bits changed, takes
    every stage whose parameters all lie before it as constants, and runs
    only the stages after."""
    memo = tape.memo
    kept: list[tuple] = []
    if memo is not None:
        entry = memo.get(_EncoderMemo)
        if entry is None or not (entry.scene is scene and entry.gc is gc and entry.params is params):
            entry = memo[_EncoderMemo] = _EncoderMemo(scene, gc, params)
        kept = entry.kept_outputs()
    outputs = (scene.pack, gc)
    if kept:
        outputs = tuple(tape.constant(v) if isinstance(v, np.ndarray) else v for v in kept[-1])
    for stage, _ in _STAGES[len(kept):]:
        outputs = stage(tape, params, *outputs)
        if memo is not None:
            kept.append(tuple(v.value if isinstance(v, Node) else v for v in outputs))
    return outputs[0]


def decode(tape: Tape, f_enc: Node, params: ModelParams) -> PredictionNodes:
    """K regression branches run as one MLP over a (K,1,·) mode axis, each
    giving (T,4) per mode, plus one logit head."""
    cfg = params.config
    modes = nm.take_rows(nm.reshape(f_enc, (1, 1, cfg.d)), nm.one_segment(cfg.k_modes))
    layers = [(w, nm.reshape(b, (cfg.k_modes, 1, b.value.shape[1])))
              for w, b in _watched_layers(tape, params.decoder)]
    raw = _run_mlp(layers, modes, cfg.activation)
    raw = nm.reshape(raw, (cfg.k_modes, cfg.horizon, 4))
    means = nm.scale(nm.slice_last(raw, 0, 2), cfg.position_scale)
    log_sigmas = nm.clamp(nm.scale(nm.slice_last(raw, 2, 4), cfg.log_sigma_scale),
                          -LOG_SIGMA_CLAMP, LOG_SIGMA_CLAMP)
    logits = _run_mlp(_watched_layers(tape, params.cls_branch), f_enc, cfg.activation)
    return PredictionNodes(means=means, log_sigmas=log_sigmas, logits=logits)


def forward_nodes(
    tape: Tape, scene: Scene, gc: GoalConditioning | None, params: ModelParams
) -> PredictionNodes:
    if gc is not None and gc.horizon != params.config.horizon:
        raise ValueError(f"goal horizon {gc.horizon} does not match the model's horizon "
                         f"{params.config.horizon}")
    return decode(tape, encode_scene(tape, scene, params, gc), params)


def forward(scene: Scene, gc: GoalConditioning | None, params: ModelParams) -> Prediction:
    """Inference pass; pure function of (scene, conditioning, params)."""
    return forward_nodes(Tape(record=False), scene, gc, params).to_prediction()


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


_CONFIG_KEYS = {f.name for f in fields(GolferConfig)}


def load_params(path) -> ModelParams:
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
    config_blob = bytes(take(config_len))
    try:
        raw_config = json.loads(config_blob.decode("utf-8"))
        if not isinstance(raw_config, dict) or raw_config.keys() != _CONFIG_KEYS:
            raise ValueError(f"not a JSON object with exactly the keys {sorted(_CONFIG_KEYS)}")
        config = GolferConfig(**raw_config)
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: bad embedded config: {exc}") from None

    params = _declare_params(config)
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
