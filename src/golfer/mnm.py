"""Mix-and-Match token-mixing blocks.

A block updates an (n,d) token matrix (and optionally a d-wide query vector)
through two stages: Mix aggregates token information, Match redistributes
the aggregate onto every token, and a residual feed-forward refines the
result. The Match kind fixes the Mix: with the attention matmul it is masked
self-attention, and the basic block is exactly a pre-norm transformer encoder
layer; with concatenation or a product it is max pooling, a far cheaper mixer
with the same interface. One `proj` switch adds a block's optional learned
projections: per-head Q/K to attention, (H,dh,dh) to a product Match.

Heads are a leading array axis. A stage with per-head weights (attention,
a concat Match, a product Match with its projection) splits the channels
into H contiguous groups, reshaping (n,d) tokens and their (n,d) aggregate
rows to (H,n,dh). Its per-head weights are stored stacked, one (H,...)
tensor each, so it runs once over all heads as batched ops, and the result
is merged back to (n,d) before the residual add. A product Match without a
projection is elementwise, so it runs at full width with no split, as do
the feed-forward layers. The coordinate-wise max makes per-group pooling
identical to full-width pooling, so max pooling runs before any split.

The query-conditioned block runs E token sets at once, packed as the rows of
one (N,d) matrix with one query per set; the rows' set ids arrive as one
checked `numerics.Segments` plan, shared by every block over those rows. It
standardizes its mixed tokens once for both of its token norms. A block
whose tokens nothing reads (the last of a query-only stack) is declared
without a token FFN: it updates only its query, skipping the token norm,
FFN and residual add.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from . import numerics as nm
from .numerics import DimensionError, Node, Parameter, Tape


class MatchKind(Enum):
    ATTENTION_MATMUL = "attention_matmul"
    CONCAT = "concat"
    PRODUCT = "product"


LAYER_NORM_EPS = 1e-5


def attention_mix(x: Node, mask, wq: Node | None = None, wk: Node | None = None) -> Node:
    """The Mix of an attention-matmul block: masked self-attention.

    Takes (...,n,dh) tokens, one matrix per head, and returns the (...,n,n)
    row-softmax of (xQ)(xK)^T / sqrt(dh), with invalid key columns zeroed and
    invalid query rows all-zero; Q and K are (...,dh,dh) and default to the
    identity. Every other block mixes by `numerics.masked_max_pool`.
    """
    q = nm.matmul(x, wq) if wq is not None else x
    k = nm.matmul(x, wk) if wk is not None else x
    last_two_swapped = (*range(x.value.ndim - 2), x.value.ndim - 1, x.value.ndim - 2)
    scores = nm.matmul(q, nm.transpose(k, last_two_swapped))
    return nm.masked_softmax_rows(nm.scale(scores, 1.0 / math.sqrt(x.value.shape[-1])), mask, mask)


def match(kind: MatchKind, c: Node, x: Node, wm: Node | None = None) -> Node:
    """Redistribute the mixed aggregate back onto each token row.

    x is (...,n,dh), one token matrix per head. c is the matching (...,n,n)
    attention or (...,n,dh) aggregate rows, one per token row; wm is a
    (...,2dh,dh) concat or (...,dh,dh) product projection per head.
    """
    *lead, n, d = x.value.shape
    if kind is MatchKind.ATTENTION_MATMUL:
        if c.value.shape != (*lead, n, n):
            raise DimensionError(f"attention match: mix output {c.value.shape}, tokens {x.value.shape}")
        return nm.matmul(c, x)
    if c.value.shape != x.value.shape:
        raise DimensionError(f"{kind.value} match: mix output {c.value.shape}, tokens {x.value.shape}")
    if kind is MatchKind.CONCAT:
        if wm is None:
            raise DimensionError("concat match requires a (2d,d) projection")
        return nm.matmul(nm.concat_last(x, c), wm)
    # PRODUCT: elementwise with the aggregate rows, optional square projection.
    out = nm.mul(x, c)
    if wm is not None:
        out = nm.matmul(out, wm)
    return out


@dataclass(frozen=True)
class MnMBlockParams:
    """Weights for one block; per-head weights are stacked on a leading head axis.
    Frozen, so a block keeps the kind its weights were declared for; the
    weights themselves stay writable through `Parameter.value`."""

    d: int
    heads: int
    d_ff: int
    match: MatchKind
    activation: str
    norm_mix_gamma: Parameter
    norm_mix_beta: Parameter
    norm_ffn_gamma: Parameter
    norm_ffn_beta: Parameter
    # The token FFN; None in a query-only block, which updates no tokens.
    w1: Parameter | None
    w2: Parameter | None
    # (H,...) Match projections (absent for ATTENTION_MATMUL and for PRODUCT
    # without `proj`).
    wm: Parameter | None = None
    # (H,dh,dh) learned attention projections, an attention block's `proj`.
    wq: Parameter | None = None
    wk: Parameter | None = None
    # Query-variant extras (None in a basic block).
    norm_q_gamma: Parameter | None = None
    norm_q_beta: Parameter | None = None
    w3: Parameter | None = None
    w4: Parameter | None = None

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        yield prefix + "norm_mix.gamma", self.norm_mix_gamma
        yield prefix + "norm_mix.beta", self.norm_mix_beta
        yield prefix + "norm_ffn.gamma", self.norm_ffn_gamma
        yield prefix + "norm_ffn.beta", self.norm_ffn_beta
        if self.w1 is not None:
            yield prefix + "w1", self.w1
            yield prefix + "w2", self.w2
        for name in ("wm", "wq", "wk"):
            family = getattr(self, name)
            if family is not None:
                for h in range(self.heads):
                    yield f"{prefix}{name}.{h}", family[h]
        if self.w3 is not None:
            yield prefix + "norm_q.gamma", self.norm_q_gamma
            yield prefix + "norm_q.beta", self.norm_q_beta
            yield prefix + "w3", self.w3
            yield prefix + "w4", self.w4

    def initialize(self, rng: np.random.Generator) -> None:
        """Norm gains 1, shifts 0, attention projections the identity, and the
        rest uniform in +-1/sqrt(fan_in), drawn from rng in the order w1, w2,
        wm, w3, w4. A query-only block still draws w1 and w2 and drops them,
        so its other weights start as they would in a block with a token FFN."""
        for gamma in (self.norm_mix_gamma, self.norm_ffn_gamma, self.norm_q_gamma):
            if gamma is not None:
                gamma.value[...] = 1.0
        for proj in (self.wq, self.wk):
            if proj is not None:
                proj.value[...] = np.eye(self.d // self.heads)
        for w, shape in ((self.w1, (self.d, self.d_ff)), (self.w2, (self.d_ff, self.d))):
            draw = nm.uniform_init(rng, shape, shape[0])
            if w is not None:
                w.value[...] = draw
        for w in (self.wm, self.w3, self.w4):
            if w is not None:
                w.value[...] = nm.uniform_init(rng, w.value.shape, w.value.shape[-2])


def declare_mnm_block(
    arena: nm.Arena,
    d: int,
    heads: int,
    d_ff: int,
    match_kind: MatchKind,
    activation: str = "gelu",
    query_variant: bool = False,
    proj: bool = False,
    update_tokens: bool = True,
) -> MnMBlockParams:
    """A block whose weights are declared in `arena`; `initialize` them once it
    is allocated. The Match kind fixes the Mix, and `proj` is the one
    projection switch (a concat Match always has its projection and refuses
    it). A query-variant block with `update_tokens=False` has no token FFN
    and returns only its query."""
    attention = match_kind is MatchKind.ATTENTION_MATMUL
    if d % heads != 0:
        raise ValueError(f"embedding dim {d} not divisible by {heads} heads")
    if proj and match_kind is MatchKind.CONCAT:
        raise ValueError("a concat match always has its projection; proj is not an option")
    if query_variant and attention:
        # An attention mix would turn the query into an (n,n) matrix, whose
        # norm/FFN widths depend on the token count; only vector-valued mixes
        # are supported here.
        raise ValueError("query-variant blocks require a vector-valued mix, not attention")
    if not (update_tokens or query_variant):
        raise ValueError("only a query-variant block can leave its tokens out")
    dh = d // heads
    concat = match_kind is MatchKind.CONCAT
    match_proj = concat or (proj and match_kind is MatchKind.PRODUCT)
    # Keyword arguments are evaluated in order, so the arena lays the weights
    # out as listed here.
    return MnMBlockParams(
        d=d,
        heads=heads,
        d_ff=d_ff,
        match=match_kind,
        activation=activation,
        norm_mix_gamma=arena.param((d,)),
        norm_mix_beta=arena.param((d,)),
        norm_ffn_gamma=arena.param((d,)),
        norm_ffn_beta=arena.param((d,)),
        w1=arena.param((d, d_ff)) if update_tokens else None,
        w2=arena.param((d_ff, d)) if update_tokens else None,
        wm=arena.param((heads, 2 * dh if concat else dh, dh)) if match_proj else None,
        wq=arena.param((heads, dh, dh)) if attention and proj else None,
        wk=arena.param((heads, dh, dh)) if attention and proj else None,
        norm_q_gamma=arena.param((d,)) if query_variant else None,
        norm_q_beta=arena.param((d,)) if query_variant else None,
        w3=arena.param((d, d_ff)) if query_variant else None,
        w4=arena.param((d_ff, d)) if query_variant else None,
    )


def init_mnm_block(rng: np.random.Generator, d: int, heads: int, d_ff: int,
                   match_kind: MatchKind, **options) -> MnMBlockParams:
    """A stand-alone block in an arena of its own; `options` as in `declare_mnm_block`."""
    arena = nm.Arena()
    params = declare_mnm_block(arena, d, heads, d_ff, match_kind, **options)
    arena.allocate()
    params.initialize(rng)
    return params


def _split_heads(v: Node, heads: int) -> Node:
    """(n,d) -> (H,n,dh): heads become the leading axis."""
    n, d = v.value.shape
    return nm.transpose(nm.reshape(v, (n, heads, d // heads)), (1, 0, 2))


def _merge_heads(x: Node) -> Node:
    """(H,n,dh) -> (n,d), the inverse of `_split_heads`."""
    heads, n, dh = x.value.shape
    return nm.reshape(nm.transpose(x, (1, 0, 2)), (n, heads * dh))


def _match_rows(tape: Tape, params: MnMBlockParams, c: Node, x: Node) -> Node:
    """Match the (n,d) aggregate rows c onto the (n,d) tokens x. Heads are
    split only for a Match with per-head weights: a product without them is
    elementwise, so it runs at full width."""
    if params.wm is None:
        return match(params.match, c, x)
    heads = params.heads
    return _merge_heads(match(params.match, _split_heads(c, heads), _split_heads(x, heads),
                              tape.watch(params.wm)))


def _ffn(tape: Tape, params: MnMBlockParams, z: Node, w_first: Parameter, w_second: Parameter) -> Node:
    hidden = nm.activation(nm.matmul(z, tape.watch(w_first)), params.activation)
    return nm.matmul(hidden, tape.watch(w_second))


def mnm_basic(tape: Tape, x: Node, mask, params: MnMBlockParams) -> Node:
    """C <- Mix(Norm(X), M);  S <- Match(C, X) + X;  X <- FFN(Norm(S)) + S."""
    xn = nm.layer_norm(x, tape.watch(params.norm_mix_gamma), tape.watch(params.norm_mix_beta),
                       LAYER_NORM_EPS)
    if params.match is MatchKind.ATTENTION_MATMUL:
        wq = tape.watch(params.wq) if params.wq is not None else None
        wk = tape.watch(params.wk) if params.wk is not None else None
        attn = attention_mix(_split_heads(xn, params.heads), mask, wq, wk)
        matched = _merge_heads(match(params.match, attn, _split_heads(x, params.heads)))
    else:
        pooled = nm.reshape(nm.masked_max_pool(xn, mask), (1, params.d))
        rows = nm.take_rows(pooled, nm.one_segment(x.value.shape[0]))
        matched = _match_rows(tape, params, rows, x)
    s = nm.add(matched, x)
    sn = nm.layer_norm(s, tape.watch(params.norm_ffn_gamma), tape.watch(params.norm_ffn_beta),
                       LAYER_NORM_EPS)
    return nm.add(_ffn(tape, params, sn, params.w1, params.w2), s)


def mnm_query(tape: Tape, x: Node, c: Node, segments: nm.Segments,
              params: MnMBlockParams) -> tuple[Node | None, Node]:
    """Query-conditioned variant over E packed token sets; Match runs first.

    x is (N,d) token rows, `segments` the plan of each row's set id, and c
    the (E,d) incoming queries, one per set.

    S  <- Match(C[segments], X) + X
    C' <- SegmentMax(Norm(S))
    X' <- FFN(Norm(S)) + S
    C''<- FFN_q(Norm(C')) + C'

    S is standardized once; the two norms of S apply their own scale and
    shift to it. A query-only block (no w1) neither computes nor returns X'
    (None in its place), and its C'' is that of the same block with a token
    FFN.
    """
    if params.w3 is None:
        raise ValueError("block was not initialized as a query-variant block")
    if c.value.shape != (segments.count, params.d):
        raise DimensionError(f"queries {c.value.shape}, expected ({segments.count},{params.d})")
    s = nm.add(_match_rows(tape, params, nm.take_rows(c, segments), x), x)
    s_std = nm.Standardized(s, LAYER_NORM_EPS)
    s_mix = nm.affine_norm(s_std, tape.watch(params.norm_mix_gamma), tape.watch(params.norm_mix_beta))
    c_mix = nm.segment_max(s_mix, segments)
    x_out = None
    if params.w1 is not None:
        sn = nm.affine_norm(s_std, tape.watch(params.norm_ffn_gamma), tape.watch(params.norm_ffn_beta))
        x_out = nm.add(_ffn(tape, params, sn, params.w1, params.w2), s)
    cn = nm.layer_norm(c_mix, tape.watch(params.norm_q_gamma), tape.watch(params.norm_q_beta),
                       LAYER_NORM_EPS)
    c_out = nm.add(_ffn(tape, params, cn, params.w3, params.w4), c_mix)
    return x_out, c_out
