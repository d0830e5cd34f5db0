"""Dense float64 matrix/vector ops with hand-written backward rules.

Every differentiable op takes `Node` operands, computes its value eagerly with
numpy, and hands a backward closure to the owning `Tape`. Calling
`Tape.backward` on a scalar output replays the recorded closures in reverse
evaluation order, accumulating vector-Jacobian products into each node's
`grad` buffer. Leaf gradients land directly in `Parameter.grad`. A value-only
`Tape(record=False)` is for passes never differentiated: each op computes its
value by the same code, but builds no closure and records nothing, so work
only backward reads, such as masks and argmax rows, is never done there.
The value-only probes of one `gradient_check` call share a probe memo
(`Tape.memo`), a dict in which a forward may keep stage outputs and reuse
those whose inputs are unchanged; only `gradient_check` makes one.

Accumulation starts on first touch: a node's gradient is None until an op
first hands it one, and that first array becomes the buffer, where the
output's array or a view of it is copied so that no two nodes share one.
The tape skips the closure of an op whose output never received a gradient
(a dead branch), leaving its operands untouched. Only ops that write into
part of a buffer (`slice_last`, `pick`, `take_rows`, `segment_max`) start
from zeros. Every non-leaf gradient is C-contiguous, as zero-filled buffers
were, so the sums and matmuls that read it give the same bits.

Conventions: matrices are 2-D float64 arrays in row-major order, vectors are
1-D, masks are 1-D bool arrays with True marking a valid entry. Scalars are
0-d arrays. Normalization and softmax act along the last axis. Batched ops
(`matmul`, `masked_softmax_rows`, the elementwise and structural ops) treat
leading axes, such as attention heads or decoder modes, as a batch.
Sets of rows, such as the tokens of a scene's elements, are packed into one
(N,d) matrix with a segment id per row, not padded. The ids are built once,
from the sets' row counts, as a `Segments` plan, which every `take_rows` and
`segment_max` over those rows reuses to gather to and pool from them; a
(1,...) x is broadcast to k rows by gathering through the shared plan
`one_segment(k)`. A `Standardized` x is likewise computed once and shared by
each `affine_norm` (layer norm) of the same x.
"""

from __future__ import annotations

import math
import mmap
import weakref
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class DimensionError(ValueError):
    """Operand shapes are incompatible."""


class EmptySetError(ValueError):
    """A masked reduction was asked to run over zero valid entries."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""


class NotRecordingError(RuntimeError):
    """`backward` was called on a value-only tape, which recorded nothing."""


def _as_f64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _as_mask(bits) -> np.ndarray:
    return np.asarray(bits, dtype=bool)


class Parameter:
    """A trainable value with a same-shaped gradient accumulator.

    `p[i]` is slice i of a stacked parameter, with `value` and `grad` as views
    of p's, so a family of per-head or per-mode weights is stored once.
    """

    __slots__ = ("value", "grad")

    def __init__(self, value, grad: np.ndarray | None = None):
        self.value = _as_f64(value)
        self.grad = np.zeros_like(self.value) if grad is None else grad

    def __getitem__(self, index) -> "Parameter":
        return Parameter(self.value[index], self.grad[index])

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


def mapped_zeros(size: int) -> np.ndarray:
    """A float64 zero vector in pages mapped straight from the OS, for large
    buffers made and dropped again and again (parameter arenas, optimizer
    moments). Its pages cost no memory until written and go back to the OS
    when it is dropped. Through malloc, freeing one such buffer raised the
    allocator's mmap threshold, so later ones landed on the heap, where freed
    buffers stayed resident."""
    return np.frombuffer(mmap.mmap(-1, 8 * size), dtype=np.float64)


ARENA_BUDGET = 20_000_000  # parameters: values, grads and Adam's moments stay under 640 MB


class Arena:
    """Contiguous storage for a set of parameters.

    Shapes are declared first; `allocate` then creates one flat value buffer
    and one flat grad buffer, both zero, and binds each declared parameter's
    `value` and `grad` to its own stretch of them, in declaration order.
    Initial values are written into those views, never copied in. Until then
    a declared parameter's arrays are read-only stand-ins without storage.
    The first declaration past `ARENA_BUDGET` parameters raises a ValueError;
    shapes are counted in Python integers, and counting stops there.
    """

    __slots__ = ("_declared", "size")

    def __init__(self):
        self._declared: list[Parameter] = []
        self.size = 0

    def param(self, shape: tuple[int, ...]) -> Parameter:
        self.size += math.prod(shape)
        if self.size > ARENA_BUDGET:
            raise ValueError(f"at least {self.size} parameters, over the arena budget of {ARENA_BUDGET}")
        stand_in = np.broadcast_to(np.float64(0.0), shape)
        p = Parameter(stand_in, stand_in)
        self._declared.append(p)
        return p

    def allocate(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat (values, grads) buffers, once every parameter is declared."""
        values, grads = mapped_zeros(self.size), mapped_zeros(self.size)
        offset = 0
        for p in self._declared:
            end = offset + p.value.size
            p.value = values[offset:end].reshape(p.value.shape)
            p.grad = grads[offset:end].reshape(p.grad.shape)
            offset = end
        return values, grads


class Node:
    """One value in a recorded computation; `grad` fills in during backward.

    No gradient buffer exists until backward first reaches the node, so a
    forward-only evaluation allocates none; reading `grad` of a node that
    got none gives zeros.
    """

    __slots__ = ("value", "_grad", "tape")

    def __init__(self, value: np.ndarray, tape: "_TapeRef", grad: np.ndarray | None = None):
        self.value = value
        self._grad = grad
        self.tape = tape

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros(self.value.shape, self.value.dtype)
        return self._grad


class _TapeRef(weakref.ref):
    """A node's weak reference to its tape, through which its ops record,
    and whether that tape records: an op builds its backward closure only
    if it does."""

    __slots__ = ("recording",)

    def record(self, out: Node, step: Callable[[np.ndarray], None]) -> None:
        tape = self()
        if tape is None:
            raise ReferenceError("the tape of this node was dropped; keep the Tape referenced "
                                 "while ops still record on its nodes")
        tape.record(out, step)


class Tape:
    """Records each op's output with its backward closure in evaluation
    order; replays them reversed, handing each closure its output's gradient.

    The tape and the closures hold the nodes, so nodes hold only a weak
    reference to their tape: a graph is no reference cycle, and dropping the
    tape frees it by reference count. On a value-only tape (`record=False`)
    ops build no closure and record nothing, so each intermediate is freed
    once no later op reads it.

    `memo` is None, or a dict that the value-only probes of one
    `gradient_check` share: a forward may keep stage outputs in it under its
    own key and reuse those whose inputs have not changed since (see
    `model.encode_scene`). Only `gradient_check` creates one.
    """

    __slots__ = ("_steps", "_ref", "memo", "__weakref__")

    def __init__(self, record: bool = True, memo: dict | None = None):
        if record and memo is not None:
            raise ValueError("a probe memo goes only on a value-only tape (record=False): "
                             "a reused stage is a constant, so no gradient would reach "
                             "the parameters before it")
        self._steps: list[tuple[Node, Callable[[np.ndarray], None]]] = []
        self._ref = _TapeRef(self)
        self._ref.recording = record
        self.memo = memo

    @property
    def recording(self) -> bool:
        return self._ref.recording

    def record(self, out: Node, step: Callable[[np.ndarray], None]) -> None:
        """Keep an op's output and the closure that takes its gradient."""
        self._steps.append((out, step))

    def constant(self, value) -> Node:
        """Wrap a value that should receive no gradient."""
        return Node(_as_f64(value), self._ref)

    def watch(self, param: Parameter) -> Node:
        """Expose a parameter as a leaf; its grad accumulates in place."""
        return Node(param.value, self._ref, grad=param.grad)

    def backward(self, out: Node) -> None:
        """Seed a scalar output with gradient 1 and replay the tape."""
        if not self.recording:
            raise NotRecordingError("backward on a value-only tape, which recorded nothing")
        if out.value.shape != ():
            raise DimensionError(f"backward root must be a scalar, got shape {out.value.shape}")
        out.grad[...] += 1.0
        for node, step in reversed(self._steps):
            if node._grad is not None:  # else a dead branch: nothing flows back
                step(node._grad)


def _accumulate(node: Node, fresh: np.ndarray) -> None:
    """Add `fresh`, an array no other node holds, to node's gradient; the
    first one becomes the buffer (a C-contiguous copy if it is not)."""
    if node._grad is None:
        node._grad = fresh if fresh.flags.c_contiguous else np.ascontiguousarray(fresh)
    else:
        node._grad += fresh


def _accumulate_copy(node: Node, shared: np.ndarray) -> None:
    """Add `shared`, another node's gradient or a view of it; the first one
    is copied, so the two nodes never share a buffer."""
    if node._grad is None:
        node._grad = shared.copy()
    else:
        node._grad += shared


# ---------------------------------------------------------------------------
# Elementwise ops (shape-generic)
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"add: {a.value.shape} vs {b.value.shape}")
    out = Node(a.value + b.value, a.tape)
    if a.tape.recording:
        def backward(g):
            _accumulate_copy(a, g)
            _accumulate_copy(b, g)

        a.tape.record(out, backward)
    return out


def mul(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"mul: {a.value.shape} vs {b.value.shape}")
    out = Node(a.value * b.value, a.tape)
    if a.tape.recording:
        def backward(g):
            _accumulate(a, g * b.value)
            _accumulate(b, g * a.value)

        a.tape.record(out, backward)
    return out


def scale(x: Node, s: float) -> Node:
    out = Node(x.value * s, x.tape)
    if x.tape.recording:
        def backward(g):
            _accumulate(x, g * s)

        x.tape.record(out, backward)
    return out


def exp(x: Node) -> Node:
    out = Node(np.exp(x.value), x.tape)
    if x.tape.recording:
        def backward(g):
            _accumulate(x, g * out.value)

        x.tape.record(out, backward)
    return out


def clamp(x: Node, lo: float, hi: float) -> Node:
    out = Node(np.clip(x.value, lo, hi), x.tape)
    if x.tape.recording:
        def backward(g):
            _accumulate(x, g * ((x.value >= lo) & (x.value <= hi)))

        x.tape.record(out, backward)
    return out


def maximum(a: Node, b: Node) -> Node:
    """Elementwise max; ties route the gradient to the first operand."""
    if a.value.shape != b.value.shape:
        raise DimensionError(f"maximum: {a.value.shape} vs {b.value.shape}")
    out = Node(np.maximum(a.value, b.value), a.tape)
    if a.tape.recording:
        def backward(g):
            a_wins = a.value >= b.value
            _accumulate(a, g * a_wins)
            _accumulate(b, g * ~a_wins)

        a.tape.record(out, backward)
    return out


def relu(x: Node) -> Node:
    out = Node(np.maximum(x.value, 0.0), x.tape)
    if x.tape.recording:
        def backward(g):
            _accumulate(x, g * (x.value > 0.0))

        x.tape.record(out, backward)
    return out


def gelu(x: Node) -> Node:
    """Exact Gaussian-CDF form: x * Phi(x). Temporaries are built in place,
    in the order of 0.5 * (1 + erf(x / sqrt 2)), so the bits are the same."""
    cdf = x.value / _SQRT2
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    out = Node(x.value * cdf, x.tape)
    if x.tape.recording:
        def backward(g):
            dx = np.multiply(x.value, -0.5)
            dx *= x.value
            np.exp(dx, out=dx)
            dx *= _INV_SQRT_2PI
            dx *= x.value
            dx += cdf
            dx *= g
            _accumulate(x, dx)

        x.tape.record(out, backward)
    return out


ACTIVATIONS = {"gelu": gelu, "relu": relu}


def activation(x: Node, kind: str) -> Node:
    op = ACTIVATIONS.get(kind)
    if op is None:
        raise ValueError(f"unknown activation kind {kind!r}")
    return op(x)


# ---------------------------------------------------------------------------
# Linear algebra and structural ops
# ---------------------------------------------------------------------------


def matmul(a: Node, b: Node) -> Node:
    """(...,n,k) @ (...,k,m) -> (...,n,m) over equal leading batch dims, or
    (k,) @ (k,m) -> (m,)."""
    av, bv = a.value, b.value
    if av.ndim == 1:
        ok = bv.ndim == 2 and av.shape[0] == bv.shape[0]
    else:
        ok = 2 <= av.ndim == bv.ndim and av.shape[:-2] == bv.shape[:-2] and av.shape[-1] == bv.shape[-2]
    if not ok:
        raise DimensionError(f"matmul: {av.shape} x {bv.shape}")
    out = Node(av @ bv, a.tape)
    if a.tape.recording:
        def backward(g):
            if av.ndim == 1:
                _accumulate(a, bv @ g)
                _accumulate(b, np.outer(av, g))
            else:
                _accumulate(a, g @ np.swapaxes(bv, -1, -2))
                at = np.swapaxes(av, -1, -2)
                # One row of a: each entry of b's gradient is a single product.
                _accumulate(b, at * g if av.shape[-2] == 1 else at @ g)

        a.tape.record(out, backward)
    return out


def transpose(x: Node, axes: tuple[int, ...]) -> Node:
    """Permute axes: out.shape[i] == x.shape[axes[i]], as in np.transpose."""
    out = Node(np.transpose(x.value, axes), x.tape)
    if x.tape.recording:
        def backward(g):
            inverse = sorted(range(len(axes)), key=axes.__getitem__)
            _accumulate_copy(x, np.transpose(g, inverse))

        x.tape.record(out, backward)
    return out


def reshape(x: Node, shape: tuple[int, ...]) -> Node:
    out = Node(x.value.reshape(shape), x.tape)
    if x.tape.recording:
        def backward(g):
            _accumulate_copy(x, g.reshape(x.value.shape))

        x.tape.record(out, backward)
    return out


def concat_last(a: Node, b: Node) -> Node:
    """Concatenate along the last axis."""
    out = Node(np.concatenate([a.value, b.value], axis=-1), a.tape)
    if a.tape.recording:
        split = a.value.shape[-1]

        def backward(g):
            _accumulate_copy(a, g[..., :split])
            _accumulate_copy(b, g[..., split:])

        a.tape.record(out, backward)
    return out


def slice_last(x: Node, lo: int, hi: int) -> Node:
    """x[..., lo:hi]."""
    out = Node(np.ascontiguousarray(x.value[..., lo:hi]), x.tape)
    if x.tape.recording:
        def backward(g):
            x.grad[..., lo:hi] += g

        x.tape.record(out, backward)
    return out


class Segments:
    """The plan of consecutive segments of counts[i] packed rows each, built
    once and shared by every `take_rows` and `segment_max` over those rows.

    Row i is in segment ids[i], and `starts` holds each segment's first row.
    Ids built from counts run 0..count-1 in order by construction, so only
    that each count is at least 1 is checked.
    """

    __slots__ = ("ids", "count", "starts")

    def __init__(self, counts):
        counts = np.asarray(counts, dtype=np.intp)
        if counts.ndim != 1 or counts.size == 0 or np.minimum.reduce(counts) < 1:
            raise DimensionError(f"segment counts must each be at least 1, got {counts}")
        self.count = counts.size
        self.ids = np.repeat(np.arange(counts.size, dtype=np.intp), counts)
        self.starts = np.zeros(counts.size, dtype=np.intp)
        np.cumsum(counts[:-1], out=self.starts[1:])


@lru_cache(maxsize=256)
def one_segment(size: int) -> Segments:
    """The read-only plan of `size` rows in one segment, built once per size.
    Gathering a (1,...) x through it repeats x `size` times."""
    plan = Segments([size])
    plan.ids.flags.writeable = plan.starts.flags.writeable = False
    return plan


def _ranks(ids: np.ndarray) -> np.ndarray:
    """Each id's 1-based rank among the equal ids before it and itself, found
    by a stable sort."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    first = np.ones(ids.size, dtype=bool)
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    ranks = np.empty_like(ids)
    ranks[order] = np.arange(1, ids.size + 1) - starts[np.cumsum(first) - 1]
    return ranks


def take_rows(x: Node, index) -> Node:
    """x[index] along the first axis; a repeated row's gradient sums its copies
    in order.

    `index` is a `Segments` plan (row i is x[plan.ids[i]]), a `slice` (a view
    of a contiguous range) or non-negative row numbers. Each backward adds
    the same values in the same order as `np.add.at`: a slice adds once per
    row; otherwise x's gradient and then, rank by rank, the copies of each of
    x's rows are laid out in its slot, padded with -0.0, and the layout is
    summed over ranks from -0.0 (x + -0.0 is x, also for x = -0.0).
    A plan's ranks follow from its segment starts, row numbers' from a
    stable sort. So a broadcast of a (1,...) x to k rows gathers through
    `one_segment(k)`: its ranks are 1..k, as the sort gives row numbers
    [0] * k, so it lays out and sums the same values without sorting.
    numpy sums pairwise only along a contiguous axis, so an x of one value
    is summed with a running sum instead."""
    if isinstance(index, slice):
        out = Node(x.value[index], x.tape)
        if not x.tape.recording:
            return out

        def backward(g):
            x.grad[index] += g
    else:
        plan = index if isinstance(index, Segments) else None
        ids = plan.ids if plan is not None else np.asarray(index, dtype=np.intp)
        out = Node(x.value[ids], x.tape)
        if not x.tape.recording:
            return out

        def backward(g):
            grad = x.grad
            ranks = np.arange(1, ids.size + 1) - plan.starts[ids] if plan is not None else _ranks(ids)
            layout = np.full((ranks.max() + 1, *grad.shape), -0.0)
            layout[0] = grad
            layout[ranks, ids] = g
            if grad.size == 1:
                grad[...] = np.add.accumulate(layout.reshape(-1))[-1]
            else:
                np.add.reduce(layout, axis=0, out=grad, initial=-0.0)

    x.tape.record(out, backward)
    return out


def weighted_sum(x: Node, weights) -> Node:
    """sum(x * weights) -> scalar; weights is a constant array."""
    w = _as_f64(weights)
    if w.shape != x.value.shape:
        raise DimensionError(f"weighted_sum: {x.value.shape} vs weights {w.shape}")
    out = Node(np.asarray((x.value * w).sum()), x.tape)
    if x.tape.recording:
        def backward(g):
            _accumulate(x, g * w)

        x.tape.record(out, backward)
    return out


def pick(v: Node, index: int) -> Node:
    """v[index] along the first axis: a scalar from a vector, a slice otherwise."""
    out = Node(np.asarray(v.value[index]), v.tape)
    if v.tape.recording:
        def backward(g):
            v.grad[index] += g

        v.tape.record(out, backward)
    return out


def logsumexp(v: Node) -> Node:
    """log(sum(exp(v))) over a vector, max-stabilized."""
    m = v.value.max()
    e = np.exp(v.value - m)
    s = e.sum()
    out = Node(np.asarray(m + math.log(s)), v.tape)
    if v.tape.recording:
        def backward(g):
            _accumulate(v, g * (e / s))

        v.tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Normalization, softmax, pooling
# ---------------------------------------------------------------------------


class Standardized:
    """x standardized along its last axis: xhat = (x - mean) * inv_std, with
    inv_std = 1 / sqrt(var + epsilon). Several `affine_norm` ops can share
    one, so each norm of the same x costs only its own scale and shift."""

    __slots__ = ("x", "xhat", "inv_std")

    def __init__(self, x: Node, epsilon: float):
        if epsilon <= 0:
            raise ValueError("layer_norm: epsilon must be positive")
        d = x.value.shape[-1]
        # Sums as add.reduce and means as sum / d: bitwise equal to ndarray.sum
        # and ndarray.mean, without their Python wrappers.
        mu = np.add.reduce(x.value, axis=-1, keepdims=True) / d
        xc = x.value - mu
        var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
        self.x = x
        self.inv_std = 1.0 / np.sqrt(var + epsilon)
        self.xhat = xc * self.inv_std


def affine_norm(z: Standardized, gamma: Node, beta: Node) -> Node:
    """xhat * gamma + beta of a standardized x; gamma and beta are (d,). Its
    backward closes over z's arrays, and each op sharing z adds its own
    gradient to x."""
    x, xhat, inv_std = z.x, z.xhat, z.inv_std
    d = xhat.shape[-1]
    if gamma.value.shape != (d,) or beta.value.shape != (d,):
        raise DimensionError(
            f"layer_norm: feature dim {d}, gamma {gamma.value.shape}, beta {beta.value.shape}"
        )
    out = Node(xhat * gamma.value + beta.value, x.tape)
    if x.tape.recording:
        def backward(g):
            lead = tuple(range(g.ndim - 1))
            _accumulate(gamma, np.add.reduce(g * xhat, axis=lead))
            _accumulate(beta, np.add.reduce(g, axis=lead))
            dxhat = g * gamma.value
            _accumulate(x, inv_std * (
                dxhat
                - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
                - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
            ))

        x.tape.record(out, backward)
    return out


def layer_norm(x: Node, gamma: Node, beta: Node, epsilon: float = 1e-5) -> Node:
    """Standardize along the last axis, then scale/shift.

    Works on (n,d) matrices (per-row) and (d,) vectors alike; gamma and beta
    are (d,).
    """
    return affine_norm(Standardized(x, epsilon), gamma, beta)


def masked_softmax_rows(scores: Node, key_mask, query_mask) -> Node:
    """Row-wise masked softmax of (n,n) score matrices, with any leading axes.

    Invalid key columns get weight 0; rows for invalid queries are all-zero.
    """
    km = _as_mask(key_mask)
    qm = _as_mask(query_mask)
    n = scores.value.shape[-1]
    if scores.value.shape[-2:] != (n, n) or km.shape != (n,) or qm.shape != (n,):
        raise DimensionError(
            f"masked_softmax_rows: scores {scores.value.shape}, masks {km.shape}/{qm.shape}"
        )
    if not km.any():
        raise EmptySetError("masked_softmax_rows: no valid keys")
    masked = np.where(km, scores.value, -np.inf)
    e = np.exp(masked - masked.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    p[..., ~qm, :] = 0.0
    out = Node(p, scores.tape)
    if scores.tape.recording:
        def backward(g):
            _accumulate(scores, p * (g - (g * p).sum(axis=-1, keepdims=True)))

        scores.tape.record(out, backward)
    return out


def masked_max_pool(x: Node, mask) -> Node:
    """Column-wise max over the valid rows of an (n,d) matrix -> (d,): a
    `segment_max` of the valid rows as one segment, with its gradient rule."""
    m = _as_mask(mask)
    if x.value.ndim != 2 or m.shape != (x.value.shape[0],):
        raise DimensionError(f"masked_max_pool: values {x.value.shape}, mask {m.shape}")
    if not m.any():
        raise EmptySetError("masked_max_pool: mask has no valid rows")
    rows = np.flatnonzero(m)
    pooled = segment_max(take_rows(x, rows), one_segment(rows.size))
    return reshape(pooled, (x.value.shape[1],))


def segment_max(x: Node, segments: Segments) -> Node:
    """Column-wise max over each segment's rows: (N,d) -> (count,d). Each
    column's gradient routes to the first row of its segment achieving the
    maximum."""
    seg = segments.ids
    if x.value.ndim != 2 or x.value.shape[0] != seg.size:
        raise DimensionError(f"segment_max: values {x.value.shape}, {seg.size} segment ids")
    starts = segments.starts
    value = np.maximum.reduceat(x.value, starts, axis=0)
    out = Node(value, x.tape)
    if x.tape.recording:
        def backward(g):
            rows = np.where(x.value == value[seg], np.arange(seg.size)[:, None], seg.size)
            x.grad[np.minimum.reduceat(rows, starts, axis=0), np.arange(value.shape[1])] += g

        x.tape.record(out, backward)
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


FD_STEP = 1e-5


def gradient_check(fn: Callable[[Tape], Node], inputs: Sequence[Parameter]) -> float:
    """Compare analytic gradients of a scalar-valued composite against central
    finite differences of step `FD_STEP`.

    `fn` must build the computation on the tape it is given (reading each
    input via `tape.watch`) and return a scalar Node; the probes get value-only
    tapes, and one that raises leaves its input restored. Returns the max over
    all input coordinates of |analytic - numeric| / max(1, |numeric|).

    The probes of one call share one memo dict, made here and dropped on
    return; the recording pass gets none. The model's encoder keeps its
    stage outputs in it and reuses a stage only while its scene, conditioning
    and parameter objects are the same and the arena bits the stage read are
    unchanged (`model.encode_scene`), so each probe's loss is bitwise that of
    a fresh tape.
    """
    for p in inputs:
        p.zero_grad()
    tape = Tape()
    out = fn(tape)
    if not np.isfinite(out.value):
        raise NumericError("gradient_check: non-finite forward value")
    tape.backward(out)
    analytic = [p.grad.copy() for p in inputs]
    for p in inputs:
        p.zero_grad()

    worst = 0.0
    memo: dict = {}
    for p, grad in zip(inputs, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            try:
                flat[i] = saved + FD_STEP
                f_plus = float(fn(Tape(record=False, memo=memo)).value)
                flat[i] = saved - FD_STEP
                f_minus = float(fn(Tape(record=False, memo=memo)).value)
            finally:
                flat[i] = saved
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericError("gradient_check: non-finite perturbed value")
            numeric = (f_plus - f_minus) / (2.0 * FD_STEP)
            err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Zero-mean uniform weights scaled by 1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
