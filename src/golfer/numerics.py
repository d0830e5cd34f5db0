"""Dense float64 matrix/vector ops with hand-written backward rules.

Every differentiable op takes `Node` operands, computes its value eagerly with
numpy, and hands a backward closure to the owning `Tape`. Calling
`Tape.backward` on a scalar output replays the recorded closures in reverse
evaluation order, accumulating vector-Jacobian products into each node's
`grad` buffer. Leaf gradients land directly in `Parameter.grad`. A value-only
`Tape(record=False)` records nothing, for passes never differentiated; work
only backward reads, such as masks and argmax rows, is done in the closure.

Conventions: matrices are 2-D float64 arrays in row-major order, vectors are
1-D, masks are 1-D bool arrays with True marking a valid entry. Scalars are
0-d arrays. Normalization and softmax act along the last axis. Batched ops
(`matmul`, `masked_softmax_rows`, the elementwise and structural ops) treat
leading axes, such as attention heads or decoder modes, as a batch.
Sets of rows, such as the tokens of a scene's elements, are packed into one
(N,d) matrix with a segment id per row, not padded; `take_rows` and
`segment_max` gather to and pool from those rows.
"""

from __future__ import annotations

import math
import weakref
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


class Node:
    """One value in a recorded computation; `grad` fills in during backward.

    The gradient buffer is allocated as zeros on first access, so a
    forward-only evaluation allocates none.
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

    @grad.setter
    def grad(self, value: np.ndarray) -> None:
        self._grad = value


class _TapeRef(weakref.ref):
    """A node's weak reference to its tape, through which its ops record."""

    __slots__ = ()

    def record(self, step: Callable[[], None]) -> None:
        tape = self()
        if tape is None:
            raise ReferenceError("the tape of this node was dropped; keep the Tape referenced "
                                 "while ops still record on its nodes")
        if tape.recording:
            tape.record(step)


class Tape:
    """Records backward closures in evaluation order; replays them reversed.

    The closures hold their nodes, so nodes hold only a weak reference to
    their tape: a graph is no reference cycle, and dropping the tape frees it
    by reference count. A value-only tape (`record=False`) drops the closures,
    so each intermediate is freed once no later op reads it.
    """

    __slots__ = ("_steps", "_ref", "recording", "__weakref__")

    def __init__(self, record: bool = True):
        self._steps: list[Callable[[], None]] = []
        self._ref = _TapeRef(self)
        self.recording = record

    def record(self, step: Callable[[], None]) -> None:
        self._steps.append(step)

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
        out.grad += 1.0
        for step in reversed(self._steps):
            step()


# ---------------------------------------------------------------------------
# Elementwise ops (shape-generic)
# ---------------------------------------------------------------------------


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"add: {a.value.shape} vs {b.value.shape}")
    out = Node(a.value + b.value, a.tape)

    def backward():
        a.grad += out.grad
        b.grad += out.grad

    a.tape.record(backward)
    return out


def mul(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        raise DimensionError(f"mul: {a.value.shape} vs {b.value.shape}")
    out = Node(a.value * b.value, a.tape)

    def backward():
        a.grad += out.grad * b.value
        b.grad += out.grad * a.value

    a.tape.record(backward)
    return out


def scale(x: Node, s: float) -> Node:
    out = Node(x.value * s, x.tape)

    def backward():
        x.grad += out.grad * s

    x.tape.record(backward)
    return out


def exp(x: Node) -> Node:
    out = Node(np.exp(x.value), x.tape)

    def backward():
        x.grad += out.grad * out.value

    x.tape.record(backward)
    return out


def clamp(x: Node, lo: float, hi: float) -> Node:
    out = Node(np.clip(x.value, lo, hi), x.tape)

    def backward():
        x.grad += out.grad * ((x.value >= lo) & (x.value <= hi))

    x.tape.record(backward)
    return out


def maximum(a: Node, b: Node) -> Node:
    """Elementwise max; ties route the gradient to the first operand."""
    if a.value.shape != b.value.shape:
        raise DimensionError(f"maximum: {a.value.shape} vs {b.value.shape}")
    out = Node(np.maximum(a.value, b.value), a.tape)

    def backward():
        a_wins = a.value >= b.value
        a.grad += out.grad * a_wins
        b.grad += out.grad * ~a_wins

    a.tape.record(backward)
    return out


def relu(x: Node) -> Node:
    out = Node(np.maximum(x.value, 0.0), x.tape)

    def backward():
        x.grad += out.grad * (x.value > 0.0)

    x.tape.record(backward)
    return out


def gelu(x: Node) -> Node:
    """Exact Gaussian-CDF form: x * Phi(x)."""
    cdf = 0.5 * (1.0 + erf(x.value / _SQRT2))
    out = Node(x.value * cdf, x.tape)

    def backward():
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x.value * x.value)
        x.grad += out.grad * (cdf + x.value * pdf)

    x.tape.record(backward)
    return out


def activation(x: Node, kind: str) -> Node:
    if kind == "relu":
        return relu(x)
    if kind == "gelu":
        return gelu(x)
    raise ValueError(f"unknown activation kind {kind!r}")


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

    def backward():
        if av.ndim == 1:
            a.grad += bv @ out.grad
            b.grad += np.outer(av, out.grad)
        else:
            a.grad += out.grad @ np.swapaxes(bv, -1, -2)
            b.grad += np.swapaxes(av, -1, -2) @ out.grad

    a.tape.record(backward)
    return out


def transpose(x: Node, axes: tuple[int, ...]) -> Node:
    """Permute axes: out.shape[i] == x.shape[axes[i]], as in np.transpose."""
    out = Node(np.transpose(x.value, axes), x.tape)

    def backward():
        x.grad += np.transpose(out.grad, sorted(range(len(axes)), key=axes.__getitem__))

    x.tape.record(backward)
    return out


def reshape(x: Node, shape: tuple[int, ...]) -> Node:
    out = Node(x.value.reshape(shape), x.tape)

    def backward():
        x.grad += out.grad.reshape(x.value.shape)

    x.tape.record(backward)
    return out


def concat_last(a: Node, b: Node) -> Node:
    """Concatenate along the last axis."""
    out = Node(np.concatenate([a.value, b.value], axis=-1), a.tape)
    split = a.value.shape[-1]

    def backward():
        a.grad += out.grad[..., :split]
        b.grad += out.grad[..., split:]

    a.tape.record(backward)
    return out


def slice_last(x: Node, lo: int, hi: int) -> Node:
    """x[..., lo:hi]."""
    out = Node(np.ascontiguousarray(x.value[..., lo:hi]), x.tape)

    def backward():
        x.grad[..., lo:hi] += out.grad

    x.tape.record(backward)
    return out


def take_rows(x: Node, index) -> Node:
    """x[index] along the first axis; a repeated row's gradient sums its copies,
    so `take_rows(x, [0] * k)` of a (1,...) x repeats it k times."""
    idx = np.asarray(index, dtype=np.intp)
    out = Node(x.value[idx], x.tape)

    def backward():
        np.add.at(x.grad, idx, out.grad)

    x.tape.record(backward)
    return out


def weighted_sum(x: Node, weights) -> Node:
    """sum(x * weights) -> scalar; weights is a constant array."""
    w = _as_f64(weights)
    if w.shape != x.value.shape:
        raise DimensionError(f"weighted_sum: {x.value.shape} vs weights {w.shape}")
    out = Node(np.asarray((x.value * w).sum()), x.tape)

    def backward():
        x.grad += out.grad * w

    x.tape.record(backward)
    return out


def pick(v: Node, index: int) -> Node:
    """v[index] along the first axis: a scalar from a vector, a slice otherwise."""
    out = Node(np.asarray(v.value[index]), v.tape)

    def backward():
        v.grad[index] += out.grad

    v.tape.record(backward)
    return out


def logsumexp(v: Node) -> Node:
    """log(sum(exp(v))) over a vector, max-stabilized."""
    m = v.value.max()
    e = np.exp(v.value - m)
    s = e.sum()
    out = Node(np.asarray(m + math.log(s)), v.tape)

    def backward():
        v.grad += out.grad * (e / s)

    v.tape.record(backward)
    return out


# ---------------------------------------------------------------------------
# Normalization, softmax, pooling
# ---------------------------------------------------------------------------


def layer_norm(x: Node, gamma: Node, beta: Node, epsilon: float = 1e-5) -> Node:
    """Standardize along the last axis, then scale/shift.

    Works on (n,d) matrices (per-row) and (d,) vectors alike; gamma and beta
    are (d,).
    """
    d = x.value.shape[-1]
    if gamma.value.shape != (d,) or beta.value.shape != (d,):
        raise DimensionError(
            f"layer_norm: feature dim {d}, gamma {gamma.value.shape}, beta {beta.value.shape}"
        )
    if epsilon <= 0:
        raise ValueError("layer_norm: epsilon must be positive")
    # Means as sum / d: bitwise equal to ndarray.mean, without its Python wrapper.
    mu = x.value.sum(axis=-1, keepdims=True) / d
    xc = x.value - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat = xc * inv_std
    out = Node(xhat * gamma.value + beta.value, x.tape)

    def backward():
        g = out.grad
        lead = tuple(range(g.ndim - 1))
        gamma.grad += (g * xhat).sum(axis=lead)
        beta.grad += g.sum(axis=lead)
        dxhat = g * gamma.value
        x.grad += inv_std * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / d
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
        )

    x.tape.record(backward)
    return out


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

    def backward():
        g = out.grad
        scores.grad += p * (g - (g * p).sum(axis=-1, keepdims=True))

    scores.tape.record(backward)
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
    pooled = segment_max(take_rows(x, rows), np.zeros(rows.size, dtype=int), 1)
    return reshape(pooled, (x.value.shape[1],))


def segment_max(x: Node, segments, count: int) -> Node:
    """Column-wise max over each segment's rows: (N,d) -> (count,d). Row i is
    in segment segments[i]; the ids run 0..count-1 in order, each over at
    least one row. Each column's gradient routes to the first row of its
    segment achieving the maximum."""
    seg = np.asarray(segments)
    steps = np.diff(seg)
    if (x.value.ndim != 2 or seg.shape != (x.value.shape[0],) or seg.size == 0 or seg[0] != 0
            or seg[-1] != count - 1 or ((steps != 0) & (steps != 1)).any()):
        raise DimensionError(f"segment_max: values {x.value.shape}, segment ids must run "
                             f"0..{count - 1} in order, each over at least one row")
    starts = np.flatnonzero(np.concatenate(([1], steps)))
    value = np.maximum.reduceat(x.value, starts, axis=0)
    out = Node(value, x.tape)

    def backward():
        rows = np.where(x.value == value[seg], np.arange(seg.size)[:, None], seg.size)
        x.grad[np.minimum.reduceat(rows, starts, axis=0), np.arange(value.shape[1])] += out.grad

    x.tape.record(backward)
    return out


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def gradient_check(
    fn: Callable[[Tape], Node],
    inputs: Sequence[Parameter],
    step: float = 1e-5,
) -> float:
    """Compare analytic gradients of a scalar-valued composite against central
    finite differences.

    `fn` must build the computation on the tape it is given (reading each
    input via `tape.watch`) and return a scalar Node; the probes get value-only
    tapes, and one that raises leaves its input restored. Returns the max over
    all input coordinates of |analytic - numeric| / max(1, |numeric|).
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
    for p, grad in zip(inputs, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            try:
                flat[i] = saved + step
                f_plus = float(fn(Tape(record=False)).value)
                flat[i] = saved - step
                f_minus = float(fn(Tape(record=False)).value)
            finally:
                flat[i] = saved
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise NumericError("gradient_check: non-finite perturbed value")
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(gflat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Zero-mean uniform weights scaled by 1/sqrt(fan_in)."""
    bound = 1.0 / math.sqrt(max(fan_in, 1))
    return rng.uniform(-bound, bound, size=shape)
