"""Dense float64 matrix/vector ops with hand-written backward rules.

Every differentiable op takes `Node` operands, computes its value eagerly with
numpy, and records a backward closure on the owning `Tape`. Calling
`Tape.backward` on a scalar output replays the closures in reverse evaluation
order, accumulating vector-Jacobian products into each node's `grad` buffer.
Leaf gradients land directly in `Parameter.grad`.

Conventions: matrices are 2-D float64 arrays in row-major order, vectors are
1-D, masks are 1-D bool arrays with True marking a valid entry. Scalars are
0-d arrays. Normalization and softmax act along the last axis.
"""

from __future__ import annotations

import math
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


def _as_f64(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


def _as_mask(bits) -> np.ndarray:
    return np.asarray(bits, dtype=bool)


class Parameter:
    """A trainable value with a same-shaped gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = _as_f64(value)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


class Node:
    """One value in a recorded computation; `grad` fills in during backward.

    The gradient buffer is allocated as zeros on first access, so a
    forward-only evaluation allocates none.
    """

    __slots__ = ("value", "_grad", "tape")

    def __init__(self, value: np.ndarray, tape: "Tape", grad: np.ndarray | None = None):
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

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape


class Tape:
    """Records backward closures in evaluation order; replays them reversed."""

    __slots__ = ("_steps",)

    def __init__(self):
        self._steps: list[Callable[[], None]] = []

    def record(self, step: Callable[[], None]) -> None:
        self._steps.append(step)

    def constant(self, value) -> Node:
        """Wrap a value that should receive no gradient."""
        return Node(_as_f64(value), self)

    def watch(self, param: Parameter) -> Node:
        """Expose a parameter as a leaf; its grad accumulates in place."""
        return Node(param.value, self, grad=param.grad)

    def backward(self, out: Node) -> None:
        """Seed a scalar output with gradient 1 and replay the tape."""
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
    inside = (x.value >= lo) & (x.value <= hi)

    def backward():
        x.grad += out.grad * inside

    x.tape.record(backward)
    return out


def maximum(a: Node, b: Node) -> Node:
    """Elementwise max; ties route the gradient to the first operand."""
    if a.value.shape != b.value.shape:
        raise DimensionError(f"maximum: {a.value.shape} vs {b.value.shape}")
    out = Node(np.maximum(a.value, b.value), a.tape)
    a_wins = a.value >= b.value

    def backward():
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
    """(n,k) @ (k,m) -> (n,m)."""
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(f"matmul: {a.value.shape} x {b.value.shape}")
    out = Node(a.value @ b.value, a.tape)

    def backward():
        a.grad += out.grad @ b.value.T
        b.grad += a.value.T @ out.grad

    a.tape.record(backward)
    return out


def vecmat(v: Node, w: Node) -> Node:
    """(k,) @ (k,m) -> (m,)."""
    if v.value.ndim != 1 or w.value.ndim != 2 or v.value.shape[0] != w.value.shape[0]:
        raise DimensionError(f"vecmat: {v.value.shape} x {w.value.shape}")
    out = Node(v.value @ w.value, v.tape)

    def backward():
        v.grad += w.value @ out.grad
        w.grad += np.outer(v.value, out.grad)

    v.tape.record(backward)
    return out


def transpose(x: Node) -> Node:
    out = Node(x.value.T, x.tape)

    def backward():
        x.grad += out.grad.T

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


def tile_rows(v: Node, n: int) -> Node:
    """(d,) -> (n,d) by repetition."""
    out = Node(np.tile(v.value, (n, 1)), v.tape)

    def backward():
        v.grad += out.grad.sum(axis=0)

    v.tape.record(backward)
    return out


def stack_rows(vs: Sequence[Node]) -> Node:
    out = Node(np.stack([v.value for v in vs], axis=0), vs[0].tape)

    def backward():
        for i, v in enumerate(vs):
            v.grad += out.grad[i]

    vs[0].tape.record(backward)
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
    """v[index] -> scalar."""
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
    soft = e / s

    def backward():
        v.grad += out.grad * soft

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
    mu = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
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
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )

    x.tape.record(backward)
    return out


def masked_softmax_rows(scores: Node, key_mask, query_mask) -> Node:
    """Row-wise masked softmax of an (n,n) score matrix.

    Invalid key columns get weight 0; rows for invalid queries are all-zero.
    """
    km = _as_mask(key_mask)
    qm = _as_mask(query_mask)
    n = scores.value.shape[0]
    if scores.value.shape != (n, n) or km.shape != (n,) or qm.shape != (n,):
        raise DimensionError(
            f"masked_softmax_rows: scores {scores.value.shape}, masks {km.shape}/{qm.shape}"
        )
    if not km.any():
        raise EmptySetError("masked_softmax_rows: no valid keys")
    masked = np.where(km[None, :], scores.value, -np.inf)
    rowmax = masked.max(axis=1, keepdims=True)
    e = np.where(km[None, :], np.exp(masked - rowmax), 0.0)
    p = e / e.sum(axis=1, keepdims=True)
    p[~qm, :] = 0.0
    out = Node(p, scores.tape)

    def backward():
        g = out.grad
        scores.grad += p * (g - (g * p).sum(axis=1, keepdims=True))

    scores.tape.record(backward)
    return out


def masked_max_pool(x: Node, mask) -> Node:
    """Column-wise max over valid rows of an (n,d) matrix -> (d,).

    The gradient of each column routes to the first valid row achieving the
    maximum.
    """
    m = _as_mask(mask)
    if x.value.ndim != 2 or m.shape != (x.value.shape[0],):
        raise DimensionError(f"masked_max_pool: values {x.value.shape}, mask {m.shape}")
    if not m.any():
        raise EmptySetError("masked_max_pool: mask has no valid rows")
    masked = np.where(m[:, None], x.value, -np.inf)
    argrows = masked.argmax(axis=0)
    out = Node(masked[argrows, np.arange(x.value.shape[1])], x.tape)

    def backward():
        np.add.at(x.grad, (argrows, np.arange(x.value.shape[1])), out.grad)

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
    input via `tape.watch`) and return a scalar Node. Returns the max over
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
            flat[i] = saved + step
            f_plus = float(fn(Tape()).value)
            flat[i] = saved - step
            f_minus = float(fn(Tape()).value)
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
