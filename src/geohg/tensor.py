"""Minimal dense float64 numeric core with reverse-mode gradients.

Covers exactly the operations the model needs (dense linear algebra, ReLU,
overflow-safe log-sum-exp, row gathers and the fused relational layer) plus
the Adam optimizer. Gradients are accumulated by a topological walk over the
recorded forward graph; this is deliberately not a general autodiff system.

All data is float64. The layer's mean aggregations come in two shapes, a
padded neighbour gather and a dense block, each with its edge order fixed
at build time, so accumulation order (and therefore the exact
floating-point result) never depends on traversal or dict order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np


class NumericError(FloatingPointError):
    """A tensor op produced or was asked to produce non-finite values."""


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite values in {what}")
    return arr


class Tensor:
    """A dense float64 array plus an optional gradient slot.

    Building ops records parent links and a backward closure; ``backward()``
    on a scalar result fills ``grad`` for every reachable tensor that has
    ``requires_grad`` set.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple["Tensor", ...] = (),
                 _backward: Optional[Callable[[np.ndarray], None]] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self) -> None:
        """Reverse-mode gradient accumulation from a scalar result."""
        if self.data.size != 1:
            raise NumericError(f"backward() needs a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def item(self) -> float:
        return float(self.data.reshape(()))


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g down to the given shape, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return Tensor(out_data, _parents=(a, b), _backward=bwd)


def matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """a @ b.T without materializing the transpose in the graph."""
    out_data = a.data @ b.data.T

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g @ b.data)
        if b.requires_grad:
            b._accumulate(g.T @ a.data)

    return Tensor(out_data, _parents=(a, b), _backward=bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _backward=bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    # a + (-1 * b) rounds exactly like a - b, in both passes.
    return add(a, scale(b, -1.0))


def scale(a: Tensor, c: float) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * c)

    return Tensor(a.data * c, _parents=(a,), _backward=bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * mask)

    return Tensor(np.where(mask, a.data, 0.0), _parents=(a,), _backward=bwd)


def square(a: Tensor) -> Tensor:
    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * 2.0 * a.data)

    return Tensor(a.data * a.data, _parents=(a,), _backward=bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(np.full_like(a.data, float(g) / n))

    return Tensor(a.data.mean(), _parents=(a,), _backward=bwd)


def log_sum_exp(a: Tensor) -> Tensor:
    """Row-wise overflow-safe log(sum(exp)): returns shape (n,)."""
    m = a.data.max(axis=1, keepdims=True)
    e = np.exp(a.data - m)
    s = e.sum(axis=1, keepdims=True)
    out_data = (m + np.log(s)).ravel()
    softmax = e / s

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(softmax * g[:, None])

    return Tensor(out_data, _parents=(a,), _backward=bwd)


def diag(a: Tensor) -> Tensor:
    n = min(a.data.shape)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            idx = np.arange(n)
            full[idx, idx] = g
            a._accumulate(full)

    return Tensor(a.data.diagonal().copy(), _parents=(a,), _backward=bwd)


def gather_rows(a: Tensor, idx: np.ndarray) -> Tensor:
    idx = np.asarray(idx, dtype=np.int64)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            full = np.zeros_like(a.data)
            np.add.at(full, idx, g)
            a._accumulate(full)

    return Tensor(a.data[idx], _parents=(a,), _backward=bwd)


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    na = a.data.shape[0]
    out_data = np.concatenate([a.data, b.data], axis=0)

    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g[:na])
        if b.requires_grad:
            b._accumulate(g[na:])

    return Tensor(out_data, _parents=(a, b), _backward=bwd)


# ---------------------------------------------------------------------------
# fixed-order mean aggregations and the stacked relational layer
# ---------------------------------------------------------------------------

def _normalized_edges(src, dst, weights, n_out: int):
    """Edges sorted by (dst, src, weight), each weight divided by its
    destination's total in-weight (a zero total divides by 1), and the
    (n_out,) has-in-edge indicator."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    order = np.lexsort((weights, src, dst))
    src, dst, weights = src[order], dst[order], weights[order]
    denom = np.bincount(dst, weights=weights, minlength=n_out)
    has_in = (np.bincount(dst, minlength=n_out) > 0).astype(np.float64)
    denom[denom == 0.0] = 1.0
    return src, dst, weights / denom[dst], has_in


def _padded_table(rows: np.ndarray, cols: np.ndarray, w: np.ndarray,
                  n_rows: int, pad: int) -> tuple[np.ndarray, np.ndarray]:
    """(n_rows, K) column and weight tables of edges already sorted by row;
    K is the largest row count, and short rows hold (pad, 0) slots."""
    counts = np.bincount(rows, minlength=n_rows)
    width = int(counts.max()) if counts.size else 0
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.full((n_rows, width), pad, dtype=np.int64)
    wt = np.zeros((n_rows, width))
    idx[rows, slot] = cols
    wt[rows, slot] = w
    return idx, wt


def _gather_sum(idx: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[i] = sum_k w[i, k] * x[idx[i, k]], where index len(x) is a zero row."""
    padded = np.concatenate([x, np.zeros((1, x.shape[1]))])
    return np.einsum("nk,nkd->nd", w, padded[idx])


@dataclass(frozen=True)
class PaddedGather:
    """Weighted mean over a fixed-degree neighbour table (ELLPACK layout),
    for small uniform in-degrees like the 8-neighbour region grid.

    Row i lists its sources sorted by index, which freezes the summation
    order; ``idx_t``/``w_t`` group the same edges by source for the backward.
    """

    idx: np.ndarray          # (n_out, K) source rows; pad slots hold n_in
    w: np.ndarray            # (n_out, K) normalised weights; pad slots 0
    idx_t: np.ndarray        # (n_in, K_t) destination rows; pad slots n_out
    w_t: np.ndarray          # (n_in, K_t)
    has_in_edge: np.ndarray  # (n_out,) 1.0 where a row has an in-edge

    @classmethod
    def build(cls, src, dst, weights, n_in: int, n_out: int) -> "PaddedGather":
        src, dst, w, has_in = _normalized_edges(src, dst, weights, n_out)
        idx, wt = _padded_table(dst, src, w, n_out, pad=n_in)
        by_src = np.lexsort((dst, src))
        idx_t, w_t = _padded_table(src[by_src], dst[by_src], w[by_src], n_in,
                                   pad=n_out)
        return cls(idx, wt, idx_t, w_t, has_in)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _gather_sum(self.idx, self.w, x)

    def apply_t(self, g: np.ndarray) -> np.ndarray:
        return _gather_sum(self.idx_t, self.w_t, g)


@dataclass(frozen=True)
class DenseMean:
    """Weighted mean as a dense row-normalised (n_out, n_in) block, for the
    thin region-entity relations, where a padded table would be as wide as
    the busiest hub."""

    mat: np.ndarray
    has_in_edge: np.ndarray

    @classmethod
    def build(cls, src, dst, weights, n_in: int, n_out: int) -> "DenseMean":
        src, dst, w, has_in = _normalized_edges(src, dst, weights, n_out)
        mat = np.zeros((n_out, n_in))
        np.add.at(mat, (dst, src), w)
        return cls(mat, has_in)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.mat @ x

    def apply_t(self, g: np.ndarray) -> np.ndarray:
        return self.mat.T @ g


@dataclass(frozen=True)
class RelationBlock:
    """One relation: the mean of rows ``src`` of h lands in rows ``dst``."""

    agg: PaddedGather | DenseMean
    src: slice
    dst: slice


def relational_layer(h: Tensor,
                     relations: Sequence[tuple[RelationBlock, Tensor, Tensor]],
                     self_loop: Optional[tuple[Tensor, Tensor]] = None) -> Tensor:
    """R-GCN layer as one stacked product, before the activation.

    out = h W_self + b_self + sum_r (A_r h) W_r + m_r b_r, where A_r is the
    relation's mean aggregation and m_r marks the rows with an in-edge of
    that type. It is computed as [h | A_1 h | ... | 1 | m_1 | ...] @ W_stack,
    one GEMM, and the backward splits the stacked gradient back into the
    per-relation (w, b) leaves. With no self loop and no relation the
    output is zero.
    """
    pairs = ([self_loop] if self_loop is not None else []) \
        + [(w, b) for _, w, b in relations]
    params = [w for w, _ in pairs] + [b for _, b in pairs]
    d = h.data.shape[1]
    n_self = len(pairs) - len(relations)
    nd = len(pairs) * d
    x = np.zeros((h.data.shape[0], nd + len(pairs)))
    if self_loop is not None:
        x[:, :d] = h.data
        x[:, nd] = 1.0
    for j, (rel, _, _) in enumerate(relations):
        col = (n_self + j) * d
        x[rel.dst, col:col + d] = rel.agg.apply(h.data[rel.src])
        x[rel.dst, nd + n_self + j] = rel.agg.has_in_edge
    w_stack = np.concatenate([np.zeros((0, d))] + [t.data for t in params])

    def bwd(g: np.ndarray) -> None:
        if any(t.requires_grad for t in params):
            gw = x.T @ g
            ends = np.cumsum([t.data.shape[0] for t in params])
            for t, g_t in zip(params, np.split(gw, ends[:-1])):
                if t.requires_grad:
                    t._accumulate(g_t)
        if h.requires_grad:
            gx = g @ w_stack[:nd].T
            gh = gx[:, :d].copy() if self_loop is not None \
                else np.zeros_like(h.data)
            for j, (rel, _, _) in enumerate(relations):
                col = (n_self + j) * d
                gh[rel.src] += rel.agg.apply_t(gx[rel.dst, col:col + d])
            h._accumulate(gh)

    return Tensor(x @ w_stack, _parents=(h, *params), _backward=bwd)


# ---------------------------------------------------------------------------
# optimizer and init
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdamState:
    """Bias-corrected Adam accumulators for one parameter."""

    m: np.ndarray
    v: np.ndarray
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self) -> None:
        if self.m.shape != self.v.shape:
            raise NumericError("Adam moment shapes disagree")
        if self.step < 0:
            raise NumericError("Adam step count must be >= 0")


def adam_init(shape: tuple[int, ...], lr: float) -> AdamState:
    return AdamState(m=np.zeros(shape), v=np.zeros(shape), step=0, lr=lr)


def adam_step(param: np.ndarray, grad: np.ndarray,
              state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; pure, returns new param and state."""
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise NumericError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"moments {state.m.shape}")
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_param = param - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    require_finite(new_param, "Adam update")
    return new_param, replace(state, m=m, v=v, step=t)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: Optional[tuple[int, ...]] = None) -> np.ndarray:
    """Uniform init in [-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-a, a, size=shape)


# ---------------------------------------------------------------------------
# direct linear solver (used by the kriging baseline)
# ---------------------------------------------------------------------------

def lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by LU factorization with partial pivoting.

    Raises NumericError when a pivot is (numerically) zero, i.e. the system
    is singular at working precision.
    """
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    if a.shape != (n, n) or b.shape[0] != n:
        raise NumericError(f"bad solve shapes {a.shape} / {b.shape}")
    scale_ref = np.abs(a).max()
    if scale_ref == 0.0:
        raise NumericError("singular system (zero matrix)")
    perm = np.arange(n)
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= 1e-12 * scale_ref:
            raise NumericError(f"singular system (pivot {pivot:.3e} in column {col})")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            perm[[col, pivot_row]] = perm[[pivot_row, col]]
        factors = a[col + 1:, col] / pivot
        a[col + 1:, col] = factors
        a[col + 1:, col + 1:] -= factors[:, None] * a[col, col + 1:]
    one_dim = b.ndim == 1
    x = b[perm].reshape(n, -1)
    for col in range(n):                      # forward substitution (unit lower)
        x[col + 1:] -= a[col + 1:, col, None] * x[col]
    for col in range(n - 1, -1, -1):          # back substitution
        x[col] /= a[col, col]
        x[:col] -= a[:col, col, None] * x[col]
    require_finite(x, "linear solve")
    return x.ravel() if one_dim else x
