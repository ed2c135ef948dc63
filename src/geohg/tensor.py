"""Minimal dense float64 numeric core with reverse-mode gradients.

Covers exactly the operations the model needs (dense linear algebra, ReLU,
overflow-safe log-sum-exp, row gathers and the relational layer) plus
the Adam optimizer. Gradients are accumulated by a topological walk over the
recorded forward graph; this is deliberately not a general autodiff system.

All data is float64. The layer's mean aggregations come in two shapes: an
unweighted padded gather over undirected edges, one neighbour table that
serves both passes, and a weighted dense block. Each fixes its edge order
at build time, so accumulation order (and therefore the exact
floating-point result) never depends on traversal or dict order.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    Ops record parent links and a backward closure only for a result that
    requires a gradient; ``backward()`` on a scalar result fills ``grad``
    for every reachable tensor that has ``requires_grad`` set.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False,
                 _parents: tuple["Tensor", ...] = (),
                 _backward: Optional[Callable[[np.ndarray], None]] = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None and g.shape == self.data.shape:
            # One pass, and bitwise what zeros + g gives (-0.0 turns +0.0).
            self.grad = g + 0.0
            return
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
    # fmax gives the bits of where(a > 0, a, 0.0) on every input (NaN and
    # -0.0 give +0.0) in one pass; the gradient keeps the a > 0 mask.
    def bwd(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * (a.data > 0))

    return Tensor(np.fmax(a.data, 0.0), _parents=(a,), _backward=bwd)


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


def concat_rows(*parts: Tensor) -> Tensor:
    ends = np.cumsum([p.data.shape[0] for p in parts])

    def bwd(g: np.ndarray) -> None:
        for p, hi in zip(parts, ends):
            if p.requires_grad:
                p._accumulate(g[hi - p.data.shape[0]:hi])

    return Tensor(np.concatenate([p.data for p in parts], axis=0),
                  _parents=parts, _backward=bwd)


# ---------------------------------------------------------------------------
# fixed-order mean aggregations (the padded gather chunked by rows) and the
# relational layer, each relation's product in its cheaper order
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


GATHER_CHUNK = 256


def _gather_sum(idx: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """out[i] = sum_k w[i] * x[idx[i, k]], where index len(x) is a zero row
    and ``w`` holds one weight per row of ``idx``, shape (rows, 1).

    Rows go GATHER_CHUNK at a time, so the (rows, K, d) gather stays one
    chunk tall; each row sums its K slots in the same order either way.
    """
    padded = np.concatenate([x, np.zeros((1, x.shape[1]))])
    out = np.empty((idx.shape[0], x.shape[1]))
    for lo in range(0, idx.shape[0], GATHER_CHUNK):
        rows = slice(lo, lo + GATHER_CHUNK)
        out[rows] = np.einsum("nk,nkd->nd", w[rows],
                              np.take(padded, idx[rows], axis=0))
    return out


@dataclass(frozen=True)
class PaddedGather:
    """Unweighted mean over an undirected edge list, held as one
    fixed-degree neighbour table (ELLPACK layout), for small uniform degrees
    like the 8-neighbour region grid.

    Row i lists its neighbours sorted by index, which freezes the summation
    order, and every slot of row i weighs 1/degree(i). The relation is
    symmetric, so the table that gathers the forward also serves the
    backward: slot j of row i then carries ``inv_deg[j] * g[j]``. A row
    subset (``rows``) records the kept rows and builds no table.
    """

    idx: np.ndarray          # (n, K) neighbour rows; pad slots hold n
    inv_deg: np.ndarray      # (n,) 1 / degree, 0 for an isolated row
    keep: np.ndarray | slice  # the sorted output rows; slice(None), all

    @classmethod
    def build(cls, u, v, n: int) -> "PaddedGather":
        """The mean over the undirected edges (u[e], v[e]) of n rows; each
        edge is listed once, and both of its ends see the other."""
        src = np.concatenate([u, v]).astype(np.int64)
        dst = np.concatenate([v, u]).astype(np.int64)
        order = np.lexsort((src, dst))
        src, dst = src[order], dst[order]
        deg = np.bincount(dst, minlength=n)
        width = int(deg.max()) if n else 0
        slot = np.arange(dst.size) - np.repeat(np.cumsum(deg) - deg, deg)
        idx = np.full((n, width), n, dtype=np.int64)
        idx[dst, slot] = src
        return cls(idx, np.divide(1.0, deg, out=np.zeros(n), where=deg > 0),
                   slice(None))

    @property
    def has_in_edge(self) -> np.ndarray:
        """1.0 on each output row with a neighbour."""
        return (self.inv_deg[self.keep] > 0).astype(np.float64)

    def rows(self, keep: np.ndarray) -> "PaddedGather":
        """The mean into the sorted rows ``keep`` of the full gather alone,
        which become output rows 0..len(keep)-1; every row stays a source."""
        return PaddedGather(self.idx, self.inv_deg, keep)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _gather_sum(self.idx[self.keep], x,
                           self.inv_deg[self.keep, None])

    def apply_t(self, g: np.ndarray) -> np.ndarray:
        # A row outside keep adds +0.0 to sums that start from +0.0, so
        # the bits are those of a table that lists the kept rows alone.
        y = np.zeros((self.idx.shape[0], g.shape[1]))
        y[self.keep] = self.inv_deg[self.keep, None] * g
        return _gather_sum(self.idx, y, np.ones((self.idx.shape[0], 1)))


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

    def rows(self, keep: np.ndarray) -> "DenseMean":
        """The mean into the output rows ``keep`` alone, renumbered
        0..len(keep)-1."""
        return DenseMean(self.mat[keep], self.has_in_edge[keep])

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
                     self_loop: tuple[Tensor, Tensor],
                     rows: Optional[np.ndarray] = None) -> Tensor:
    """R-GCN layer, before the activation, each product in its cheaper order.

    out = h W_self + b_self + sum_r (A_r h) W_r + m_r b_r, where A_r is the
    relation's mean aggregation and m_r marks the rows with an in-edge of
    that type. A relation with no more destination than source rows (RNR,
    region->entity) aggregates first, (A_r h) W_r; one with more (entity->
    region) projects its few source rows first, A_r (h W_r). The backward
    mirrors that per relation. No array is wider than d columns.

    With ``rows``, a sorted array of distinct rows of h, the output holds
    only those rows, in that order: the self loop reads h[rows], and each
    relation must already be restricted to them (``agg.rows``), its dst
    indexing the len(rows)-row output. Its src still indexes all of h, so
    the gradient of h stays full-size. This is the exact node-wise
    computation graph of a layer whose later consumers read only ``rows``.
    """
    x_self = h.data if rows is None else h.data[rows]
    out = x_self @ self_loop[0].data + self_loop[1].data
    saved = []      # per relation: (A_r h[src], or h[src] if projected first)
    for rel, w, b in relations:
        x = h.data[rel.src]
        first = x.shape[0] < out[rel.dst].shape[0]
        x = x if first else rel.agg.apply(x)
        y = rel.agg.apply(x @ w.data) if first else x @ w.data
        out[rel.dst] += y + rel.agg.has_in_edge[:, None] * b.data
        saved.append((x, first))

    def bwd(g: np.ndarray) -> None:
        if rows is None:
            gh = g @ self_loop[0].data.T
        else:
            gh = np.zeros_like(h.data)
            gh[rows] = g @ self_loop[0].data.T
        for (rel, w, b), (x, first) in zip(relations, saved):
            gd = g[rel.dst]
            b._accumulate((rel.agg.has_in_edge @ gd)[None])
            gd = rel.agg.apply_t(gd) if first else gd   # onto source rows
            w._accumulate(x.T @ gd)
            gx = gd @ w.data.T
            gh[rel.src] += gx if first else rel.agg.apply_t(gx)
        self_loop[0]._accumulate(x_self.T @ g)
        self_loop[1]._accumulate(g.sum(axis=0, keepdims=True))
        h._accumulate(gh)

    params = [t for _, w, b in relations for t in (w, b)]
    return Tensor(out, _parents=(h, *self_loop, *params),
                  _backward=bwd)


# ---------------------------------------------------------------------------
# optimizer and init
# ---------------------------------------------------------------------------

def adam_step(param: np.ndarray, grad: np.ndarray, m: np.ndarray,
              v: np.ndarray, step: int, lr: float) -> None:
    """Update ``param`` and its moments ``m`` and ``v`` in place by one
    bias-corrected Adam step (beta1 0.9, beta2 0.999, eps 1e-8); ``step``
    counts updates from 1.

    The update is elementwise, so one call over a flat vector that
    concatenates many parameters is bitwise one call per parameter. An
    entry whose gradient has always been 0 keeps zero moments, and its
    update, lr * 0 / (0 + eps), is exactly 0.
    """
    if not param.shape == grad.shape == m.shape == v.shape:
        raise NumericError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"moments {m.shape} and {v.shape}")
    if step < 1:
        raise NumericError(f"Adam step count must be >= 1, got {step}")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    param -= lr * (m / (1.0 - beta1 ** step)) / (
        np.sqrt(v / (1.0 - beta2 ** step)) + eps)
    require_finite(param, "Adam update")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int,
                   shape: Optional[tuple[int, ...]] = None) -> np.ndarray:
    """Uniform init in [-a, a] with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-a, a, size=shape)


# ---------------------------------------------------------------------------
# exact smallest-k selection (the most similar peers of positive sets)
# ---------------------------------------------------------------------------

def smallest_k(a: np.ndarray, k: int) -> np.ndarray:
    """Indices of the first k entries of each row of `a` (shape (..., n)) in
    strict (value, index) order, listed by ascending index; k >= n lists
    all n. It serves float values, such as the negated similarities of
    positive sets; the baselines select neighbours on integer keys instead.

    A selection, O(n) per row: argpartition finds the k-th smallest value
    and everything at or below it is chosen. In the rows where that is more
    than k, the ties at the k-th value keep only the places left, lowest
    index first, by a cumulative count over the tie mask.
    """
    n = a.shape[-1]
    if k >= n:
        return np.broadcast_to(np.arange(n), a.shape).copy()
    if k < 1:
        return np.empty(a.shape[:-1] + (0,), dtype=np.intp)
    rows = a.reshape(-1, n)
    kth = np.take_along_axis(
        rows, np.argpartition(rows, k - 1, axis=1)[:, k - 1:k], axis=1)
    chosen = rows <= kth
    over = np.flatnonzero(np.count_nonzero(chosen, axis=1) > k)
    if over.size:
        sub, at = rows[over], kth[over]
        tied = sub == at
        places = k - np.count_nonzero(sub < at, axis=1, keepdims=True)
        chosen[over] &= ~tied | (np.cumsum(tied, axis=1) <= places)
    return np.nonzero(chosen)[1].reshape(a.shape[:-1] + (k,))

