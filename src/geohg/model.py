"""Heterogeneous GNN encoder, regression head, and both training regimes.

Layer rule, per node and layer: new = act(self_transform(old) + sum over
relations of W_rel @ (edge-weight-weighted mean of neighbor vectors)), with
ReLU between layers and identity on the last. Regions start from a linear
projection of [e_pos, e_env, e_soc]; entity nodes start from learnable
embeddings. The head is a three-layer MLP (d -> d -> d -> 1, ReLU between).

Nothing nonlinear sits between the input projection and layer 0, so layer 0
is folded: each node block's rows are one product z @ S, with z built once
per graph in prepare_graph (the features x^ = [x, 1], their aggregations
A_r x^, the entity-side means and the in-edge masks) and S stacked on the
tape from the parameters at every step. There is no input projection and no
layer-0 aggregation. Each later layer is one tape node,
tensor.relational_layer, that takes every relation's product in its cheaper
order: aggregate then project, or project the few entity rows then
aggregate. Its RNR gather therefore serves only layers from 1 on and
inference.

Training regimes:
  * end-to-end: full-batch Adam on the MSE over train regions, early stopping
    on validation MSE, best-validation parameters restored;
  * self-supervised: InfoNCE pretraining of the backbone (anchors scored
    against mean-pooled positive sets, in-batch negatives), then a fresh head
    fine-tuned on the frozen embedding matrix.

Each stage takes only what it reads: HgnnConfig (the architecture, all a
checkpoint stores), TrainConfig, SslConfig and the run seed. A supervised
fit leaves its LabelTransform on the state; a pretrained backbone has none.
Both regimes find the split's label cells among the (n, 2) int64 region
cells (FeatureTable.cells, or an embedding file's) with geodata.cell_rows.

Both losses read only a few rows, so during training the last relational
layer and the head run on a RowSubset alone: the train and validation
regions for the MSE, built once per run, and a batch's anchors and pooled
positives for InfoNCE, built once per batch. Earlier layers stay full,
because entity hubs link every region within two hops. This is the exact
node-wise computation graph, with no sampling; the region->entity relations
drop out of the restricted layer, since no entity row is read. Inference
(embed_regions, predict_all, hgnn_forward) always runs the full forward.

Internally all node rows are kept in a canonical order obtained by
lexicographically sorting the raw region feature rows (positions make rows
distinct), and every aggregation table is frozen in that order. Relabeling
regions therefore changes nothing but the final row gather, which makes the
forward pass exactly permutation-equivariant, bit for bit.
"""

from __future__ import annotations

import json
import hashlib
import math
import warnings
from dataclasses import dataclass, asdict
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import (DenseMean, NumericError, PaddedGather, RelationBlock,
                     Tensor)
from .geodata import (GeoDataError, LabelSet, cell_rows, csv_rows, first_rows,
                      open_commented)
from .features import FeatureTable
from .hetgraph import HeteroGraph

if TYPE_CHECKING:  # pragma: no cover
    from .evaluation import EvalSplit

RELATIONS = ("rnr", "elr_r2e", "elr_e2r", "slr_r2e", "slr_e2r")
LABEL_TRANSFORMS = ("zscore", "log1p+zscore")
CHECKPOINT_VERSION = 4


@dataclass(frozen=True)
class HgnnConfig:
    n_layers: int = 3
    hidden_dim: int = 64

    def __post_init__(self) -> None:
        if not 1 <= self.n_layers <= 3:
            raise ValueError(f"n_layers must be 1..3, got {self.n_layers}")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 2e-3
    max_epochs: int = 1000
    patience: int = 50
    label_transform: str = "zscore"

    def __post_init__(self) -> None:
        if self.label_transform not in LABEL_TRANSFORMS:
            raise ValueError(f"unknown label transform {self.label_transform!r}")
        if not 0 < self.lr < np.inf or self.max_epochs < 1 \
                or self.patience < 1:
            raise ValueError("lr must be finite and positive, max_epochs "
                             "and patience at least 1")


@dataclass(frozen=True)
class SslConfig:
    temperature: float = 0.1
    top_k: int = 4
    batch_size: int = 64
    epochs: int = 60
    lr: float = 2e-3

    def __post_init__(self) -> None:
        if not 0 < self.temperature < np.inf:
            raise ValueError("temperature must be finite and positive")
        if not 0 < self.lr < np.inf:
            raise ValueError("lr must be finite and positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")


@dataclass(frozen=True)
class LabelTransform:
    """z = (f(y) - mean) / std, with f = log1p for "log1p+zscore" and the
    identity for "zscore"; ``fit`` takes mean and std from train labels."""

    kind: str
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.kind not in LABEL_TRANSFORMS:
            raise ValueError(f"unknown label transform {self.kind!r}")

    @classmethod
    def fit(cls, kind: str, train_values: np.ndarray) -> "LabelTransform":
        """Mean/std on the training subset (after log1p when selected)."""
        v = np.asarray(train_values, dtype=np.float64)
        if kind == "log1p+zscore":
            if v.min() <= -1.0:
                raise ValueError("log1p transform needs values > -1")
            v = np.log1p(v)
        mean = float(v.mean())
        std = float(v.std())
        # Constant labels leave a float-rounding residue in std, so the
        # degenerate case is detected relative to the label magnitude.
        if not np.isfinite(std) or std <= 1e-12 * max(1.0, abs(mean)):
            std = 1.0     # keep the transform invertible
        return cls(kind, mean, std)

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        if self.kind == "log1p+zscore":
            v = np.log1p(v)
        return (v - self.mean) / self.std

    def invert(self, z: np.ndarray) -> np.ndarray:
        v = np.asarray(z, dtype=np.float64) * self.std + self.mean
        if self.kind == "log1p+zscore":
            v = np.expm1(v)
        return v


@dataclass
class ModelState:
    """All learnable parameters, the (theta_env, theta_soc) thresholds of
    the graph it was trained on, and its fitted label transform, if any."""

    config: HgnnConfig
    n_env: int
    n_soc: int
    params: dict[str, np.ndarray]
    thresholds: tuple[float, float] = (0.0, 0.0)
    labels: Optional[LabelTransform] = None


@dataclass
class HeadState:
    """Stand-alone regression head fine-tuned on frozen embeddings."""

    params: dict[str, np.ndarray]
    labels: Optional[LabelTransform] = None


# (name, shape, Glorot (fan_in, fan_out) or None for a zero bias)
ParamSpec = tuple[str, tuple[int, int], Optional[tuple[int, int]]]


def _head_layout(d: int) -> list[ParamSpec]:
    return [("head.0.w", (d, d), (d, d)), ("head.0.b", (1, d), None),
            ("head.1.w", (d, d), (d, d)), ("head.1.b", (1, d), None),
            ("head.2.w", (d, 1), (d, 1)), ("head.2.b", (1, 1), None)]


def _model_layout(config: HgnnConfig, n_env: int, n_soc: int) -> list[ParamSpec]:
    """Every model parameter in init order, which fixes the seeded draws."""
    d = config.hidden_dim
    in_dim = 2 + n_env + n_soc
    layout: list[ParamSpec] = [("w_in", (in_dim, d), (in_dim, d)),
                               ("b_in", (1, d), None),
                               ("entity_emb", (n_env + n_soc, d), (d, d))]
    for layer in range(config.n_layers):
        for rel in ("self", *RELATIONS):
            layout += [(f"layer{layer}.{rel}.w", (d, d), (d, d)),
                       (f"layer{layer}.{rel}.b", (1, d), None)]
    return layout + _head_layout(d)


def _init_params(seed: int, layout: list[ParamSpec]) -> dict[str, np.ndarray]:
    """Seeded init: Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    return {name: (T.glorot_uniform(rng, *fans, shape=shape) if fans
                   else np.zeros(shape))
            for name, shape, fans in layout}


def init_state(config: HgnnConfig, n_env: int, n_soc: int,
               seed: int) -> ModelState:
    params = _init_params(seed, _model_layout(config, n_env, n_soc))
    return ModelState(config=config, n_env=n_env, n_soc=n_soc, params=params)


def init_head(d: int, seed: int) -> HeadState:
    return HeadState(params=_init_params(seed, _head_layout(d)))


# ---------------------------------------------------------------------------
# graph preparation (canonical internal ordering)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldedRows:
    """Layer 0 over one node block as ``z @ concat_rows(terms)``.

    ``z`` is a constant of the graph. Term i covers the next columns of
    ``z``: with an index array ``src`` it stands for theta[src] @
    layer0.{rel}.w, where theta = [w_in; b_in; entity_emb]; with None it
    stands for the one-row bias layer0.{rel}.b.
    """

    z: np.ndarray
    terms: tuple[tuple[str, Optional[np.ndarray]], ...]


@dataclass(frozen=True)
class GraphTensors:
    """Immutable per-run tensors: frozen aggregations in canonical order.

    ``relations`` holds one block per relation whose family has edges, in
    RELATIONS order. ``layer0`` holds the region and the entity block of
    the first layer, folded into constants. The aggregations in
    ``relations`` serve only layers 1 and up, so a 2-layer model uses them
    in training only restricted to the rows of its last layer.
    """

    n_regions: int
    n_nodes: int
    rank: np.ndarray                      # external region index -> internal row
    relations: dict[str, RelationBlock]   # per relation that has edges
    layer0: tuple[FoldedRows, FoldedRows]


def prepare_graph(graph: HeteroGraph, features: FeatureTable) -> GraphTensors:
    """The graph's tensors in canonical order, with the feature rows'
    positions min-max scaled per axis (a degenerate span maps to 0)."""
    if len(features.cells) != graph.n_regions:
        raise GeoDataError(f"graph has {graph.n_regions} regions, "
                           f"features {len(features.cells)}")
    if features.n_env != graph.n_env or features.soc.shape[1] != graph.n_soc:
        raise GeoDataError("feature dimensions disagree with graph entity counts")
    raw = features.matrix
    n = graph.n_regions
    order = np.lexsort(raw.T[::-1])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    x = raw[order].copy()
    for col in (0, 1):
        lo, hi = x[:, col].min(), x[:, col].max()
        x[:, col] = (x[:, col] - lo) / (hi - lo) if hi > lo else 0.0

    regions = slice(0, n)
    relations: dict[str, RelationBlock] = {}
    rnr = graph.edges_rnr
    if len(rnr):
        u, v = rank[rnr.endpoints[:, 0]], rank[rnr.endpoints[:, 1]]
        relations["rnr"] = RelationBlock(PaddedGather.build(u, v, n),
                                         regions, regions)
    for fam, r2e, e2r, lo, n_ent in (
            (graph.edges_elr, "elr_r2e", "elr_e2r", n, graph.n_env),
            (graph.edges_slr, "slr_r2e", "slr_e2r", n + graph.n_env,
             graph.n_soc)):
        if not len(fam):
            continue
        reg = rank[fam.endpoints[:, 0]]
        ent = fam.endpoints[:, 1] - lo   # entity ids are labeling-independent
        entities = slice(lo, lo + n_ent)
        relations[r2e] = RelationBlock(
            DenseMean.build(reg, ent, fam.weights, n_in=n, n_out=n_ent),
            regions, entities)
        relations[e2r] = RelationBlock(
            DenseMean.build(ent, reg, fam.weights, n_in=n_ent, n_out=n),
            entities, regions)
    return GraphTensors(n_regions=n, n_nodes=graph.n_nodes, rank=rank,
                        relations=relations,
                        layer0=_fold_layer0(x, relations, graph.n_nodes))


def _fold_layer0(x: np.ndarray, relations: dict[str, RelationBlock],
                 n_nodes: int) -> tuple[FoldedRows, FoldedRows]:
    """Layer 0 of the region and of the entity block as constants of the
    graph times small parameter products.

    The layer's input is h0 = lift @ theta, where theta = [w_in; b_in;
    entity_emb] and lift is [x, 1, 0] on region rows and [0, 0, I] on
    entity rows. Nothing nonlinear sits between them, so each term of the
    layer is exact as a constant times a parameter product: the self loop
    lift[block] @ (theta W_self), a relation (A_r lift[src]) @ (theta
    W_r), and a bias m @ b with m the ones or the relation's in-edge mask.
    Only the nonzero columns of lift[src] are kept.
    """
    n, in1 = x.shape[0], x.shape[1] + 1

    def lift(nodes: slice) -> tuple[np.ndarray, np.ndarray]:
        """(lift[nodes] on its nonzero columns, the theta rows they read)."""
        if nodes.start == 0:
            return np.hstack([x, np.ones((n, 1))]), np.arange(in1)
        size = nodes.stop - nodes.start
        return np.eye(size), in1 + nodes.start - n + np.arange(size)

    folds = []
    for block in (slice(0, n), slice(n, n_nodes)):
        const, src = lift(block)
        # (rel, theta rows or None, dst rows, constant)
        parts = [("self", src, block, const),
                 ("self", None, block, np.ones((const.shape[0], 1)))]
        for name, rel in relations.items():
            if (rel.dst.start < n) == (block.start == 0):   # into block
                const, src = lift(rel.src)
                parts += [(name, src, rel.dst, rel.agg.apply(const)),
                          (name, None, rel.dst, rel.agg.has_in_edge[:, None])]
        z = np.zeros((block.stop - block.start,
                      sum(const.shape[1] for *_, const in parts)))
        col = 0
        for _, _, dst, const in parts:
            z[dst.start - block.start:dst.stop - block.start,
              col:col + const.shape[1]] = const
            col += const.shape[1]
        folds.append(FoldedRows(z, tuple((rel, src) for rel, src, *_ in parts)))
    return folds[0], folds[1]


# ---------------------------------------------------------------------------
# forward passes (single source of truth for training and inference)
# ---------------------------------------------------------------------------

def _leaves(params: dict[str, np.ndarray],
            requires_grad: bool = True) -> dict[str, Tensor]:
    """Wrap parameter arrays as graph leaves; by default all require grad."""
    return {name: Tensor(arr, requires_grad=requires_grad)
            for name, arr in params.items()}


@dataclass(frozen=True)
class RowSubset:
    """Sorted internal region rows, and every relation into the region
    block restricted to them (``agg.rows``), for a last layer that computes
    only those rows."""

    rows: np.ndarray
    relations: dict[str, RelationBlock]


def row_subset(gt: GraphTensors, rows: np.ndarray) -> RowSubset:
    """The subset of the distinct internal region rows in ``rows``.

    Relations into the entity block are left out: no row of a restricted
    last layer's output belongs to an entity.
    """
    rows = np.unique(np.asarray(rows, dtype=np.int64))
    regions = slice(0, gt.n_regions)
    out = slice(0, rows.size)
    return RowSubset(rows, {name: RelationBlock(rel.agg.rows(rows), rel.src, out)
                            for name, rel in gt.relations.items()
                            if rel.dst == regions})


def backbone_forward(gt: GraphTensors, leaves: dict[str, Tensor],
                     config: HgnnConfig,
                     subset: Optional[RowSubset] = None) -> Tensor:
    """All-node embedding matrix in internal order (identity on last layer).

    Layer 0 is the folded product of ``gt.layer0``; layers from 1 on are
    relational_layer. With ``subset``, the last layer computes only the
    subset's rows and the result has one row per ``subset.rows`` entry;
    every earlier layer still covers all nodes, since entity hubs reach
    every region in two hops.
    """
    theta = T.concat_rows(leaves["w_in"], leaves["b_in"], leaves["entity_emb"])
    regions, entities = gt.layer0
    if config.n_layers == 1 and subset is not None:
        return _folded(regions, leaves, theta, subset.rows)
    h = T.concat_rows(_folded(regions, leaves, theta),
                      _folded(entities, leaves, theta))
    for layer in range(1, config.n_layers):
        restrict = layer == config.n_layers - 1 and subset is not None
        blocks = subset.relations if restrict else gt.relations
        relations = [(block, leaves[f"layer{layer}.{rel}.w"],
                      leaves[f"layer{layer}.{rel}.b"])
                     for rel, block in blocks.items()]
        self_loop = (leaves[f"layer{layer}.self.w"],
                     leaves[f"layer{layer}.self.b"])
        h = T.relational_layer(T.relu(h), relations, self_loop,
                               subset.rows if restrict else None)
    return h


def _folded(fold: FoldedRows, leaves: dict[str, Tensor], theta: Tensor,
            rows: Optional[np.ndarray] = None) -> Tensor:
    """Layer 0 over one node block, or over its ``rows`` alone."""
    z = fold.z if rows is None else fold.z[rows]
    stack = T.concat_rows(*(
        leaves[f"layer0.{rel}.b"] if src is None else
        T.matmul(T.gather_rows(theta, src), leaves[f"layer0.{rel}.w"])
        for rel, src in fold.terms))
    return T.matmul(Tensor(z), stack)


def head_forward(embeddings: Tensor, leaves: dict[str, Tensor]) -> Tensor:
    """The three-layer regression head, one output column."""
    a = T.relu(T.add(T.matmul(embeddings, leaves["head.0.w"]), leaves["head.0.b"]))
    a = T.relu(T.add(T.matmul(a, leaves["head.1.w"]), leaves["head.1.b"]))
    return T.add(T.matmul(a, leaves["head.2.w"]), leaves["head.2.b"])


def mse_training_loss(gt: GraphTensors, leaves: dict[str, Tensor],
                      config: HgnnConfig, train_internal: np.ndarray,
                      targets: np.ndarray,
                      subset: Optional[RowSubset] = None
                      ) -> tuple[Tensor, Tensor]:
    """(scalar MSE over train rows, prediction column over ``subset.rows``)
    for one forward. The last layer and the head run on the subset's rows
    alone; it must hold the train rows, and defaults to exactly them."""
    if subset is None:
        subset = row_subset(gt, train_internal)
    preds = head_forward(backbone_forward(gt, leaves, config, subset), leaves)
    pred_train = T.gather_rows(preds, np.searchsorted(subset.rows,
                                                      train_internal))
    err = T.sub(pred_train, Tensor(targets.reshape(-1, 1)))
    return T.mean_all(T.square(err)), preds


def infonce_loss(gt: GraphTensors, leaves: dict[str, Tensor], config: HgnnConfig,
                 anchors_internal: np.ndarray, positive_plan: np.ndarray,
                 temperature: float) -> Tensor:
    """InfoNCE over one batch: anchors vs mean-pooled positives, in-batch
    negatives. The last layer runs only on the anchors and the columns the
    plan pools."""
    cols = np.flatnonzero(positive_plan.any(axis=0))
    subset = row_subset(gt, np.concatenate([anchors_internal, cols]))
    h = backbone_forward(gt, leaves, config, subset)
    anchors = T.gather_rows(h, np.searchsorted(subset.rows, anchors_internal))
    pool = np.zeros((positive_plan.shape[0], subset.rows.size))
    pool[:, np.searchsorted(subset.rows, cols)] = positive_plan[:, cols]
    pooled = T.matmul(Tensor(pool), h)
    scores = T.scale(T.matmul_t(anchors, pooled), 1.0 / temperature)
    return T.mean_all(T.sub(T.log_sum_exp(scores), T.diag(scores)))


# ---------------------------------------------------------------------------
# training regimes
# ---------------------------------------------------------------------------

LogRow = tuple[int, float, float]    # (epoch, train loss, validation loss)


def _fit(params: dict[str, np.ndarray], lr: float, n_epochs: int,
         epoch_steps, what: str, patience: Optional[int] = None
         ) -> tuple[dict[str, np.ndarray], list[LogRow]]:
    """Adam over ``params``; returns (parameters, one log row per step).

    The parameters are copied, in dict order, into one flat vector, and the
    arrays the objectives see and the caller gets back are views into it.
    Each step is one ``adam_step`` over the whole vector, with a zero
    gradient for each leaf the loss does not reach, which then never moves.

    ``epoch_steps(epoch)`` yields objectives mapping leaves to (loss,
    validation loss); each row is logged before its Adam update. With
    ``patience``, the best-validation parameters come back and training
    stops, before the update, after ``patience`` steps without a strict
    improvement; otherwise the last parameters come back.
    """
    flat = np.concatenate([arr.ravel() for arr in params.values()])
    cuts = np.cumsum([arr.size for arr in params.values()])[:-1]
    params = {name: part.reshape(arr.shape) for (name, arr), part
              in zip(params.items(), np.split(flat, cuts))}
    m, v = np.zeros_like(flat), np.zeros_like(flat)
    best_val, best, wait = np.inf, flat.copy(), 0
    log: list[LogRow] = []
    for epoch in range(n_epochs):
        for objective in epoch_steps(epoch):
            leaves = _leaves(params)
            loss, val_loss = objective(leaves)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"{what} diverged at epoch {epoch} "
                                   f"(loss={value})")
            log.append((epoch, value, val_loss))
            if patience is not None:
                if val_loss < best_val:
                    best_val, wait = val_loss, 0
                    best[:] = flat
                else:
                    wait += 1
                    if wait >= patience:
                        flat[:] = best
                        return params, log
            loss.backward()
            grad = np.concatenate([
                np.zeros(leaf.data.size) if leaf.grad is None
                else leaf.grad.ravel() for leaf in leaves.values()])
            T.adam_step(flat, grad, m, v, len(log), lr)     # a row per step
    if patience is not None:
        flat[:] = best
    return params, log


def _split_targets(cells: np.ndarray, labels: LabelSet,
                   split: "EvalSplit", kind: str) -> tuple:
    """(train rows, validation rows, transformed train and validation
    targets, the train-fitted label transform); rows index ``cells``."""
    if len(split.train) == 0 or len(split.validation) == 0:
        raise ValueError("train and validation sets must be non-empty")
    train_ext, val_ext = np.split(
        cell_rows(cells, labels.cells[split.available()],
                  "split region {} has no features"), [len(split.train)])
    y_train = labels.values[split.train]
    y_val = labels.values[split.validation]
    transform = LabelTransform.fit(kind, y_train)
    return (train_ext, val_ext, transform.apply(y_train),
            transform.apply(y_val), transform)


def train_end_to_end(graph: HeteroGraph, features: FeatureTable,
                     labels: LabelSet, split: "EvalSplit",
                     config: HgnnConfig, train: TrainConfig, seed: int,
                     gt: Optional[GraphTensors] = None
                     ) -> tuple[ModelState, list[LogRow]]:
    """Full-batch Adam on train-region MSE with validation early stopping.

    The returned state carries the best-validation parameters; the log holds
    one (epoch, train MSE, validation MSE) row per epoch, both computed with
    the parameters in force before that epoch's update. `gt`, when given,
    is prepare_graph(graph, features), already built by the caller.
    """
    train_ext, val_ext, y_train, y_val, transform = _split_targets(
        features.cells, labels, split, train.label_transform)
    if gt is None:
        gt = prepare_graph(graph, features)
    state = init_state(config, graph.n_env, graph.n_soc, seed)
    train_internal, val_internal = gt.rank[train_ext], gt.rank[val_ext]
    subset = row_subset(gt, np.concatenate([train_internal, val_internal]))
    val_rows = np.searchsorted(subset.rows, val_internal)

    def objective(leaves: dict[str, Tensor]) -> tuple[Tensor, float]:
        loss, preds = mse_training_loss(gt, leaves, config, train_internal,
                                        y_train, subset)
        return loss, float(np.mean((preds.data[val_rows, 0] - y_val) ** 2))

    state.params, log = _fit(state.params, train.lr, train.max_epochs,
                             lambda epoch: (objective,), "training",
                             patience=train.patience)
    state.labels = transform
    state.thresholds = graph.thresholds
    return state, log


SIMILARITY_BLOCK = 256


def positive_sets(graph: HeteroGraph, features: FeatureTable,
                  top_k: int) -> list[np.ndarray]:
    """Per region: spatially adjacent regions plus top-k cosine-similar ones.

    Similarity uses the raw feature rows; ties break toward the lower region
    index. The cosine matrix is built SIMILARITY_BLOCK rows at a time.
    Returned as sorted external-index arrays (anchor excluded).
    """
    n = graph.n_regions
    picked: list[set[int]] = [set() for _ in range(n)]
    for u, v in graph.edges_rnr.endpoints:
        picked[u].add(int(v))
        picked[v].add(int(u))
    if top_k > 0:
        raw = features.matrix
        norms = np.sqrt((raw ** 2).sum(axis=1))
        norms[norms == 0.0] = 1.0
        for lo in range(0, n, SIMILARITY_BLOCK):
            rows = np.arange(lo, min(lo + SIMILARITY_BLOCK, n))
            top = _most_similar(raw, norms, rows, min(top_k, n - 1))
            for i, chosen in zip(rows, top):
                picked[i].update(chosen.tolist())
    sets: list[np.ndarray] = []
    for i, chosen in enumerate(picked):
        chosen.discard(i)
        sets.append(np.array(sorted(chosen), dtype=np.int64))
    return sets


def _most_similar(raw: np.ndarray, norms: np.ndarray, rows: np.ndarray,
                  k: int) -> np.ndarray:
    """(len(rows), k): each row's k most cosine-similar other rows, the
    first k in (-similarity, index) order, listed by index (smallest_k)."""
    neg = raw[rows] @ raw.T     # -similarity in place: p / -q is -(p / q)
    neg /= np.outer(-norms[rows], norms)
    neg[np.arange(rows.size), rows] = np.inf
    return T.smallest_k(neg, k)


def pretrain_contrastive(graph: HeteroGraph, features: FeatureTable,
                         ssl: SslConfig, config: HgnnConfig, seed: int
                         ) -> tuple[ModelState, np.ndarray, list[tuple[int, float]]]:
    """Contrastive backbone pretraining; returns (state, E_pretrain, loss log).

    Batches are uniform random permutation slices (full batches only); each
    anchor is scored against every batch member's mean-pooled positive set,
    its own being the positive pair. Anchors with no positives are skipped.
    ``seed`` seeds the init and, on its own generator, the batch order.
    """
    if graph.n_regions < ssl.batch_size:
        raise ValueError(f"batch size {ssl.batch_size} exceeds "
                         f"{graph.n_regions} regions")
    gt = prepare_graph(graph, features)
    state = init_state(config, graph.n_env, graph.n_soc, seed)
    positives_ext = positive_sets(graph, features, ssl.top_k)
    positives_int = [np.sort(gt.rank[p]) if p.size else p
                     for p in positives_ext]
    n_empty = sum(1 for p in positives_int if p.size == 0)
    if n_empty:
        warnings.warn(f"{n_empty} regions have no positives and are skipped",
                      stacklevel=2)
    rng = np.random.default_rng(seed)
    n = graph.n_regions

    def batches(epoch: int):
        perm = rng.permutation(n)
        for start in range(0, n - ssl.batch_size + 1, ssl.batch_size):
            idx_ext = [i for i in perm[start:start + ssl.batch_size]
                       if positives_int[i].size]
            if len(idx_ext) < 2:
                continue
            anchors = gt.rank[np.array(idx_ext, dtype=np.int64)]
            pool = batch_positive_plan([positives_int[i] for i in idx_ext])
            yield lambda leaves: (infonce_loss(gt, leaves, config, anchors,
                                               pool, ssl.temperature), np.nan)

    state.params, steps = _fit(state.params, ssl.lr, ssl.epochs, batches,
                               "pretraining")
    losses = [[v for e, v, _ in steps if e == epoch]
              for epoch in range(ssl.epochs)]
    log = [(epoch, float(np.mean(v)) if v else float("nan"))
           for epoch, v in enumerate(losses)]
    state.thresholds = graph.thresholds
    embeddings = embed_regions(state, gt)
    return state, embeddings, log


def batch_positive_plan(positive_rows: Sequence[np.ndarray]) -> np.ndarray:
    """Dense row-normalised mean-pooling matrix: row b averages its anchor's
    positive rows. It is as wide as the largest row needs; infonce_loss
    zero-pads it to the node count."""
    sizes = np.array([p.size for p in positive_rows])
    cols = np.concatenate(positive_rows).astype(np.int64)
    slots = np.repeat(np.arange(sizes.size), sizes)
    pool = np.zeros((sizes.size, cols.max(initial=-1) + 1))
    np.add.at(pool, (slots, cols), 1.0 / sizes[slots])
    return pool


def embed_regions(state: ModelState, gt: GraphTensors) -> np.ndarray:
    """Region embeddings in external order, no gradients recorded."""
    leaves = _leaves(state.params, requires_grad=False)
    h = backbone_forward(gt, leaves, state.config)
    out = h.data[:gt.n_regions][gt.rank]
    return T.require_finite(out, "region embeddings")


def hgnn_forward(graph: HeteroGraph, features: FeatureTable,
                 state: ModelState) -> np.ndarray:
    """Public forward: (n_regions, hidden_dim) embeddings in input order."""
    return embed_regions(state, prepare_graph(graph, features))


def finetune_head(e_pretrain: np.ndarray, labels: LabelSet, split: "EvalSplit",
                  train: TrainConfig, cells: np.ndarray,
                  seed: int) -> tuple[HeadState, list[LogRow]]:
    """Train only a fresh 3-layer head on the frozen embedding matrix.

    ``cells[i]`` is the cell behind e_pretrain row i. The first log
    row is the untrained head's performance (losses are recorded before each
    update), so improvement is read directly off the log.
    """
    train_ext, val_ext, y_train, y_val, transform = _split_targets(
        cells, labels, split, train.label_transform)
    head = init_head(e_pretrain.shape[1], seed)
    x_train = Tensor(e_pretrain[train_ext])
    x_val = e_pretrain[val_ext]

    def objective(leaves: dict[str, Tensor]) -> tuple[Tensor, float]:
        err = T.sub(head_forward(x_train, leaves),
                    Tensor(y_train.reshape(-1, 1)))
        val_pred = _head_values({k: v.data for k, v in leaves.items()}, x_val)
        return (T.mean_all(T.square(err)),
                float(np.mean((val_pred.ravel() - y_val) ** 2)))

    head.params, log = _fit(head.params, train.lr, train.max_epochs,
                            lambda epoch: (objective,), "fine-tuning",
                            patience=train.patience)
    head.labels = transform
    return head, log


def _head_values(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    """head_forward on arrays, with no gradient recorded."""
    return head_forward(Tensor(x), _leaves(params, requires_grad=False)).data


def predict_all(state: ModelState, graph: HeteroGraph,
                features: FeatureTable,
                gt: Optional[GraphTensors] = None) -> np.ndarray:
    """Predictions for every region, in feature order. `gt`, when given, is
    prepare_graph(graph, features), already built by the caller."""
    if gt is None:
        gt = prepare_graph(graph, features)
    return predict_from_embeddings(state, embed_regions(state, gt))


def predict_from_embeddings(state: ModelState | HeadState,
                            embeddings: np.ndarray) -> np.ndarray:
    """The head of ``state`` over embedding rows, inverse-transformed."""
    if state.labels is None:
        raise ValueError("state is untrained (a pretrained backbone has "
                         "no fitted head)")
    out = state.labels.invert(_head_values(state.params, embeddings).ravel())
    return T.require_finite(out, "predictions")


# ---------------------------------------------------------------------------
# integrity, checkpoints, logs
# ---------------------------------------------------------------------------

def backbone_checksum(state: ModelState) -> str:
    """SHA-256 over the exact bytes of every non-head parameter."""
    digest = hashlib.sha256()
    for name, arr in state.params.items():
        if not name.startswith("head."):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def save_checkpoint(state: ModelState | HeadState, path: str) -> None:
    """JSON checkpoint of a whole model ("kind": "model") or of a head
    fine-tuned on frozen embeddings ("kind": "head"); "labels" may be null."""
    payload: dict = {"version": CHECKPOINT_VERSION, "kind": "head"}
    if isinstance(state, ModelState):
        payload.update(kind="model", config=asdict(state.config),
                       n_env=state.n_env, n_soc=state.n_soc,
                       thresholds=list(state.thresholds))
    payload.update(labels=None if state.labels is None
                   else asdict(state.labels),
                   params={name: {"shape": list(arr.shape),
                                  "data": arr.ravel().tolist()}
                           for name, arr in state.params.items()})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str, kind: str = "model") -> ModelState | HeadState:
    """Read a "model" or "head" checkpoint. Each parameter must be finite
    and shaped as the config and entity counts say (a head's width is read
    from head.0.w); otherwise GeoDataError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION or \
            payload.get("kind") != kind:
        raise GeoDataError(f"{path}: not a version-{CHECKPOINT_VERSION} "
                           f"{kind} checkpoint")
    try:
        params = {name: np.array(spec["data"], dtype=np.float64)
                  .reshape(spec["shape"])
                  for name, spec in payload["params"].items()}
        labels = payload["labels"]
        labels = None if labels is None else LabelTransform(**labels)
        if kind == "model":
            theta_env, theta_soc = payload["thresholds"]
            state = ModelState(config=HgnnConfig(**payload["config"]),
                               n_env=payload["n_env"], n_soc=payload["n_soc"],
                               params=params, labels=labels,
                               thresholds=(float(theta_env), float(theta_soc)))
            layout = _model_layout(state.config, state.n_env, state.n_soc)
        else:
            state = HeadState(params=params, labels=labels)
            layout = _head_layout(params["head.0.w"].shape[0])
    except (KeyError, TypeError, ValueError) as exc:
        raise GeoDataError(f"{path}: malformed checkpoint ({exc!r})") from exc
    want = {name: shape for name, shape, _ in layout}
    for name in sorted(set(want) | set(params)):
        got = params[name].shape if name in params else None
        if got != want.get(name):
            raise GeoDataError(f"{path}: parameter {name} has shape {got}, "
                               f"the config needs {want.get(name)}")
        if not np.all(np.isfinite(params[name])):
            raise GeoDataError(f"{path}: non-finite values in {name}")
    return state


def write_embeddings(cells: np.ndarray, embeddings: np.ndarray,
                     path: str, header_comments: Sequence[str] = ()) -> None:
    """CSV dump of embedding rows and their cells: x_r,y_r,e_0..e_{d-1}."""
    if len(cells) != embeddings.shape[0]:
        raise GeoDataError("one region per embedding row required")
    d = embeddings.shape[1]
    with open_commented(path, header_comments) as fh:
        fh.write("x_r,y_r," + ",".join(f"e_{i}" for i in range(d)) + "\n")
        for (x, y), row in zip(cells.tolist(), embeddings):
            fh.write(f"{x},{y}," + ",".join(repr(float(v)) for v in row) + "\n")


def load_embeddings(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read write_embeddings' CSV as (cells, embeddings); a bad header raises
    GeoDataError naming the file, a malformed or non-finite row or a repeated
    region naming its lines."""
    header, rows = csv_rows(path)
    d = len(header) - 2
    if d < 1 or header != ["x_r", "y_r"] + [f"e_{i}" for i in range(d)]:
        raise GeoDataError(f"{path}: not an embeddings CSV "
                           f"(header x_r,y_r,e_0..e_<d-1>)")
    linenos, cells, embeddings = [], [], []
    for lineno, parts in rows:
        try:
            cells.append((int(parts[0]), int(parts[1])))
            row = [float(v) for v in parts[2:]]
        except ValueError as exc:
            raise GeoDataError(f"{path}: line {lineno}: {exc}") from None
        if not all(math.isfinite(v) for v in row):
            raise GeoDataError(f"{path}: line {lineno}: non-finite embedding value")
        embeddings.append(row)
        linenos.append(lineno)
    if not linenos:
        raise GeoDataError(f"{path}: no embedding rows")
    cells, embeddings = np.array(cells, dtype=np.int64), np.array(embeddings)
    first = first_rows(cells)
    i = int(np.argmax(first != np.arange(len(cells))))    # the first repeat
    if first[i] != i:
        raise GeoDataError(f"{path}: line {linenos[i]}: region {tuple(cells[i].tolist())} "
                           f"repeats line {linenos[first[i]]}")
    return cells, embeddings


def save_training_log(log: Sequence[LogRow], path: str,
                      header_comments: Sequence[str] = ()) -> None:
    with open_commented(path, header_comments) as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, train_loss, val_loss in log:
            fh.write(f"{epoch},{train_loss!r},{val_loss!r}\n")
