"""Heterogeneous GNN encoder, regression head, and both training regimes.

Layer rule, per node and layer: new = act(self_transform(old) + sum over
relations of W_rel @ (edge-weight-weighted mean of neighbor vectors)), with
ReLU between layers and identity on the last, each layer one stacked product
(tensor.relational_layer). Regions start from a linear projection of [e_pos,
e_env, e_soc]; entity nodes start from learnable embeddings. The head is a
three-layer MLP (d -> d -> d -> 1, ReLU between).

Training regimes:
  * end-to-end: full-batch Adam on the MSE over train regions, early stopping
    on validation MSE, best-validation parameters restored;
  * self-supervised: InfoNCE pretraining of the backbone (anchors scored
    against mean-pooled positive sets, in-batch negatives), then a fresh head
    fine-tuned on the frozen embedding matrix.

Internally all node rows are kept in a canonical order obtained by
lexicographically sorting the raw region feature rows (positions make rows
distinct), and every aggregation table is frozen in that order. Relabeling
regions therefore changes nothing but the final row gather, which makes the
forward pass exactly permutation-equivariant, bit for bit.
"""

from __future__ import annotations

import json
import hashlib
import warnings
from dataclasses import dataclass, asdict
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import tensor as T
from .tensor import (DenseMean, NumericError, PaddedGather, RelationBlock,
                     Tensor)
from .geodata import GeoDataError, LabelSet, Region
from .features import RegionFeatures, feature_matrix
from .hetgraph import HeteroGraph

if TYPE_CHECKING:  # pragma: no cover
    from .evaluation import EvalSplit

RELATIONS = ("rnr", "elr_r2e", "elr_e2r", "slr_r2e", "slr_e2r")
LABEL_TRANSFORMS = ("zscore", "log1p+zscore")
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class HgnnConfig:
    n_layers: int = 3
    hidden_dim: int = 64
    relations: tuple[str, ...] = RELATIONS
    use_self_loop: bool = True
    label_transform: str = "zscore"
    seed: int = 0
    lr: float = 2e-3
    max_epochs: int = 1000
    patience: int = 50
    normalize_pos: bool = True

    def __post_init__(self) -> None:
        if not 1 <= self.n_layers <= 3:
            raise ValueError(f"n_layers must be 1..3, got {self.n_layers}")
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")
        if self.label_transform not in LABEL_TRANSFORMS:
            raise ValueError(f"unknown label transform {self.label_transform!r}")
        unknown = set(self.relations) - set(RELATIONS)
        if unknown:
            raise ValueError(f"unknown relations {sorted(unknown)}")
        if self.lr <= 0 or self.max_epochs < 1 or self.patience < 1:
            raise ValueError("lr, max_epochs and patience must be positive")


@dataclass(frozen=True)
class SslConfig:
    temperature: float = 0.1
    top_k: int = 4
    batch_size: int = 64
    epochs: int = 60
    pooling: str = "mean"
    lr: float = 2e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.top_k < 0:
            raise ValueError("top_k must be >= 0")
        if self.batch_size < 2:
            raise ValueError("batch size must be >= 2")
        if self.pooling != "mean":
            raise ValueError(f"unsupported pooling {self.pooling!r}")


@dataclass
class ModelState:
    """All learnable parameters plus label-transform statistics."""

    config: HgnnConfig
    n_env: int
    n_soc: int
    params: dict[str, np.ndarray]
    label_mean: float = 0.0
    label_std: float = 1.0
    trained: bool = False

    def backbone_names(self) -> list[str]:
        return [k for k in self.params if not k.startswith("head.")]


@dataclass
class HeadState:
    """Stand-alone regression head fine-tuned on frozen embeddings."""

    config: HgnnConfig
    params: dict[str, np.ndarray]
    label_mean: float = 0.0
    label_std: float = 1.0
    trained: bool = False


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
        for rel in ("self", *config.relations):
            layout += [(f"layer{layer}.{rel}.w", (d, d), (d, d)),
                       (f"layer{layer}.{rel}.b", (1, d), None)]
    return layout + _head_layout(d)


def _init_params(seed: int, layout: list[ParamSpec]) -> dict[str, np.ndarray]:
    """Seeded init: Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    return {name: (T.glorot_uniform(rng, *fans, shape=shape) if fans
                   else np.zeros(shape))
            for name, shape, fans in layout}


def init_state(config: HgnnConfig, n_env: int, n_soc: int) -> ModelState:
    params = _init_params(config.seed, _model_layout(config, n_env, n_soc))
    return ModelState(config=config, n_env=n_env, n_soc=n_soc, params=params)


def init_head(config: HgnnConfig, d: int) -> HeadState:
    return HeadState(config=config,
                     params=_init_params(config.seed, _head_layout(d)))


# ---------------------------------------------------------------------------
# graph preparation (canonical internal ordering)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphTensors:
    """Immutable per-run tensors: canonical-order inputs and frozen aggregations."""

    n_regions: int
    n_nodes: int
    x: np.ndarray                         # (n_regions, in_dim), canonical order
    rank: np.ndarray                      # external region index -> internal row
    relations: dict[str, RelationBlock]   # per relation that has edges


def prepare_graph(graph: HeteroGraph, features: Sequence[RegionFeatures],
                  config: HgnnConfig) -> GraphTensors:
    if len(features) != graph.n_regions:
        raise GeoDataError(f"graph has {graph.n_regions} regions, "
                           f"features {len(features)}")
    if features[0].e_env.size != graph.n_env or \
            features[0].e_soc.size != graph.n_soc:
        raise GeoDataError("feature dimensions disagree with graph entity counts")
    raw = feature_matrix(features)
    n = graph.n_regions
    order = np.lexsort(raw.T[::-1])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    x = raw[order].copy()
    if config.normalize_pos:
        # Min-max per position axis; degenerate span maps to 0.
        for col in (0, 1):
            lo, hi = x[:, col].min(), x[:, col].max()
            x[:, col] = (x[:, col] - lo) / (hi - lo) if hi > lo else 0.0

    regions = slice(0, n)
    relations: dict[str, RelationBlock] = {}
    rnr = graph.edges_rnr
    if "rnr" in config.relations and len(rnr):
        u, v = rank[rnr.endpoints[:, 0]], rank[rnr.endpoints[:, 1]]
        relations["rnr"] = RelationBlock(
            PaddedGather.build(np.concatenate([u, v]), np.concatenate([v, u]),
                               np.concatenate([rnr.weights, rnr.weights]),
                               n_in=n, n_out=n), regions, regions)
    for fam, r2e, e2r, lo, n_ent in (
            (graph.edges_elr, "elr_r2e", "elr_e2r", n, graph.n_env),
            (graph.edges_slr, "slr_r2e", "slr_e2r", n + graph.n_env,
             graph.n_soc)):
        if not len(fam):
            continue
        reg = rank[fam.endpoints[:, 0]]
        ent = fam.endpoints[:, 1] - lo   # entity ids are labeling-independent
        entities = slice(lo, lo + n_ent)
        if r2e in config.relations:
            relations[r2e] = RelationBlock(
                DenseMean.build(reg, ent, fam.weights, n_in=n, n_out=n_ent),
                regions, entities)
        if e2r in config.relations:
            relations[e2r] = RelationBlock(
                DenseMean.build(ent, reg, fam.weights, n_in=n_ent, n_out=n),
                entities, regions)
    return GraphTensors(n_regions=n, n_nodes=graph.n_nodes, x=x, rank=rank,
                        relations=relations)


# ---------------------------------------------------------------------------
# forward passes (single source of truth for training and inference)
# ---------------------------------------------------------------------------

def _leaves(params: dict[str, np.ndarray],
            trainable: Optional[set[str]] = None) -> dict[str, Tensor]:
    """Wrap parameter arrays as graph leaves; by default all require grad."""
    return {name: Tensor(arr, requires_grad=(trainable is None
                                             or name in trainable))
            for name, arr in params.items()}


def backbone_forward(gt: GraphTensors, leaves: dict[str, Tensor],
                     config: HgnnConfig) -> Tensor:
    """All-node embedding matrix in internal order (identity on last layer)."""
    x = Tensor(gt.x)
    h_regions = T.add(T.matmul(x, leaves["w_in"]), leaves["b_in"])
    h = T.concat_rows(h_regions, leaves["entity_emb"])
    for layer in range(config.n_layers):
        relations = [(gt.relations[rel], leaves[f"layer{layer}.{rel}.w"],
                      leaves[f"layer{layer}.{rel}.b"])
                     for rel in config.relations if rel in gt.relations]
        self_loop = ((leaves[f"layer{layer}.self.w"],
                      leaves[f"layer{layer}.self.b"])
                     if config.use_self_loop else None)
        acc = T.relational_layer(h, relations, self_loop)
        h = T.relu(acc) if layer < config.n_layers - 1 else acc
    return h


def head_forward(embeddings: Tensor, leaves: dict[str, Tensor]) -> Tensor:
    a = T.relu(T.add(T.matmul(embeddings, leaves["head.0.w"]), leaves["head.0.b"]))
    a = T.relu(T.add(T.matmul(a, leaves["head.1.w"]), leaves["head.1.b"]))
    return T.add(T.matmul(a, leaves["head.2.w"]), leaves["head.2.b"])


def mse_training_loss(gt: GraphTensors, leaves: dict[str, Tensor],
                      config: HgnnConfig, train_internal: np.ndarray,
                      targets: np.ndarray) -> tuple[Tensor, Tensor]:
    """(scalar MSE over train rows, full prediction column) for one forward."""
    h = backbone_forward(gt, leaves, config)
    region_rows = T.gather_rows(h, np.arange(gt.n_regions))
    preds = head_forward(region_rows, leaves)
    pred_train = T.gather_rows(preds, train_internal)
    err = T.sub(pred_train, Tensor(targets.reshape(-1, 1)))
    return T.mean_all(T.square(err)), preds


def infonce_loss(gt: GraphTensors, leaves: dict[str, Tensor], config: HgnnConfig,
                 anchors_internal: np.ndarray, positive_plan: np.ndarray,
                 temperature: float) -> Tensor:
    """InfoNCE over one batch: anchors vs mean-pooled positives, in-batch negatives."""
    h = backbone_forward(gt, leaves, config)
    anchors = T.gather_rows(h, anchors_internal)
    pool = np.pad(positive_plan,
                  ((0, 0), (0, gt.n_nodes - positive_plan.shape[1])))
    pooled = T.matmul(Tensor(pool), h)
    scores = T.scale(T.matmul_t(anchors, pooled), 1.0 / temperature)
    return T.mean_all(T.sub(T.log_sum_exp(scores), T.diag(scores)))


# ---------------------------------------------------------------------------
# label transforms
# ---------------------------------------------------------------------------

def fit_label_transform(kind: str, train_values: np.ndarray) -> tuple[float, float]:
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
    return mean, std


def apply_label_transform(kind: str, values: np.ndarray, mean: float,
                          std: float) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if kind == "log1p+zscore":
        v = np.log1p(v)
    return (v - mean) / std


def invert_label_transform(kind: str, z: np.ndarray, mean: float,
                           std: float) -> np.ndarray:
    v = np.asarray(z, dtype=np.float64) * std + mean
    if kind == "log1p+zscore":
        v = np.expm1(v)
    return v


# ---------------------------------------------------------------------------
# training regimes
# ---------------------------------------------------------------------------

LogRow = tuple[int, float, float]    # (epoch, train loss, validation loss)


def _fit(params: dict[str, np.ndarray], lr: float, n_epochs: int,
         epoch_steps, what: str, patience: Optional[int] = None
         ) -> tuple[dict[str, np.ndarray], list[LogRow]]:
    """Adam over ``params``; returns (parameters, one log row per step).

    ``epoch_steps(epoch)`` yields objectives mapping leaves to (loss,
    validation loss); each row is logged before its Adam update. With
    ``patience``, the best-validation parameters come back and training
    stops, before the update, after ``patience`` steps without a strict
    improvement; otherwise the last parameters come back.
    """
    adam = {name: T.adam_init(arr.shape, lr) for name, arr in params.items()}
    params = dict(params)
    best_val, best, wait = np.inf, {k: v.copy() for k, v in params.items()}, 0
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
                    best = {k: leaf.data.copy() for k, leaf in leaves.items()}
                else:
                    wait += 1
                    if wait >= patience:
                        return best, log
            loss.backward()
            for name, leaf in leaves.items():
                grad = leaf.grad if leaf.grad is not None \
                    else np.zeros_like(leaf.data)
                params[name], adam[name] = T.adam_step(params[name], grad,
                                                       adam[name])
    return (best if patience is not None else params), log


def _region_positions(features: Sequence[RegionFeatures]) -> dict[Region, int]:
    return {f.region: i for i, f in enumerate(features)}


def _split_targets(pos: dict[Region, int], labels: LabelSet,
                   split: "EvalSplit", kind: str) -> tuple:
    """(train rows, validation rows, transformed train and validation
    targets, (mean, std) of the label transform fitted on train labels)."""
    if len(split.train) == 0 or len(split.validation) == 0:
        raise ValueError("train and validation sets must be non-empty")
    values = labels.as_dict()
    try:
        train_ext = np.array([pos[r] for r in split.train], dtype=np.int64)
        val_ext = np.array([pos[r] for r in split.validation], dtype=np.int64)
        y_train = np.array([values[r] for r in split.train])
        y_val = np.array([values[r] for r in split.validation])
    except KeyError as exc:
        raise GeoDataError(f"split region {exc} has no features or label") from exc
    mean, std = fit_label_transform(kind, y_train)
    return (train_ext, val_ext, apply_label_transform(kind, y_train, mean, std),
            apply_label_transform(kind, y_val, mean, std), (mean, std))


def train_end_to_end(graph: HeteroGraph, features: Sequence[RegionFeatures],
                     labels: LabelSet, split: "EvalSplit",
                     config: HgnnConfig) -> tuple[ModelState, list[LogRow]]:
    """Full-batch Adam on train-region MSE with validation early stopping.

    The returned state carries the best-validation parameters; the log holds
    one (epoch, train MSE, validation MSE) row per epoch, both computed with
    the parameters in force before that epoch's update.
    """
    train_ext, val_ext, y_train, y_val, (mean, std) = _split_targets(
        _region_positions(features), labels, split, config.label_transform)
    gt = prepare_graph(graph, features, config)
    state = init_state(config, graph.n_env, graph.n_soc)
    train_internal = gt.rank[train_ext]
    val_internal = gt.rank[val_ext]

    def objective(leaves: dict[str, Tensor]) -> tuple[Tensor, float]:
        loss, preds = mse_training_loss(gt, leaves, config, train_internal,
                                        y_train)
        return loss, float(np.mean((preds.data[val_internal, 0] - y_val) ** 2))

    state.params, log = _fit(state.params, config.lr, config.max_epochs,
                             lambda epoch: (objective,), "training",
                             patience=config.patience)
    state.label_mean, state.label_std = mean, std
    state.trained = True
    return state, log


def positive_sets(graph: HeteroGraph, features: Sequence[RegionFeatures],
                  top_k: int) -> list[np.ndarray]:
    """Per region: spatially adjacent regions plus top-k cosine-similar ones.

    Similarity uses the raw feature rows; ties break toward the lower region
    index. Returned as sorted external-index arrays (anchor excluded).
    """
    n = graph.n_regions
    spatial: list[set[int]] = [set() for _ in range(n)]
    for u, v in graph.edges_rnr.endpoints:
        spatial[u].add(int(v))
        spatial[v].add(int(u))
    sets: list[np.ndarray] = []
    if top_k > 0:
        raw = feature_matrix(features)
        norms = np.sqrt((raw ** 2).sum(axis=1))
        norms[norms == 0.0] = 1.0
        sims = (raw @ raw.T) / np.outer(norms, norms)
        np.fill_diagonal(sims, -np.inf)
    for i in range(n):
        chosen = set(spatial[i])
        if top_k > 0:
            ranked = np.lexsort((np.arange(n), -sims[i]))
            chosen.update(int(j) for j in ranked[:min(top_k, n - 1)])
        chosen.discard(i)
        sets.append(np.array(sorted(chosen), dtype=np.int64))
    return sets


def pretrain_contrastive(graph: HeteroGraph, features: Sequence[RegionFeatures],
                         ssl: SslConfig,
                         config: Optional[HgnnConfig] = None
                         ) -> tuple[ModelState, np.ndarray, list[tuple[int, float]]]:
    """Contrastive backbone pretraining; returns (state, E_pretrain, loss log).

    Batches are uniform random permutation slices (full batches only); each
    anchor is scored against every batch member's mean-pooled positive set,
    its own being the positive pair. Anchors with no positives are skipped.
    """
    if config is None:
        config = HgnnConfig(seed=ssl.seed)
    if graph.n_regions < ssl.batch_size:
        raise ValueError(f"batch size {ssl.batch_size} exceeds "
                         f"{graph.n_regions} regions")
    gt = prepare_graph(graph, features, config)
    state = init_state(config, graph.n_env, graph.n_soc)
    positives_ext = positive_sets(graph, features, ssl.top_k)
    positives_int = [np.sort(gt.rank[p]) if p.size else p
                     for p in positives_ext]
    n_empty = sum(1 for p in positives_int if p.size == 0)
    if n_empty:
        warnings.warn(f"{n_empty} regions have no positives and are skipped",
                      stacklevel=2)
    rng = np.random.default_rng(ssl.seed)
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
    state.trained = True
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
    leaves = _leaves(state.params, trainable=set())
    h = backbone_forward(gt, leaves, state.config)
    out = h.data[:gt.n_regions][gt.rank]
    return T.require_finite(out, "region embeddings")


def hgnn_forward(graph: HeteroGraph, features: Sequence[RegionFeatures],
                 state: ModelState) -> np.ndarray:
    """Public forward: (n_regions, hidden_dim) embeddings in input order."""
    gt = prepare_graph(graph, features, state.config)
    return embed_regions(state, gt)


def finetune_head(e_pretrain: np.ndarray, labels: LabelSet, split: "EvalSplit",
                  config: HgnnConfig,
                  regions: Sequence[Region]) -> tuple[HeadState, list[LogRow]]:
    """Train only a fresh 3-layer head on the frozen embedding matrix.

    ``regions[i]`` names the region behind e_pretrain row i. The first log
    row is the untrained head's performance (losses are recorded before each
    update), so improvement is read directly off the log.
    """
    train_ext, val_ext, y_train, y_val, (mean, std) = _split_targets(
        {r: i for i, r in enumerate(regions)}, labels, split,
        config.label_transform)
    head = init_head(config, d=e_pretrain.shape[1])
    x_train = Tensor(e_pretrain[train_ext])
    x_val = e_pretrain[val_ext]

    def objective(leaves: dict[str, Tensor]) -> tuple[Tensor, float]:
        err = T.sub(head_forward(x_train, leaves),
                    Tensor(y_train.reshape(-1, 1)))
        val_pred = _head_apply({k: v.data for k, v in leaves.items()}, x_val)
        return (T.mean_all(T.square(err)),
                float(np.mean((val_pred.ravel() - y_val) ** 2)))

    head.params, log = _fit(head.params, config.lr, config.max_epochs,
                            lambda epoch: (objective,), "fine-tuning",
                            patience=config.patience)
    head.label_mean, head.label_std = mean, std
    head.trained = True
    return head, log


def _head_apply(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    a = np.maximum(x @ params["head.0.w"] + params["head.0.b"], 0.0)
    a = np.maximum(a @ params["head.1.w"] + params["head.1.b"], 0.0)
    return a @ params["head.2.w"] + params["head.2.b"]


def predict(state: ModelState, graph: HeteroGraph,
            features: Sequence[RegionFeatures],
            regions: Sequence[Region]) -> dict[Region, float]:
    """Inverse-transformed predictions for the requested regions."""
    values = predict_all(state, graph, features)
    pos = _region_positions(features)
    try:
        return {r: float(values[pos[r]]) for r in regions}
    except KeyError as exc:
        raise GeoDataError(f"region {exc} not in features") from exc


def predict_all(state: ModelState, graph: HeteroGraph,
                features: Sequence[RegionFeatures]) -> np.ndarray:
    """Predictions for every region, in feature order."""
    if not state.trained:
        raise ValueError("model state is untrained")
    gt = prepare_graph(graph, features, state.config)
    e = embed_regions(state, gt)
    z = _head_apply(state.params, e).ravel()
    out = invert_label_transform(state.config.label_transform, z,
                                 state.label_mean, state.label_std)
    return T.require_finite(out, "predictions")


def predict_from_embeddings(head: HeadState, e_pretrain: np.ndarray) -> np.ndarray:
    """Head predictions over an embedding matrix, inverse-transformed."""
    if not head.trained:
        raise ValueError("head is untrained")
    z = _head_apply(head.params, e_pretrain).ravel()
    out = invert_label_transform(head.config.label_transform, z,
                                 head.label_mean, head.label_std)
    return T.require_finite(out, "predictions")


# ---------------------------------------------------------------------------
# integrity, checkpoints, logs
# ---------------------------------------------------------------------------

def backbone_checksum(state: ModelState) -> str:
    """SHA-256 over the exact bytes of every non-head parameter."""
    digest = hashlib.sha256()
    for name in state.backbone_names():
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(state.params[name]).tobytes())
    return digest.hexdigest()


def save_checkpoint(state: ModelState | HeadState, path: str) -> None:
    """JSON checkpoint of a whole model ("kind": "model") or of a head
    fine-tuned on frozen embeddings ("kind": "head")."""
    payload: dict = {"version": CHECKPOINT_VERSION,
                     "kind": "model" if isinstance(state, ModelState) else "head",
                     "config": _config_dict(state.config)}
    if isinstance(state, ModelState):
        payload.update(n_env=state.n_env, n_soc=state.n_soc)
    payload.update(label_mean=state.label_mean, label_std=state.label_std,
                   trained=state.trained,
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
        config = _config_from_dict(payload["config"])
        params = {name: np.array(spec["data"], dtype=np.float64)
                  .reshape(spec["shape"])
                  for name, spec in payload["params"].items()}
        counts = ({"n_env": payload["n_env"], "n_soc": payload["n_soc"]}
                  if kind == "model" else {})
        layout = (_model_layout(config, **counts) if kind == "model"
                  else _head_layout(params["head.0.w"].shape[0]))
        state = (ModelState if kind == "model" else HeadState)(
            config=config, params=params, label_mean=payload["label_mean"],
            label_std=payload["label_std"], trained=payload["trained"],
            **counts)
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


def _config_dict(config: HgnnConfig) -> dict:
    out = asdict(config)
    out["relations"] = list(config.relations)
    return out


def _config_from_dict(data: dict) -> HgnnConfig:
    data = dict(data)
    data["relations"] = tuple(data["relations"])
    return HgnnConfig(**data)


def write_embeddings(regions: Sequence[Region], embeddings: np.ndarray,
                     path: str, header_comments: Sequence[str] = ()) -> None:
    """CSV dump of an embedding matrix: x_r,y_r,e_0..e_{d-1}."""
    if len(regions) != embeddings.shape[0]:
        raise GeoDataError("one region per embedding row required")
    d = embeddings.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write("x_r,y_r," + ",".join(f"e_{i}" for i in range(d)) + "\n")
        for (x, y), row in zip(regions, embeddings):
            fh.write(f"{x},{y}," + ",".join(repr(float(v)) for v in row) + "\n")


def load_embeddings(path: str) -> tuple[list[Region], np.ndarray]:
    """Read write_embeddings' CSV; malformed or non-finite rows raise
    GeoDataError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.strip().split(",") for line in fh
                 if line.strip() and not line.strip().startswith("#")]
    if lines and lines[0][:2] != ["x_r", "y_r"]:
        raise GeoDataError(f"{path}: not an embeddings CSV")
    if len(lines) < 2:
        raise GeoDataError(f"{path}: no embedding rows")
    header, rows = lines[0], lines[1:]
    for parts in rows:
        if len(parts) != len(header):
            raise GeoDataError(f"{path}: row width {len(parts)} != "
                               f"header {len(header)}")
    try:
        regions = [(int(p[0]), int(p[1])) for p in rows]
        embeddings = np.array([[float(v) for v in p[2:]] for p in rows])
    except ValueError as exc:
        raise GeoDataError(f"{path}: {exc}") from exc
    if not np.all(np.isfinite(embeddings)):
        raise GeoDataError(f"{path}: non-finite embedding values")
    return regions, embeddings


def save_training_log(log: Sequence[LogRow], path: str,
                      header_comments: Sequence[str] = ()) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, train_loss, val_loss in log:
            fh.write(f"{epoch},{train_loss!r},{val_loss!r}\n")
