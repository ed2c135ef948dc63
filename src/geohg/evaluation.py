"""Masked-ratio experiment protocol: splits, metrics, runners, report files.

The protocol masks a fraction M of the label rows as the test set and splits
the rest 80/20 into train and validation, each an array of label-row indices.
Models fit on train (validating on validation), baselines on all available
rows in label-file order, and every metric is read on the masked rows only.

Reports and prediction files are written with ``repr`` floats and no
timestamps, so a rerun with the same seed produces byte-identical artifacts.
Runtime is tracked on the in-memory report but deliberately kept out of the
files for that reason.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geodata import (GeoDataError, GridSpec, LabelSet, data_lines,
                      open_commented)
from .features import FeatureTable
from .hetgraph import build_graph
from . import baselines
from .model import (HgnnConfig, SslConfig, TrainConfig, LogRow,
                    backbone_checksum, finetune_head, predict_all,
                    predict_from_embeddings, prepare_graph,
                    pretrain_contrastive, train_end_to_end)

METHODS = ("geohg", "geohg-ssl", "idw", "uk")


@dataclass(frozen=True, eq=False)
class EvalSplit:
    """Disjoint partition of the label set for one experiment, as int64
    label-row indices."""

    masked: np.ndarray
    train: np.ndarray
    validation: np.ndarray

    def __post_init__(self) -> None:
        rows = np.concatenate([self.masked, self.train, self.validation])
        if np.unique(rows).size != rows.size:
            raise ValueError("split groups overlap")

    def available(self) -> np.ndarray:
        return np.concatenate([self.train, self.validation])


def make_split(labels: LabelSet, masked_ratio: float, seed: int) -> EvalSplit:
    """Uniform random mask of round(M*N) label rows; available split 80/20.
    Each group holds its rows in the order of one seeded permutation."""
    if not 0.0 < masked_ratio < 1.0:
        raise ValueError(f"masked ratio must be in (0, 1), got {masked_ratio}")
    n = len(labels)
    n_masked = round(masked_ratio * n)
    n_avail = n - n_masked
    n_train = round(0.8 * n_avail)
    n_val = n_avail - n_train
    if n_masked < 1:
        raise ValueError(f"masked set empty ({n} labels at ratio {masked_ratio})")
    if n_train < 1 or n_val < 1:
        raise ValueError(
            f"too few labels: {n} at ratio {masked_ratio} leaves "
            f"{n_train} train / {n_val} validation")
    perm = np.random.default_rng(seed).permutation(n)
    return EvalSplit(masked=perm[:n_masked],
                     train=perm[n_masked:n_masked + n_train],
                     validation=perm[n_masked + n_train:])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _check_pair(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray,
                                                                 np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape or y_true.ndim != 1 or y_true.size == 0:
        raise ValueError(f"metric inputs must be equal-length non-empty "
                         f"vectors, got {y_true.shape} and {y_pred.shape}")
    return y_true, y_pred


def mae(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.abs(y_pred - y_true).mean())


def rmse(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true, y_pred = _check_pair(y_true, y_pred)
    return float(np.sqrt(((y_pred - y_true) ** 2).mean()))


def r2(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - SS_res/SS_tot with the mean of y_true as baseline.

    Constant y_true makes the formula divide by zero; returns NaN then (the
    caller flags it) rather than pretending a 0 or 1.
    """
    y_true, y_pred = _check_pair(y_true, y_pred)
    ss_tot = float(((y_true - y_true.mean()) ** 2).sum())
    if ss_tot == 0.0:
        warnings.warn("R^2 undefined on constant ground truth", stacklevel=2)
        return float("nan")
    ss_res = float(((y_pred - y_true) ** 2).sum())
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class MetricReport:
    mae: float
    rmse: float
    r2: float
    n_eval: int
    runtime: float
    notes: tuple[tuple[str, str], ...] = ()


def score(y_true: np.ndarray, y_pred: np.ndarray, runtime: float,
          notes: tuple[tuple[str, str], ...] = ()) -> MetricReport:
    r2_value = r2(y_true, y_pred)
    flag = (("r2_defined", "false" if np.isnan(r2_value) else "true"),)
    return MetricReport(mae=mae(y_true, y_pred), rmse=rmse(y_true, y_pred),
                        r2=r2_value, n_eval=int(len(y_true)), runtime=runtime,
                        notes=flag + notes)


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentInputs:
    """One world for :func:`run_experiment`: its grid, its label set and
    the feature table of every region, as :func:`featurize_all` builds it.
    Featurize once and share the inputs across runs. The baselines read
    only the labels, so their inputs may leave ``features`` None."""

    grid: GridSpec
    labels: LabelSet
    features: Optional[FeatureTable] = None


@dataclass(frozen=True)
class RunSettings:
    theta_env: float = 0.6
    theta_soc: float = 0.9
    hgnn: HgnnConfig = HgnnConfig()
    train: TrainConfig = TrainConfig()
    ssl: SslConfig = SslConfig()
    idw_power: float = baselines.IDW_POWER
    idw_k: int = baselines.IDW_K
    uk_k: int = baselines.UK_K


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    method: str
    report: MetricReport
    predictions: np.ndarray       # (n_labels,) one prediction per label row
    split: EvalSplit
    log: tuple[LogRow, ...] = ()


def run_experiment(inputs: ExperimentInputs, method: str, masked_ratio: float,
                   seed: int,
                   settings: RunSettings = RunSettings()) -> ExperimentResult:
    """Split, fit by the chosen method, and score masked regions. The model
    methods build their graph from ``inputs.features`` at the settings'
    thresholds; the baselines interpolate the available labels.

    Every random choice (split, parameter init, batch order) derives from the
    single seed, so identical calls are bit-reproducible.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (expected one of {METHODS})")
    split = make_split(inputs.labels, masked_ratio, seed)
    t0 = time.perf_counter()
    notes: tuple[tuple[str, str], ...] = ()
    log: tuple[LogRow, ...] = ()

    if method in ("geohg", "geohg-ssl"):
        features = inputs.features
        if features is None:
            raise ValueError(f"method {method!r} needs land-cover and POI inputs")
        index = inputs.grid.region_index(inputs.labels.cells)  # features: row-major
        graph = build_graph(inputs.grid, features, settings.theta_env,
                            settings.theta_soc)
        if method == "geohg":
            gt = prepare_graph(graph, features)   # once, for both calls
            state, rows = train_end_to_end(graph, features, inputs.labels,
                                           split, settings.hgnn,
                                           settings.train, seed, gt)
            y_all = predict_all(state, graph, features, gt)
        else:
            state, embeddings, _ = pretrain_contrastive(
                graph, features, settings.ssl, settings.hgnn, seed)
            checksum = backbone_checksum(state)
            head, rows = finetune_head(embeddings, inputs.labels, split,
                                       settings.train, features.cells, seed)
            if backbone_checksum(state) != checksum:   # pragma: no cover
                raise RuntimeError("backbone changed during head fine-tuning")
            y_all = predict_from_embeddings(head, embeddings)
        log = tuple(rows)
        pred = y_all[index]
    else:
        # Samples in label-file order: the sample index breaks distance ties.
        available = np.sort(split.available())
        samples = list(zip(inputs.labels.cells[available].tolist(),
                           inputs.labels.values[available].tolist()))
        if method == "idw":
            pred = baselines.idw_predict_batch(samples, inputs.labels.cells,
                                               settings.idw_power,
                                               settings.idw_k)
        else:
            model = baselines.fit_variogram(samples)
            fallbacks: list[np.ndarray] = []
            pred = baselines.uk_predict_batch(samples, inputs.labels.cells, model,
                                              settings.uk_k,
                                              on_fallback=fallbacks.append)
            notes += (("uk_idw_fallbacks", str(len(fallbacks))),)

    runtime = time.perf_counter() - t0
    report = score(inputs.labels.values[split.masked], pred[split.masked],
                   runtime, notes)
    return ExperimentResult(method=method, report=report, predictions=pred,
                            split=split, log=log)


def similarity_map(e_pretrain: np.ndarray, anchor_row: int) -> np.ndarray:
    """Cosine similarity of every embedding row against the anchor row.

    Zero-norm rows get similarity 0 (flagged with a warning); the anchor's
    own entry is exactly 1 unless its norm is zero.
    """
    e = np.asarray(e_pretrain, dtype=np.float64)
    if not 0 <= anchor_row < e.shape[0]:
        raise ValueError(f"anchor row {anchor_row} out of range")
    norms = np.sqrt((e ** 2).sum(axis=1))
    anchor_norm = norms[anchor_row]
    if np.any(norms == 0.0):
        warnings.warn("zero-norm embedding rows; their similarity is set to 0",
                      stacklevel=2)
    if anchor_norm == 0.0:
        return np.zeros(e.shape[0])
    sims = e @ e[anchor_row]
    safe = np.where(norms == 0.0, 1.0, norms)
    out = np.where(norms == 0.0, 0.0, sims / (safe * anchor_norm))
    out[anchor_row] = 1.0 if anchor_norm > 0 else 0.0
    return out


# ---------------------------------------------------------------------------
# artifact writers (deterministic: repr floats, no timestamps)
# ---------------------------------------------------------------------------

def write_predictions(labels: LabelSet, result: ExperimentResult, path: str,
                      header_comments: Sequence[str] = ()) -> None:
    """One row per label row, in (y, x) order, flagging the masked rows."""
    order = np.lexsort(labels.cells.T)     # by y, then x
    rows = zip(labels.cells[order].tolist(), labels.values[order].tolist(),
               result.predictions[order].tolist(),
               np.isin(order, result.split.masked).tolist())
    with open_commented(path, header_comments) as fh:
        fh.write("x_r,y_r,y_true,y_pred,is_masked\n")
        for (x, y), y_true, y_pred, is_masked in rows:
            fh.write(f"{x},{y},{y_true!r},{y_pred!r},{int(is_masked)}\n")


def write_report(report: MetricReport, path: str,
                 header_comments: Sequence[str] = ()) -> None:
    """Key-value report; runtime stays off disk to keep reruns byte-identical."""
    with open_commented(path, header_comments) as fh:
        fh.write(f"mae = {report.mae!r}\n")
        fh.write(f"rmse = {report.rmse!r}\n")
        fh.write(f"r2 = {report.r2!r}\n")
        fh.write(f"n_eval = {report.n_eval}\n")
        for key, value in report.notes:
            fh.write(f"{key} = {value}\n")


def write_similarity(cells: np.ndarray, sims: np.ndarray, path: str,
                     header_comments: Sequence[str] = ()) -> None:
    if len(cells) != len(sims):
        raise GeoDataError("one cell per similarity value required")
    with open_commented(path, header_comments) as fh:
        fh.write("x_r,y_r,similarity\n")
        for (x, y), s in zip(cells.tolist(), sims):
            fh.write(f"{x},{y},{float(s)!r}\n")


def load_report(path: str) -> dict[str, str]:
    """Read a report's ``key = value`` lines, each key once."""
    out: dict[str, str] = {}
    for i, line in data_lines(path):
        key, eq, value = (part.strip() for part in line.partition("="))
        if not (eq and key):
            raise GeoDataError(f"{path}: line {i}: expected 'key = value', got {line!r}")
        if key in out:
            raise GeoDataError(f"{path}: line {i}: repeated report key {key!r}")
        out[key] = value
    if not out:
        raise GeoDataError(f"{path}: empty report")
    return out
