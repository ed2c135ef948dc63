"""Output checks for the benchmark, computed apart from the program.

Each check reads what one `geohg` CLI call wrote and returns a list of
failure messages, empty when the output passes. The file readers, the
metric formulas and the IDW and universal-kriging references below use
numpy directly and share no code with geohg. The one program value the
kriging reference takes as an input is the fitted variogram (nugget, sill,
range): the reference checks neighbour selection and the kriging solve,
not the variogram fit.

Both references select neighbours in strict (distance, sample index) order,
where the sample index is the row's position among the available labels in
`labels.csv` file order. A target whose k-th and (k+1)-th nearest samples
lie at the same distance has no unique neighbour set under a k-nearest
rule; such targets are flagged and left out of the comparison, and the
benchmark counts how many of them the program resolves differently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

Region = tuple[int, int]

# Relative tolerance for the report against metrics recomputed here, and
# absolute tolerances (label units; labels span about +-5) for predictions.
METRIC_RTOL = 1e-9
IDW_ATOL = 1e-9
UK_ATOL = 1e-9
EXACT_ATOL = 1e-9
TARGET_CHUNK = 256


# ---------------------------------------------------------------------------
# readers
# ---------------------------------------------------------------------------

def _data_lines(path: str) -> Iterator[str]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line


def _rows(path: str, header: str) -> Iterator[list[str]]:
    lines = _data_lines(path)
    first = next(lines, None)
    if first != header:
        raise ValueError(f"{path}: header {first!r}, expected {header!r}")
    n_fields = header.count(",") + 1
    for line in lines:
        parts = line.split(",")
        if len(parts) != n_fields:
            raise ValueError(f"{path}: row {line!r} has {len(parts)} fields")
        yield parts


def read_labels(path: str) -> list[tuple[Region, float]]:
    """(region, value) pairs in file order."""
    return [((int(x), int(y)), float(v))
            for x, y, v in _rows(path, "x_r,y_r,value")]


@dataclass(frozen=True)
class Predictions:
    regions: tuple[Region, ...]
    y_true: np.ndarray
    y_pred: np.ndarray
    masked: np.ndarray        # bool

    def masked_true_pred(self) -> tuple[np.ndarray, np.ndarray]:
        return self.y_true[self.masked], self.y_pred[self.masked]


def read_predictions(path: str) -> Predictions:
    rows = list(_rows(path, "x_r,y_r,y_true,y_pred,is_masked"))
    flags = [r[4] for r in rows]
    if any(f not in ("0", "1") for f in flags):
        raise ValueError(f"{path}: is_masked must be 0 or 1")
    return Predictions(regions=tuple((int(r[0]), int(r[1])) for r in rows),
                       y_true=np.array([float(r[2]) for r in rows]),
                       y_pred=np.array([float(r[3]) for r in rows]),
                       masked=np.array([f == "1" for f in flags], dtype=bool))


def read_report(path: str) -> dict[str, str]:
    out = {}
    for line in _data_lines(path):
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}: line {line!r} is not key = value")
        out[key.strip()] = value.strip()
    return out


def read_log(path: str) -> np.ndarray:
    """(epochs, 3) array of epoch, train loss, validation loss."""
    rows = [[float(v) for v in r]
            for r in _rows(path, "epoch,train_loss,val_loss")]
    return np.array(rows).reshape(-1, 3)


# ---------------------------------------------------------------------------
# metrics, with the textbook formulas
# ---------------------------------------------------------------------------

def masked_metrics(pred: Predictions) -> dict[str, float]:
    y, p = pred.masked_true_pred()
    if y.size == 0:
        raise ValueError("no masked rows")
    err = p - y
    return {"mae": math.fsum(abs(e) for e in err) / y.size,
            "rmse": math.sqrt(math.fsum(e * e for e in err) / y.size),
            "r2": r2_of(y, p),
            "n_eval": float(y.size)}


def r2_of(y: np.ndarray, p: np.ndarray) -> float:
    ss_res = math.fsum((a - b) ** 2 for a, b in zip(p, y))
    mean = math.fsum(y) / len(y)
    return 1.0 - ss_res / math.fsum((v - mean) ** 2 for v in y)


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def strict_neighbours(sample_xy: np.ndarray, target_xy: np.ndarray,
                      k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k nearest samples per target in (distance, index) order.

    Coordinates are integer cell indices, so squared distances are exact
    integers and ties are exact. Returns (indices (m, k), distances (m, k),
    tie flags (m,)); a tie flag is set when the k-th and (k+1)-th nearest
    distances are equal.
    """
    s = np.asarray(sample_xy, dtype=np.int64)
    t = np.asarray(target_xy, dtype=np.int64)
    k = min(k, len(s))
    idx = np.empty((len(t), k), dtype=np.int64)
    d2 = np.empty((len(t), k), dtype=np.int64)
    tie = np.zeros(len(t), dtype=bool)
    for lo in range(0, len(t), TARGET_CHUNK):
        chunk = t[lo:lo + TARGET_CHUNK]
        full = ((chunk[:, None, :] - s[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(full, axis=1, kind="stable")
        rows = np.arange(len(chunk))[:, None]
        idx[lo:lo + len(chunk)] = order[:, :k]
        d2[lo:lo + len(chunk)] = full[rows, order[:, :k]]
        if k < len(s):
            tie[lo:lo + len(chunk)] = (full[rows[:, 0], order[:, k - 1]]
                                       == full[rows[:, 0], order[:, k]])
    return idx, np.sqrt(d2.astype(np.float64)), tie


def reference_idw(sample_xy: np.ndarray, values: np.ndarray,
                  target_xy: np.ndarray, k: int = 16,
                  power: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-distance weighting; returns (predictions, tie flags).

    A target at a sample location takes that sample's value.
    """
    idx, dist, tie = strict_neighbours(sample_xy, target_xy, k)
    vals = np.asarray(values, dtype=np.float64)[idx]
    hit = dist[:, 0] == 0.0
    w = np.where(hit[:, None], 1.0, dist) ** -power
    pred = (w * vals).sum(axis=1) / w.sum(axis=1)
    pred[hit] = vals[hit, 0]
    return pred, tie


def semivariance(h: np.ndarray, nugget: float, sill: float,
                 effective_range: float) -> np.ndarray:
    """Exponential model, taken as 0 at h = 0."""
    g = nugget + sill * (1.0 - np.exp(-3.0 * h / effective_range))
    return np.where(h == 0.0, 0.0, g)


def reference_uk(sample_xy: np.ndarray, values: np.ndarray,
                 target_xy: np.ndarray, variogram: Sequence[float],
                 k: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Universal kriging with drift (1, x, y); returns (predictions, ties).

    Per target, solves the augmented system
    [[Gamma, F], [F^T, 0]] [lambda; mu] = [gamma0; f0] with np.linalg.solve
    over the k strict nearest samples.
    """
    nugget, sill, rng = (float(v) for v in variogram)
    idx, dist, tie = strict_neighbours(sample_xy, target_xy, k)
    s = np.asarray(sample_xy, dtype=np.float64)
    t = np.asarray(target_xy, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    n = idx.shape[1]
    pred = np.empty(len(t))
    for lo in range(0, len(t), TARGET_CHUNK):
        sl = slice(lo, lo + TARGET_CHUNK)
        pts = s[idx[sl]]                                   # (c, n, 2)
        c = len(pts)
        pair = np.sqrt(((pts[:, :, None, :] - pts[:, None, :, :]) ** 2)
                       .sum(axis=3))
        a = np.zeros((c, n + 3, n + 3))
        a[:, :n, :n] = semivariance(pair, nugget, sill, rng)
        a[:, :n, n] = 1.0
        a[:, :n, n + 1:] = pts
        a[:, n, :n] = 1.0
        a[:, n + 1:, :n] = pts.transpose(0, 2, 1)
        b = np.empty((c, n + 3))
        b[:, :n] = semivariance(dist[sl], nugget, sill, rng)
        b[:, n] = 1.0
        b[:, n + 1:] = t[sl]
        lam = np.linalg.solve(a, b[:, :, None])[:, :n, 0]
        pred[sl] = (lam * vals[idx[sl]]).sum(axis=1)
    return pred, tie


@dataclass(frozen=True)
class Split:
    """Samples (available labels, file order) and masked targets of a run."""

    sample_xy: np.ndarray
    sample_values: np.ndarray
    target_xy: np.ndarray       # masked regions, predictions-file order
    target_values: np.ndarray


def split_of(labels: Sequence[tuple[Region, float]],
             pred: Predictions) -> Split:
    masked = {r for r, m in zip(pred.regions, pred.masked) if m}
    samples = [(r, v) for r, v in labels if r not in masked]
    targets = [(r, v) for r, v in zip(pred.regions, pred.y_true)
               if r in masked]
    return Split(sample_xy=np.array([r for r, _ in samples]).reshape(-1, 2),
                 sample_values=np.array([v for _, v in samples]),
                 target_xy=np.array([r for r, _ in targets]).reshape(-1, 2),
                 target_values=np.array([v for _, v in targets]))


# ---------------------------------------------------------------------------
# checks (each returns failure messages)
# ---------------------------------------------------------------------------

def check_table(pred: Predictions, labels: Sequence[tuple[Region, float]],
                masked_ratio: float) -> list[str]:
    """One row per labeled region, true values equal to the labels, the
    documented masked count, and finite predictions."""
    fails = []
    label_of = dict(labels)
    if len(set(pred.regions)) != len(pred.regions):
        fails.append("predictions: duplicate region rows")
    missing = set(label_of) - set(pred.regions)
    extra = set(pred.regions) - set(label_of)
    if missing or extra:
        fails.append(f"predictions: {len(missing)} labeled regions missing, "
                     f"{len(extra)} unknown regions")
    wrong = sum(1 for r, v in zip(pred.regions, pred.y_true)
                if r in label_of and label_of[r] != v)
    if wrong:
        fails.append(f"predictions: {wrong} y_true values differ from labels")
    expected = round(masked_ratio * len(label_of))
    if int(pred.masked.sum()) != expected:
        fails.append(f"predictions: {int(pred.masked.sum())} masked rows, "
                     f"expected {expected}")
    if not np.all(np.isfinite(pred.y_pred)):
        fails.append("predictions: non-finite y_pred")
    return fails


def check_report(report: dict[str, str], pred: Predictions) -> list[str]:
    """MAE, RMSE and R^2 in the report match the predictions file."""
    fails = []
    ours = masked_metrics(pred)
    for key, value in ours.items():
        if key not in report:
            fails.append(f"report: no {key}")
            continue
        try:
            theirs = float(report[key])
        except ValueError:
            fails.append(f"report: {key} = {report[key]!r} is not a number")
            continue
        if not math.isclose(theirs, value, rel_tol=METRIC_RTOL,
                            abs_tol=METRIC_RTOL):
            fails.append(f"report: {key} = {theirs!r}, recomputed {value!r}")
    return fails


def check_exact_at_samples(pred: Predictions) -> list[str]:
    """Interpolators must return the label at every sample region."""
    off = np.abs(pred.y_pred[~pred.masked] - pred.y_true[~pred.masked])
    bad = int((off > EXACT_ATOL).sum())
    if bad:
        return [f"exactness: {bad} sample regions off by up to "
                f"{float(off.max()):.3e}"]
    return []


def compare_reference(program: np.ndarray, reference: np.ndarray,
                      tie: np.ndarray, atol: float, what: str,
                      allowed_other: int = 0,
                      other: np.ndarray | None = None
                      ) -> tuple[list[str], int]:
    """Program vs reference on masked targets without a k-th-slot tie.

    Targets that match `other` instead (the documented IDW fallback of a
    singular kriging system) are accepted up to `allowed_other` of them.
    Returns (failures, number of tied targets where the program differs).
    """
    diff = np.abs(program - reference) > atol
    if other is not None:
        fallback = diff & ~tie & (np.abs(program - other) <= atol)
        if int(fallback.sum()) > allowed_other:
            return ([f"{what}: {int(fallback.sum())} targets took the IDW "
                     f"fallback, report says {allowed_other}"],
                    int((diff & tie).sum()))
        diff &= ~fallback
    bad = diff & ~tie
    fails = []
    if bad.any():
        worst = float(np.abs(program - reference)[bad].max())
        fails.append(f"{what}: {int(bad.sum())} of {int((~tie).sum())} "
                     f"untied masked targets differ from the reference "
                     f"(max {worst:.3e})")
    return fails, int((diff & tie).sum())


def check_early_stopping(log: np.ndarray, patience: int,
                         max_epochs: int) -> list[str]:
    """The log stops where patience on the validation loss says it must.

    Rule: an epoch improves when its validation loss is strictly below every
    earlier one; training ends after `patience` epochs in a row without
    improvement, or after `max_epochs` epochs.
    """
    if len(log) == 0:
        return ["train log: empty"]
    if not np.array_equal(log[:, 0], np.arange(len(log))):
        return ["train log: epochs are not 0, 1, 2, ..."]
    if not np.all(np.isfinite(log[:, 1:])):
        return ["train log: non-finite losses"]
    best, wait, expected = math.inf, 0, max_epochs
    for epoch, val in enumerate(log[:, 2]):
        if val < best:
            best, wait = val, 0
        else:
            wait += 1
            if wait >= patience:
                expected = epoch + 1
                break
    expected = min(expected, max_epochs)
    if len(log) != expected:
        return [f"train log: {len(log)} epochs, the stopping rule gives "
                f"{expected}"]
    return []


def check_finetune_improves(log: np.ndarray) -> list[str]:
    if len(log) == 0 or not log[:, 2].min() < log[0, 2]:
        return ["fine-tuning: validation MSE never went below epoch 0"]
    return []


def check_r2(r2: float, floor: float, idw_r2: float) -> list[str]:
    fails = []
    if not r2 > floor:
        fails.append(f"accuracy: masked R^2 {r2:.4f} not above floor {floor}")
    if not r2 > idw_r2:
        fails.append(f"accuracy: masked R^2 {r2:.4f} not above reference "
                     f"IDW {idw_r2:.4f} on the same split")
    return fails
