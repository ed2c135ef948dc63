"""Classical spatial interpolation baselines: IDW and Universal Kriging.

Both work on sparse (region id, value) samples with distances measured in grid
units between cell coordinates, the same scale the position features use.

Universal Kriging solves, per target, the standard augmented system over the k
nearest samples with a first-order drift basis (1, x, y):

    [ Gamma  F ] [ lambda ]   [ gamma0 ]
    [ F^T    0 ] [ mu     ] = [ f0     ]

where Gamma holds pairwise semivariances, gamma0 the sample-to-target ones,
and F the drift basis rows. The unbiasedness rows force sum(lambda) = 1 and
drift reproduction, which is what lets UK track a linear trend that plain
kriging or IDW would flatten. A singular system falls back to IDW for that
target (callers can count these through the on_fallback hook).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geodata import Region
from .tensor import NumericError, lu_solve

Sample = tuple[Region, float]

IDW_POWER = 2.0
IDW_K = 16
UK_K = 64
VARIOGRAM_BINS = 12


def _coords_values(samples: Sequence[Sample]) -> tuple[np.ndarray, np.ndarray]:
    if not samples:
        raise ValueError("no samples")
    coords = np.array([list(region) for region, _ in samples], dtype=np.float64)
    values = np.array([v for _, v in samples], dtype=np.float64)
    return coords, values


def _nearest(dists: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest distances in strict (distance, index)
    order, so a tie at the k-th distance goes to the lower sample index."""
    if k >= dists.size:
        chosen = np.arange(dists.size)
    else:
        chosen = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
    order = np.lexsort((chosen, dists[chosen]))
    return chosen[order[:k]]


def idw_predict(samples: Sequence[Sample], target: Region,
                power: float = IDW_POWER, k_neighbors: int = IDW_K) -> float:
    """Inverse-distance-weighted mean over the k nearest samples.

    Exact at sample locations (the zero-distance sample wins outright).
    """
    if power <= 0:
        raise ValueError(f"IDW power must be positive, got {power}")
    if k_neighbors < 1:
        raise ValueError("k_neighbors must be >= 1")
    coords, values = _coords_values(samples)
    t = np.asarray(target, dtype=np.float64)
    dists = np.sqrt(((coords - t) ** 2).sum(axis=1))
    hit = np.flatnonzero(dists == 0.0)
    if hit.size:
        return float(values[hit[0]])
    idx = _nearest(dists, k_neighbors)
    w = dists[idx] ** -power
    return float((w * values[idx]).sum() / w.sum())


@dataclass(frozen=True)
class VariogramModel:
    """Exponential semivariogram: gamma(h) = nugget + sill*(1 - exp(-3h/range)).

    gamma(0) is taken as 0 (the model value is the h -> 0+ limit), which keeps
    kriging exact at sample locations. effective_range is where the curve
    reaches ~95% of nugget+sill.
    """

    nugget: float
    sill: float
    effective_range: float
    kind: str = "exponential"

    def __post_init__(self) -> None:
        if self.nugget < 0 or self.sill <= 0 or self.effective_range <= 0:
            raise ValueError(
                f"invalid variogram (nugget={self.nugget}, sill={self.sill}, "
                f"range={self.effective_range})")

    def semivariance(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        g = self.nugget + self.sill * (1.0 - np.exp(-3.0 * h / self.effective_range))
        return np.where(h == 0.0, 0.0, g)


def empirical_variogram(samples: Sequence[Sample],
                        n_bins: int = VARIOGRAM_BINS) -> tuple[np.ndarray, np.ndarray]:
    """Binned (mean distance, mean semivariance) pairs up to half the max distance."""
    coords, values = _coords_values(samples)
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    semiv = 0.5 * (values[:, None] - values[None, :]) ** 2
    iu = np.triu_indices(len(samples), k=1)
    dist, semiv = dist[iu], semiv[iu]
    cutoff = dist.max() / 2.0
    if cutoff <= 0:
        raise ValueError("all samples at one location")
    edges = np.linspace(0.0, cutoff, n_bins + 1)
    hs, gammas = [], []
    for b in range(n_bins):
        in_bin = (dist > edges[b]) & (dist <= edges[b + 1])
        if in_bin.any():
            hs.append(dist[in_bin].mean())
            gammas.append(semiv[in_bin].mean())
    return np.array(hs), np.array(gammas)


def _gauss_newton(h: np.ndarray, gamma: np.ndarray,
                  start: np.ndarray, floor_sill: float,
                  range_lo: float, range_hi: float) -> tuple[np.ndarray, float]:
    """Damped Gauss-Newton refinement of (nugget, sill, range) on binned data."""

    def clamp(p: np.ndarray) -> np.ndarray:
        return np.array([max(p[0], 0.0),
                         max(p[1], floor_sill),
                         min(max(p[2], range_lo), range_hi)])

    def residuals(p: np.ndarray) -> np.ndarray:
        return p[0] + p[1] * (1.0 - np.exp(-3.0 * h / p[2])) - gamma

    p = clamp(start)
    r = residuals(p)
    sse = float(r @ r)
    damping = 1e-3
    for _ in range(60):
        e = np.exp(-3.0 * h / p[2])
        jac = np.stack([np.ones_like(h),
                        1.0 - e,
                        -p[1] * e * 3.0 * h / p[2] ** 2], axis=1)
        g = jac.T @ r
        jtj = jac.T @ jac
        stepped = False
        for _ in range(8):
            try:
                delta = lu_solve(jtj + damping * np.eye(3), -g)
            except NumericError:
                damping *= 10.0
                continue
            cand = clamp(p + delta)
            r_cand = residuals(cand)
            sse_cand = float(r_cand @ r_cand)
            if sse_cand < sse:
                p, r, sse = cand, r_cand, sse_cand
                damping = max(damping / 3.0, 1e-10)
                stepped = True
                break
            damping *= 10.0
        if not stepped:
            break
    return p, sse


def fit_variogram(samples: Sequence[Sample],
                  n_bins: int = VARIOGRAM_BINS) -> VariogramModel:
    """Fit an exponential model to the empirical semivariogram.

    Grid-seeded damped Gauss-Newton least squares on the binned curve. A
    degenerate field (all values equal) yields the documented fallback
    (nugget 0, tiny sill), under which kriging reproduces the constant.
    """
    if len(samples) < 10:
        raise ValueError(f"need at least 10 samples to fit a variogram, "
                         f"got {len(samples)}")
    h, gamma = empirical_variogram(samples, n_bins)
    cutoff = 2.0 * h.max() if h.size else 1.0
    gmax = float(gamma.max()) if gamma.size else 0.0
    if gmax <= 0.0 or h.size < 2:
        return VariogramModel(nugget=0.0, sill=1e-6,
                              effective_range=max(cutoff, 1.0))
    floor_sill = 1e-9 * gmax
    range_lo, range_hi = 1e-3 * cutoff, 100.0 * cutoff
    best_p, best_sse = None, math.inf
    for nugget0 in (0.0, 0.25 * gmax):
        for sill0 in (gmax, 0.6 * gmax):
            for range0 in (cutoff / 4.0, cutoff / 2.0, cutoff):
                p, sse = _gauss_newton(h, gamma,
                                       np.array([nugget0, sill0, range0]),
                                       floor_sill, range_lo, range_hi)
                if sse < best_sse:
                    best_p, best_sse = p, sse
    assert best_p is not None
    return VariogramModel(nugget=float(best_p[0]), sill=float(best_p[1]),
                          effective_range=float(best_p[2]))


def uk_weights(samples: Sequence[Sample], target: Region, model: VariogramModel,
               k_neighbors: int = UK_K) -> tuple[np.ndarray, np.ndarray]:
    """Solve the UK system; returns (kriging weights, neighbor sample indices).

    Raises NumericError when the augmented system is singular.
    """
    coords, _ = _coords_values(samples)
    if len(samples) < 4:
        raise ValueError("universal kriging needs at least 4 samples")
    t = np.asarray(target, dtype=np.float64)
    dists = np.sqrt(((coords - t) ** 2).sum(axis=1))
    idx = _nearest(dists, k_neighbors)
    pts = coords[idx]
    n = len(idx)
    diff = pts[:, None, :] - pts[None, :, :]
    gamma_mat = model.semivariance(np.sqrt((diff ** 2).sum(axis=2)))
    drift = np.column_stack([np.ones(n), pts])
    a = np.zeros((n + 3, n + 3))
    a[:n, :n] = gamma_mat
    a[:n, n:] = drift
    a[n:, :n] = drift.T
    b = np.concatenate([model.semivariance(dists[idx]), [1.0, t[0], t[1]]])
    sol = lu_solve(a, b)
    return sol[:n], idx


def uk_predict(samples: Sequence[Sample], target: Region, model: VariogramModel,
               k_neighbors: int = UK_K,
               on_fallback: Optional[Callable[[Region], None]] = None) -> float:
    """Universal kriging prediction; IDW fallback on a singular system."""
    _, values = _coords_values(samples)
    try:
        lam, idx = uk_weights(samples, target, model, k_neighbors)
    except NumericError:
        warnings.warn(f"singular kriging system at {target}; falling back to IDW",
                      stacklevel=2)
        if on_fallback is not None:
            on_fallback(target)
        return idw_predict(samples, target)
    return float(lam @ values[idx])
