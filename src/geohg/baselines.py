"""Classical spatial interpolation baselines: IDW and Universal Kriging.

Both work on sparse (region id, value) samples with distances measured in grid
units between cell coordinates, the same scale the position features use.
Samples and targets are integer cells, so every squared distance d2 between
them is an exact int64; a non-finite or non-integer coordinate, or cells
spread so far that the selection keys below would overflow int64, raise
ValueError. A distance is sqrt(d2), taken in float64 only where it is used.

Every call handles all of its targets at once, in blocks of CHUNK targets:
the samples become coordinate and value arrays once, and each block gets its
target-by-sample d2 rows. The blocks run on a thread pool with one worker
per usable CPU, since numpy releases the GIL in the distance math, the
selection and the stacked solve, and each writes its own rows of
preallocated outputs. A target's result depends only on its own row, so the
output is the same bit for bit whatever the worker count, and the memory in
flight is one block's working set per worker. Each target's k nearest
samples are the first k in strict (distance, index) order, so a tie at the
k-th distance goes to the lower sample index. Each d2 and its sample index
pack into one key d2 * n + index. The keys are unique, so a partition at the
k-th key selects the k in O(n) per row, a sort of those k puts them in that
order with no tie left, and divmod unpacks them. idw_predict, uk_predict and
uk_weights are the one-target case of the same code.

Universal Kriging solves, per target, the standard augmented system over the k
nearest samples with a first-order drift basis (1, x, y):

    [ Gamma  F ] [ lambda ]   [ gamma0 ]
    [ F^T    0 ] [ mu     ] = [ f0     ]

where Gamma holds pairwise semivariances, gamma0 the sample-to-target ones,
and F the drift basis rows. The unbiasedness rows force sum(lambda) = 1 and
drift reproduction, which is what lets UK track a linear trend that plain
kriging or IDW would flatten. A target at a sample location (nearest
distance exactly 0) needs no solve: gamma(0) = 0 makes gamma0 that sample's
column of Gamma, so its weights are one-hot on the sample, the lowest index
among samples at that location, as in IDW.

The other targets' systems of a block are stacked and solved by
np.linalg.solve. Gamma is the semivariance of sqrt(d2) over the neighbours'
pairwise d2. It is read from a table of the semivariance at sqrt(0), ...,
sqrt(top), top being the block's largest d2, when that table is smaller than
the block's pairs, and computed pair by pair otherwise: the same bits, with
memory bounded by the block either way.

LAPACK raises only on an exact zero pivot and may return finite, meaningless
weights for a singular system, so singularity is decided from the geometry
instead. With gamma(0) = 0 the exponential variogram is strictly
conditionally negative definite on distinct points, so a system is
nonsingular exactly when its k neighbours lie at distinct locations and the
drift (1, x, y) has full rank (Cressie, Statistics for Spatial Data, 1993,
section 3.4). A system is flagged when two neighbours share a location (an
off-diagonal d2 of 0) or all lie on one line (every offset from the first
has a zero cross product with the offset of largest L1 norm; k <= 2 is
always a line). Both tests are exact int64 arithmetic, and the line test is
O(k). A flagged system, or a non-finite solution, falls back to IDW (default
power and k) for that target alone; callers can count these through the
on_fallback hook.
"""

from __future__ import annotations

import contextvars
import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .geodata import Region
from .tensor import NumericError

Sample = tuple[Region, float]

IDW_POWER = 2.0
IDW_K = 16
UK_K = 64
VARIOGRAM_BINS = 12
# Targets per block of distance rows and kriging systems, and sample rows
# per block of variogram pairs. Each worker thread keeps its own malloc
# arena at the peak of its blocks, so the block size sets the memory per
# worker: a UK block over 1024 samples peaks at 4.6 MB (18.4 MB at 128).
CHUNK = 32


def _cells(points, what: str) -> np.ndarray:
    """Grid cells as an (n, 2) int64 array. Every coordinate must be a finite
    integer, since all distance work below is exact integer arithmetic."""
    arr = np.array(points)
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} cells must be (x, y) pairs")
    if arr.dtype.kind == "f":
        ok = (np.isfinite(arr) & (arr == np.trunc(arr))
              & (np.abs(arr) < 2.0 ** 63)).all()
    else:
        ok = arr.dtype.kind in "biu" and (arr <= np.iinfo(np.int64).max).all()
    if not ok:
        raise ValueError(f"{what} coordinates must be finite integers")
    return arr.astype(np.int64)


def _check_span(cells: np.ndarray, n: int) -> None:
    """Reject cells whose largest squared distance d2, packed with a sample
    index into the key d2 * n + index, would overflow int64. That bound
    covers every other integer product taken from these cells."""
    (x0, y0), (x1, y1) = cells.min(axis=0).tolist(), cells.max(axis=0).tolist()
    if ((x1 - x0) ** 2 + (y1 - y0) ** 2 + 1) * n > 2 ** 63:
        raise ValueError("cells span too far for exact int64 squared distances")


def _sample_arrays(samples: Sequence[Sample]) -> tuple[np.ndarray, np.ndarray]:
    if not samples:
        raise ValueError("no samples")
    coords = _cells([region for region, _ in samples], "sample")
    _check_span(coords, len(coords))
    values = np.array([v for _, v in samples], dtype=np.float64)
    return coords, values


def _target_array(targets: Sequence[Region], coords: np.ndarray) -> np.ndarray:
    t = _cells(targets, "target")
    _check_span(np.concatenate([coords, t]), len(coords))
    return t


def _check_k(k_neighbors: int) -> None:
    if not isinstance(k_neighbors, (int, np.integer)) or k_neighbors < 1:
        raise ValueError(f"k_neighbors must be an integer >= 1, "
                         f"got {k_neighbors!r}")


def _neighbours(coords: np.ndarray, targets: np.ndarray, k: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """(distances, sample indices) of each target's k nearest samples, in
    strict (distance, index) order, from the keys d2 * n + index."""
    n = len(coords)
    keys = targets[:, :1] - coords[:, 0]
    dy = targets[:, 1:] - coords[:, 1]
    keys *= keys
    dy *= dy
    keys += dy
    keys *= n
    keys += np.arange(n)
    if k < n:
        keys = np.partition(keys, k - 1, axis=1)[:, :k]
    keys.sort(axis=1)
    d2, idx = np.divmod(keys, n)
    return np.sqrt(d2), idx


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:              # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(block: Callable[[slice], None], n: int) -> None:
    """Call block on each CHUNK-row slice of range(n), on one worker thread
    per usable CPU. The blocks must write disjoint rows. Each runs in a copy
    of the caller's context, so numpy's error state holds there too; the
    first exception is raised here, and every thread is joined on return."""
    blocks = [slice(lo, lo + CHUNK) for lo in range(0, n, CHUNK)]
    workers = min(_usable_cpus(), len(blocks))
    if workers <= 1:
        list(map(block, blocks))
        return
    context = contextvars.copy_context()
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(lambda rows: context.copy().run(block, rows), blocks))


def _idw(coords: np.ndarray, values: np.ndarray, targets: np.ndarray,
         power: float, k_neighbors: int) -> np.ndarray:
    if not (math.isfinite(power) and power > 0):
        raise ValueError(f"IDW power must be finite and positive, got {power}")
    _check_k(k_neighbors)
    out = np.empty(len(targets))

    def block(rows: slice) -> None:
        dists, idx = _neighbours(coords, targets[rows], k_neighbors)
        near = values[idx]
        pred = near[:, 0].copy()        # exact where the nearest is at 0
        miss = dists[:, 0] != 0.0
        # Relative to the nearest distance, whose weight is then exactly 1,
        # so the weight sum cannot underflow to 0 at any finite power.
        d = dists[miss]
        w = (d / d[:, :1]) ** -power
        pred[miss] = (w * near[miss]).sum(axis=1) / w.sum(axis=1)
        out[rows] = pred

    _run_blocks(block, len(targets))
    return out


def idw_predict_batch(samples: Sequence[Sample], targets: Sequence[Region],
                      power: float = IDW_POWER,
                      k_neighbors: int = IDW_K) -> np.ndarray:
    """Inverse-distance-weighted mean over each target's k nearest samples.

    Exact at sample locations (the zero-distance sample wins outright).
    """
    coords, values = _sample_arrays(samples)
    return _idw(coords, values, _target_array(targets, coords), power,
                k_neighbors)


def idw_predict(samples: Sequence[Sample], target: Region,
                power: float = IDW_POWER, k_neighbors: int = IDW_K) -> float:
    """One-target :func:`idw_predict_batch`."""
    return float(idw_predict_batch(samples, [target], power, k_neighbors)[0])


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
        params = (self.nugget, self.sill, self.effective_range)
        if (not all(map(math.isfinite, params)) or self.nugget < 0
                or self.sill <= 0 or self.effective_range <= 0):
            raise ValueError(
                f"invalid variogram (nugget={self.nugget}, sill={self.sill}, "
                f"range={self.effective_range})")

    def semivariance(self, h: np.ndarray) -> np.ndarray:
        h = np.asarray(h, dtype=np.float64)
        g = self.nugget + self.sill * (1.0 - np.exp(-3.0 * h / self.effective_range))
        return np.where(h == 0.0, 0.0, g)


def empirical_variogram(samples: Sequence[Sample],
                        n_bins: int = VARIOGRAM_BINS) -> tuple[np.ndarray, np.ndarray]:
    """Binned (mean distance, mean semivariance) pairs up to half the max
    distance. The pairs i < j are built in row-major (triu) order, CHUNK
    rows i at a time over the columns from the block's first row on."""
    coords, values = _sample_arrays(samples)
    n = len(coords)
    if n < 2:
        raise ValueError(f"the empirical variogram needs at least 2 samples, "
                         f"got {n}")
    x, y = coords.T
    dist = np.empty(n * (n - 1) // 2)
    semiv = np.empty_like(dist)
    at = 0
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        upper = np.arange(lo, n) > np.arange(lo, hi)[:, None]
        end = at + np.count_nonzero(upper)
        dist[at:end] = np.sqrt((x[lo:hi, None] - x[None, lo:]) ** 2
                               + (y[lo:hi, None] - y[None, lo:]) ** 2)[upper]
        semiv[at:end] = (0.5 * (values[lo:hi, None]
                                - values[None, lo:]) ** 2)[upper]
        at = end
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
                delta = np.linalg.solve(jtj + damping * np.eye(3), -g)
            except np.linalg.LinAlgError:
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


def _uk_systems(coords: np.ndarray, targets: np.ndarray, near: np.ndarray,
                dists: np.ndarray, model: VariogramModel
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacked augmented systems (a, b) of targets whose nearest samples
    are the rows of `near`, at distances `dists`, and each system's
    singularity flag under the rule in the module docstring."""
    n = near.shape[1]
    pts = coords[near]                                  # (m, n, 2) int64
    x, y = pts[..., 0], pts[..., 1]
    d2 = x[:, :, None] - x[:, None, :]                  # pairwise squared
    dy = y[:, :, None] - y[:, None, :]                  # distances, exact
    d2 *= d2
    dy *= dy
    d2 += dy
    offset = pts - pts[:, :1]
    far = np.abs(offset).sum(axis=2).argmax(axis=1)
    f = offset[np.arange(len(pts)), far]                # (m, 2)
    cross = offset[..., 0] * f[:, None, 1] - offset[..., 1] * f[:, None, 0]
    singular = ((np.count_nonzero(d2 == 0, axis=(1, 2)) > n)
                | (cross == 0).all(axis=1))
    a = np.zeros((len(pts), n + 3, n + 3))
    # Gamma from a table over d2 = 0..top where it is smaller than d2.
    top = d2.max(initial=0)
    if top < d2.size:
        a[:, :n, :n] = model.semivariance(np.sqrt(np.arange(top + 1.0)))[d2]
    else:
        a[:, :n, :n] = model.semivariance(np.sqrt(d2))
    a[:, :n, n] = 1.0
    a[:, :n, n + 1:] = pts
    a[:, n, :n] = 1.0
    a[:, n + 1:, :n] = pts.transpose(0, 2, 1)
    b = np.empty((len(pts), n + 3))
    b[:, :n] = model.semivariance(dists)
    b[:, n] = 1.0
    b[:, n + 1:] = targets
    return a, b, singular


def _uk_weights(coords: np.ndarray, targets: np.ndarray,
                model: VariogramModel, k_neighbors: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kriging weights, neighbour indices and a solved flag per target."""
    if len(coords) < 4:
        raise ValueError("universal kriging needs at least 4 samples")
    _check_k(k_neighbors)
    n = min(k_neighbors, len(coords))
    lam = np.zeros((len(targets), n))
    idx = np.empty((len(targets), n), dtype=np.intp)
    ok = np.ones(len(targets), dtype=bool)

    def block(rows: slice) -> None:
        dists, near = _neighbours(coords, targets[rows], k_neighbors)
        idx[rows] = near
        at = dists[:, 0] == 0.0
        lam[rows.start + np.flatnonzero(at), 0] = 1.0   # one-hot at a sample
        off = rows.start + np.flatnonzero(~at)
        a, b, singular = _uk_systems(coords, targets[off], near[~at],
                                     dists[~at], model)
        solved = off[~singular]
        sol = np.linalg.solve(a[~singular], b[~singular, :, None])[..., 0]
        ok[off[singular]] = False
        ok[solved] = np.isfinite(sol).all(axis=1)
        lam[solved] = sol[:, :n]

    _run_blocks(block, len(targets))
    return lam, idx, ok


def uk_weights(samples: Sequence[Sample], target: Region, model: VariogramModel,
               k_neighbors: int = UK_K) -> tuple[np.ndarray, np.ndarray]:
    """One target's kriging weights and neighbour sample indices. At a
    sample location the weights are one-hot on that sample, with no solve.

    Raises NumericError when the augmented system is singular.
    """
    coords, _ = _sample_arrays(samples)
    lam, idx, ok = _uk_weights(coords, _target_array([target], coords),
                               model, k_neighbors)
    if not ok[0]:
        raise NumericError(f"singular kriging system at {target}")
    return lam[0], idx[0]


def uk_predict_batch(samples: Sequence[Sample], targets: Sequence[Region],
                     model: VariogramModel, k_neighbors: int = UK_K,
                     on_fallback: Optional[Callable[[Region], None]] = None
                     ) -> np.ndarray:
    """Universal kriging prediction per target.

    Exact at sample locations, with no solve there. A target whose system
    is singular takes the IDW prediction at the default power and k
    instead; on_fallback is called with each such target, in target order.
    """
    coords, values = _sample_arrays(samples)
    t = _target_array(targets, coords)
    lam, idx, ok = _uk_weights(coords, t, model, k_neighbors)
    # One dot product per target, the same as lam[i] @ values[idx[i]].
    pred = np.matmul(lam[:, None, :], values[idx][:, :, None])[:, 0, 0]
    failed = np.flatnonzero(~ok)
    if failed.size:
        pred[failed] = _idw(coords, values, t[failed], IDW_POWER, IDW_K)
        if on_fallback is not None:
            for i in failed:
                on_fallback(targets[i])
    return pred


def uk_predict(samples: Sequence[Sample], target: Region, model: VariogramModel,
               k_neighbors: int = UK_K,
               on_fallback: Optional[Callable[[Region], None]] = None) -> float:
    """One-target :func:`uk_predict_batch`, which warns when it falls back."""
    failed: list[Region] = []
    pred = uk_predict_batch(samples, [target], model, k_neighbors,
                            on_fallback=failed.append)[0]
    if failed:
        warnings.warn(f"singular kriging system at {target}; falling back to IDW",
                      stacklevel=2)
        if on_fallback is not None:
            on_fallback(target)
    return float(pred)
