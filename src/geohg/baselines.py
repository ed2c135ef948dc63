"""Classical spatial interpolation baselines: IDW and Universal Kriging.

Both work on sparse (region id, value) samples with distances measured in grid
units between cell coordinates, the same scale the position features use.
Samples and targets are integer cells, so every squared distance d2 between
them is an exact int64; a non-finite or non-integer coordinate, or cells
spread so far that the selection keys below would overflow int64, raise
ValueError. A distance is sqrt(d2), taken in float64 only where it is used.

Every call handles all of its targets at once, in blocks of IDW_CHUNK
targets for IDW and CHUNK for kriging: the samples become coordinate and
value arrays once, and each block gets its target-by-sample d2 rows. The
blocks run on a thread pool with one worker per usable CPU, since numpy
releases the GIL in the distance math, the selection and the stacked solve,
and each writes its own rows of preallocated outputs. A target's result
depends only on its own row, so the output is the same bit for bit whatever
the worker count, and the memory in flight is one block's working set per
worker. Each target's k nearest samples are the first k in strict (distance,
index) order, so a tie at the k-th distance goes to the lower sample index.
Each d2 and its sample index pack into one key d2 * n + index. The keys are
unique, so a partition at the k-th key selects the k in O(n) per row, a sort
of those k puts them in that order with no tie left, and divmod unpacks
them. idw_predict, uk_predict and uk_weights are the one-target case of the
same code.

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

The other targets' systems of a block are classified from their geometry
before any is built, and only the regular ones are built and solved, stacked,
by np.linalg.solve. LAPACK raises only on an exact zero pivot and may return
finite, meaningless weights for a singular system, so singularity is decided
from the geometry instead. With gamma(0) = 0 the exponential variogram is
strictly conditionally negative definite on distinct points, so a system is
nonsingular exactly when its k neighbours lie at distinct locations and the
drift (1, x, y) has full rank (Cressie, Statistics for Spatial Data, 1993,
section 3.4). A system is flagged when all its neighbours lie on one line
(every offset from the first has a zero cross product with the offset of
largest L1 norm; k <= 2 is always a line), an exact int64 test in O(k), or
when two of them share a location, which shows as two equal ids among the
system's k sorted location ids (computed once per call). A flagged system,
or a non-finite solution, falls back to IDW (default power and k) for that
target alone; callers can count these through the on_fallback hook.

Gamma is the semivariance of sqrt(d2) over the neighbours' pairwise int64
d2. It is read from a table of the semivariance at sqrt(0), ..., sqrt(top),
top being the largest d2 of the block's systems, when that table is smaller
than their pairs, and computed pair by pair otherwise: the same bits, with
memory bounded by the block either way.

The empirical variogram visits the sample pairs i < j in blocks of CHUNK
rows i, and keeps only a count, a distance sum and a semivariance sum per
bin, so its memory is one block's pairs whatever the sample count. Each
pair's bin is read from a table over d2 = 0..top where that table is
smaller than the first block's pairs, and searched for pair by pair
otherwise.
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

from .geodata import Region, first_rows
from .tensor import NumericError

Sample = tuple[Region, float]

IDW_POWER = 2.0
IDW_K = 16
UK_K = 64
VARIOGRAM_BINS = 12
# Targets per block of kriging systems, and sample rows per block of
# variogram pairs. Each worker thread keeps its own malloc arena at the
# peak of its blocks, so the block size sets the memory per worker: a UK
# block over 1024 samples peaks at 4.3 MB at k = 64 (16.5 MB at k = 128).
CHUNK = 32
# Targets per block of IDW distance rows. An IDW block holds little more
# than its target-by-sample keys, and over 1024 samples a block of 128
# peaks at 3.0 MB, under a UK block; fewer, longer blocks spend less of
# their time handing the GIL between workers. That gain needs a second
# worker. Over the 1024 interp-64 samples on a 2-core Xeon (2 MB of L2 per
# core), a call took about 65 ms in blocks of 128 against 78 ms in blocks
# of 32 on two workers, but about 100 ms against 65 ms on one.
IDW_CHUNK = 128


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
    # bool is an int subclass, but True is no neighbour count.
    if (not isinstance(k_neighbors, (int, np.integer))
            or isinstance(k_neighbors, bool) or k_neighbors < 1):
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


def _run_blocks(block: Callable[[slice], None], n: int, size: int) -> None:
    """Call block on each size-row slice of range(n), on one worker thread
    per usable CPU. The blocks must write disjoint rows. Each runs in a copy
    of the caller's context, so numpy's error state holds there too; the
    first exception is raised here, and every thread is joined on return."""
    blocks = [slice(lo, lo + size) for lo in range(0, n, size)]
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

    _run_blocks(block, len(targets), IDW_CHUNK)
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
        if self.kind != "exponential":
            raise ValueError(f"unsupported variogram kind {self.kind!r}")
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
    distance, over the non-empty bins in distance order.

    The cutoff's edges split (0, sqrt(top) / 2], top being the largest
    pairwise d2, into n_bins bins (edges[b], edges[b + 1]]; a pair at
    distance sqrt(d2) is tested against them, so it lands in the lower bin
    at an edge, and pairs at distance 0 or beyond the cutoff in none. The
    pairs i < j come CHUNK rows i at a time, over the columns from the
    block's first row on, in two passes: one for top, and one adding each
    pair's count, distance and semivariance 0.5 * (v_i - v_j)**2 to its
    bin's sums. So no pair array outlives its block, and the table of each
    d2's bin is only taken where it is smaller than a block.
    """
    coords, values = _sample_arrays(samples)
    n = len(coords)
    if n < 2:
        raise ValueError(f"the empirical variogram needs at least 2 samples, "
                         f"got {n}")
    x, y = coords.T

    def blocks():
        # Each block's int64 d2, with the pairs j <= i set to 0.
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            d2 = (x[lo:hi, None] - x[lo:]) ** 2
            d2 += (y[lo:hi, None] - y[lo:]) ** 2
            d2[:, :hi - lo] = np.triu(d2[:, :hi - lo], 1)
            yield lo, hi, d2

    top = max(int(d2.max()) for _, _, d2 in blocks())
    if top == 0:
        raise ValueError("all samples at one location")
    edges = np.linspace(0.0, math.sqrt(top) / 2.0, n_bins + 1)
    # A pair's bin is searchsorted(edges, sqrt(d2)): bin b + 1 of the sums
    # is (edges[b], edges[b + 1]], bin 0 holds distance 0 and bin n_bins + 1
    # what lies beyond the cutoff. It is read from a table over d2 = 0..top
    # where that table is smaller than the first block's pairs.
    table = None
    if top < min(CHUNK, n) * n:
        table = np.searchsorted(edges, np.sqrt(np.arange(top + 1.0)))
    count = np.zeros(n_bins + 2, dtype=np.int64)
    h_sum = np.zeros(n_bins + 2)
    g_sum = np.zeros(n_bins + 2)
    for lo, hi, d2 in blocks():
        dist = np.sqrt(d2).ravel()
        bins = (np.searchsorted(edges, dist) if table is None
                else table[d2.ravel()])
        semiv = 0.5 * (values[lo:hi, None] - values[lo:]) ** 2
        count += np.bincount(bins, minlength=n_bins + 2)
        h_sum += np.bincount(bins, dist, minlength=n_bins + 2)
        g_sum += np.bincount(bins, semiv.ravel(), minlength=n_bins + 2)
    hit = np.flatnonzero(count[1:-1]) + 1
    return h_sum[hit] / count[hit], g_sum[hit] / count[hit]


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


def _singular(pts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Each system's singularity flag under the rule in the module
    docstring, from its neighbours' cells pts (m, k, 2) and their location
    ids (m, k)."""
    offset = pts - pts[:, :1]
    far = np.abs(offset).sum(axis=2).argmax(axis=1)
    f = offset[np.arange(len(pts)), far]                # (m, 2)
    cross = offset[..., 0] * f[:, None, 1] - offset[..., 1] * f[:, None, 0]
    ids = np.sort(ids, axis=1)
    return (cross == 0).all(axis=1) | (ids[:, 1:] == ids[:, :-1]).any(axis=1)


def _uk_systems(pts: np.ndarray, targets: np.ndarray, dists: np.ndarray,
                model: VariogramModel) -> tuple[np.ndarray, np.ndarray]:
    """The stacked augmented systems a (m, k+3, k+3) and right-hand sides
    b (m, k+3, 1) of targets whose nearest samples lie at the cells pts
    (m, k, 2), at distances dists (m, k)."""
    m, k = pts.shape[:2]
    x, y = pts[..., 0], pts[..., 1]
    d2 = x[:, :, None] - x[:, None, :]                  # pairwise squared
    dy = y[:, :, None] - y[:, None, :]                  # distances, exact
    d2 *= d2
    dy *= dy
    d2 += dy
    a = np.empty((m, k + 3, k + 3))
    # Gamma from a table over d2 = 0..top where it is smaller than d2.
    top = d2.max(initial=0)
    if top < d2.size:
        a[:, :k, :k] = model.semivariance(np.sqrt(np.arange(top + 1.0)))[d2]
    else:
        a[:, :k, :k] = model.semivariance(np.sqrt(d2))
    a[:, :k, k] = 1.0
    a[:, :k, k + 1:] = pts
    a[:, k, :k] = 1.0
    a[:, k + 1:, :k] = pts.transpose(0, 2, 1)
    a[:, k:, k:] = 0.0
    b = np.empty((m, k + 3, 1))
    b[:, :k, 0] = model.semivariance(dists)
    b[:, k, 0] = 1.0
    b[:, k + 1:, 0] = targets
    return a, b


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
    ids = first_rows(coords)    # one id per cell: its first sample

    def block(rows: slice) -> None:
        dists, near = _neighbours(coords, targets[rows], k_neighbors)
        idx[rows] = near
        at = dists[:, 0] == 0.0
        lam[rows.start + np.flatnonzero(at), 0] = 1.0   # one-hot at a sample
        off = np.flatnonzero(~at)
        pts = coords[near[off]]
        singular = _singular(pts, ids[near[off]])
        ok[rows.start + off[singular]] = False
        built = off[~singular]
        a, b = _uk_systems(pts[~singular], targets[rows][built], dists[built],
                           model)
        sol = np.linalg.solve(a, b)[..., 0]
        solved = rows.start + built
        ok[solved] = np.isfinite(sol).all(axis=1)
        lam[solved] = sol[:, :n]

    _run_blocks(block, len(targets), CHUNK)
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
