"""Seeded synthetic geospace generator.

Builds a small world on a rectangular grid: archetype patches laid out by a
Voronoi partition (e.g. water / green / residential / commercial), a per-pixel
land-cover raster sampled from each archetype's class mixture, POIs drawn from
per-archetype Poisson rates, and a full-coverage indicator field

    y(r) = w . e_env(r) + v . e_soc(r) + smooth(r) + jump * side(r) + noise(r)

where e_env / e_soc are the *realized* region features recomputed from the
emitted raster and POI table, smooth is a low-frequency sinusoidal field, and
side flags which side of a barrier polyline (a "river") the cell center lies
on. Every per-region component is recorded in a ledger so tests can rebuild y
exactly and attribute any prediction error to a known source.

Generation is a pure function of the config (seed included): the rng is
consumed in a fixed documented order (patch seeds, archetypes, pixels, POI
counts, POI positions, smooth field, noise). Region by region in row-major
order, the pixels take p x p uniforms each, inverted through the archetype's
class CDF as rng.choice inverts them. Region by region and category by
category, each positive rate takes one uniform for its Poisson count, then
two per point for the point's offsets in the cell. The draws are made in
blocks, one region row of pixels or one chunk of the POI stream at a time;
n uniforms drawn at once are the n drawn one by one, so the world is the
same as a draw-by-draw loop gives, to the bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geodata import GeoDataError, GridSpec, LabelSet, LandCoverGrid, PoiTable
from .features import featurize_all

# Region rows per block of the Voronoi step's region-by-patch distances.
VORONOI_BLOCK = 256
# Most uniforms the POI step draws at once.
POI_CHUNK = 8192
# Largest |row sum - 1| of a class mixture that rng.choice accepts.
ROW_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _default_class_mix(n_archetypes: int, n_classes: int) -> np.ndarray:
    """One mixture row per archetype, peaked on a distinct pair of classes."""
    mix = np.full((n_archetypes, n_classes), 0.4)
    for a in range(n_archetypes):
        mix[a, (2 * a) % n_classes] += 6.0
        mix[a, (2 * a + 1) % n_classes] += 2.0
    return mix / mix.sum(axis=1, keepdims=True)


def _default_poi_rates(n_archetypes: int, n_categories: int) -> np.ndarray:
    """Mean POIs per cell per category; archetype 0 is near-empty ("water")."""
    rates = np.zeros((n_archetypes, n_categories))
    for a in range(1, n_archetypes):
        for k in range(n_categories):
            shift = (k - a * n_categories / n_archetypes) % n_categories
            rates[a, k] = 3.0 * math.exp(-shift / 1.2)
    rates[0, :] = 0.02
    return rates


def _default_weights(n: int, scale: float) -> np.ndarray:
    return scale * np.cos(1.0 + np.arange(n, dtype=np.float64))


@dataclass(frozen=True)
class SynthConfig:
    n_cols: int = 16
    n_rows: int = 16
    pixels_per_cell: int = 4
    n_classes: int = 11
    n_categories: int = 6
    n_archetypes: int = 4
    n_patches: int = 24                      # Voronoi seed count
    class_mix: Optional[np.ndarray] = None   # (A, J) rows sum to 1
    poi_rates: Optional[np.ndarray] = None   # (A, K) Poisson means per cell
    env_weights: Optional[np.ndarray] = None  # (J,)
    soc_weights: Optional[np.ndarray] = None  # (K,)
    smooth_amplitude: float = 0.5
    smooth_waves: int = 3
    jump: float = 2.0
    barrier: Optional[tuple[tuple[float, float], ...]] = None  # (x, y) grid units
    noise_sigma: float = 0.1
    origin_lon: float = 0.0
    origin_lat: float = 0.0
    cell_km: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_cols < 2 or self.n_rows < 2:
            raise GeoDataError("synthetic grid must be at least 2x2")
        if not all(math.isfinite(v) for v in
                   (self.noise_sigma, self.jump, self.smooth_amplitude)):
            raise GeoDataError("noise sigma, jump and smooth amplitude must be finite")
        if self.noise_sigma < 0:
            raise GeoDataError("noise sigma must be >= 0")
        if self.n_archetypes < 1 or self.n_patches < 1:
            raise GeoDataError("need at least one archetype and one patch")
        if self.n_classes < 1 or self.pixels_per_cell < 1:
            raise GeoDataError("need at least one land-cover class and one "
                               "pixel per cell")
        if self.n_categories < 0:
            raise GeoDataError("POI category count must be >= 0")

    def resolved(self) -> "_Resolved":
        a, j, k = self.n_archetypes, self.n_classes, self.n_categories
        mix = self.class_mix if self.class_mix is not None else _default_class_mix(a, j)
        rates = self.poi_rates if self.poi_rates is not None else _default_poi_rates(a, k)
        w = self.env_weights if self.env_weights is not None else _default_weights(j, 2.0)
        v = self.soc_weights if self.soc_weights is not None else _default_weights(k, 0.6)
        mix = np.asarray(mix, dtype=np.float64)
        rates = np.asarray(rates, dtype=np.float64)
        w = np.asarray(w, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        # rng.choice's tolerance: a row further from 1 would be renormalised.
        if mix.shape != (a, j) or not np.all(mix >= 0) or \
                not np.all(np.abs(mix.sum(axis=1) - 1.0) <= ROW_SUM_ATOL):
            raise GeoDataError("class_mix must be (A, J) rows of proportions")
        if rates.shape != (a, k) or not np.all((rates >= 0) & (rates < np.inf)):
            raise GeoDataError("poi_rates must be (A, K) finite and non-negative")
        if w.shape != (j,) or v.shape != (k,):
            raise GeoDataError("weight vector shapes must match class/category counts")
        barrier = self.barrier
        if barrier is None:
            # Wavy near-vertical line through the middle of the grid.
            mid = self.n_cols / 2.0
            ys = np.linspace(0.0, float(self.n_rows), 9)
            barrier = tuple((mid + 1.5 * math.sin(2.0 * math.pi * y / self.n_rows), y)
                            for y in ys)
        if len(barrier) < 2:
            raise GeoDataError("barrier polyline needs at least 2 points")
        return _Resolved(mix, rates, w, v, tuple(barrier))


@dataclass(frozen=True)
class _Resolved:
    class_mix: np.ndarray
    poi_rates: np.ndarray
    env_weights: np.ndarray
    soc_weights: np.ndarray
    barrier: tuple[tuple[float, float], ...]


def _poisson_table(lam: float) -> list[float]:
    """Cumulative Poisson(lam) probabilities by the recurrence p_k = p_{k-1}
    lam / k, summed left to right, up to the first sum that covers every
    u in [0, 1) or that can no longer grow. An inversion u <= table[k]
    therefore gives k with the same bits as a sequential search."""
    p = math.exp(-lam)
    cum = p
    table = [cum]
    k = 0
    while cum < 1.0:
        k += 1
        p *= lam / k
        # Past the mode the terms shrink, so a sum they no longer move is
        # final; an underflowed term stays 0 for good.
        if p == 0.0 or (k > lam and cum + p == cum):
            break
        cum += p
        table.append(cum)
    return table


def _invert(table: list[float], u: float, lam: float) -> int:
    """Smallest k with u <= table[k]; a u above the whole table is a draw
    the sequential search would never finish."""
    k = bisect_left(table, u)
    if k == len(table):
        raise GeoDataError(f"Poisson sampling did not terminate for rate {lam}")
    return k


def poisson_sample(rng: np.random.Generator, lam: float) -> int:
    """Poisson draw by inversion of one uniform, exact and reproducible;
    a rate of 0 consumes no draw."""
    if not 0.0 <= lam < math.inf:
        raise GeoDataError("Poisson rate must be finite and >= 0")
    if lam == 0.0:
        return 0
    return _invert(_poisson_table(lam), rng.random(), lam)


def _poisson_scan(rng: np.random.Generator, rates: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Poisson counts for a sequence of positive rates, each count's uniform
    followed by two placement uniforms per point, as one stream.

    Returns (counts, placement uniforms in stream order). The stream is
    drawn in chunks, none larger than what is still sure to be consumed
    (one uniform per rate left, plus placements owed), so the generator
    ends exactly where a draw-by-draw loop would.
    """
    lams = rates.tolist()
    tables = {lam: _poisson_table(lam) for lam in set(lams)}
    counts: list[int] = []
    kept: list[np.ndarray] = []       # placement uniforms, chunk by chunk
    chunk, vals, is_placement = np.empty(0), [], np.empty(0, dtype=bool)
    pos = end = 0                     # pos may run past the chunk's end
    left = len(lams)                  # counts still to draw
    for lam in lams:
        while pos >= end:
            kept.append(chunk[is_placement])
            pos -= end                # placements owed to the last count
            chunk = rng.random(min(POI_CHUNK, pos + left))
            vals = chunk.tolist()
            end = len(vals)
            is_placement = np.ones(end, dtype=bool)
        is_placement[pos] = False
        c = _invert(tables[lam], vals[pos], lam)
        counts.append(c)
        pos += 1 + 2 * c
        left -= 1
    kept.append(chunk[is_placement])
    kept.append(rng.random(max(pos - end, 0)))
    return np.array(counts, dtype=np.int64), np.concatenate(kept)


def _place_pois(rng: np.random.Generator, grid: GridSpec,
                rates: np.ndarray) -> PoiTable:
    """Poisson POI counts per (region, category) from the (n_regions, K)
    rates, in row-major region then category order, each count followed by
    its points' (x, y) offsets within the cell; a rate of 0 draws nothing."""
    flat = rates.ravel()
    pairs = np.flatnonzero(flat)
    counts, offsets = _poisson_scan(rng, flat[pairs])
    region, category = (np.repeat(v, counts)
                        for v in np.divmod(pairs, rates.shape[1]))
    y, x = np.divmod(region, grid.n_cols)
    km_lon, km_lat = grid.km_per_degree()
    lon = grid.origin_lon + (x + offsets[0::2]) * grid.cell_km / km_lon
    lat = grid.origin_lat + (y + offsets[1::2]) * grid.cell_km / km_lat
    return PoiTable(lon=lon, lat=lat, category=category)


def _barrier_sides(xs: np.ndarray, ys: np.ndarray,
                   barrier: Sequence[tuple[float, float]]) -> np.ndarray:
    """1 where (x, y) lies east of the polyline at height y, else 0.

    The polyline is given as (x, y) vertices ordered by y; x is interpolated
    piecewise-linearly, clamping y outside the covered span.
    """
    pts = sorted(barrier, key=lambda p: p[1])
    bx = np.interp(ys, [p[1] for p in pts], [p[0] for p in pts])
    return (xs > bx).astype(np.int64)


def barrier_side(x: float, y: float,
                 barrier: Sequence[tuple[float, float]]) -> int:
    """_barrier_sides for a single point."""
    return int(_barrier_sides(np.array([x]), np.array([y]), barrier)[0])


def _smooth_field(rng: np.random.Generator, centers: np.ndarray,
                  amplitude: float, n_waves: int, span: float) -> np.ndarray:
    """Sum of random low-frequency plane waves, scaled to the given amplitude."""
    if amplitude == 0.0 or n_waves == 0:
        return np.zeros(len(centers))
    total = np.zeros(len(centers))
    for _ in range(n_waves):
        angle = rng.random() * 2.0 * math.pi
        wavelength = span * (0.3 + 0.5 * rng.random())
        phase = rng.random() * 2.0 * math.pi
        k = 2.0 * math.pi / wavelength
        proj = centers[:, 0] * math.cos(angle) + centers[:, 1] * math.sin(angle)
        total += np.sin(k * proj + phase)
    return amplitude * total / math.sqrt(n_waves)


def generate(config: SynthConfig) -> tuple[LandCoverGrid, PoiTable, LabelSet, dict]:
    """Generate (land cover, POIs, full-coverage labels, ground-truth ledger)."""
    res = config.resolved()
    rng = np.random.default_rng(config.seed)
    grid = GridSpec(origin_lon=config.origin_lon, origin_lat=config.origin_lat,
                    n_cols=config.n_cols, n_rows=config.n_rows,
                    cell_km=config.cell_km)
    n = grid.n_regions

    # 1) Voronoi patches -> archetype per region (seeded in cell-center units).
    patch_xy = rng.random((config.n_patches, 2)) * [config.n_cols, config.n_rows]
    patch_arch = rng.integers(0, config.n_archetypes, size=config.n_patches)
    cells = grid.cells()
    centers = cells + 0.5
    nearest = np.empty(n, dtype=np.intp)
    for lo in range(0, n, VORONOI_BLOCK):
        block = centers[lo:lo + VORONOI_BLOCK]
        # dx**2 + dy**2: the bits of a sum over the pair axis, without
        # numpy's slow reduction over a length-2 axis.
        d2 = ((block[:, 0, None] - patch_xy[None, :, 0]) ** 2
              + (block[:, 1, None] - patch_xy[None, :, 1]) ** 2)
        nearest[lo:lo + VORONOI_BLOCK] = np.argmin(d2, axis=1)
    archetype = patch_arch[nearest]

    # 2) Land-cover pixels per region from the archetype's class mixture:
    # rng.choice's own inversion, u -> cdf.searchsorted(u, side="right"),
    # with each region's p x p uniforms drawn in region order, a row at once.
    p = config.pixels_per_cell
    cdf = res.class_mix.cumsum(axis=1)
    cdf = cdf / cdf[:, -1:]
    classes = np.empty((grid.n_rows * p, grid.n_cols * p), dtype=np.int64)
    blocks = classes.reshape(grid.n_rows, p, grid.n_cols, p)    # [y, i, x, j]
    for y, arch_row in enumerate(archetype.reshape(grid.n_rows, grid.n_cols)):
        u = rng.random((grid.n_cols, p, p)).transpose(1, 0, 2)  # [i, x, j]
        for a in range(config.n_archetypes):
            sel = arch_row == a
            blocks[y][:, sel, :] = cdf[a].searchsorted(u[:, sel, :],
                                                       side="right")
    lc = LandCoverGrid(grid=grid, pixels_per_cell=p, classes=classes,
                       n_classes=config.n_classes)

    # 3) POIs: per-cell per-category Poisson counts, uniform placement in-cell.
    pois = _place_pois(rng, grid, res.poi_rates[archetype])

    # 4) Realized features close the loop: y is linear in what models can see.
    feats = featurize_all(grid, lc, pois, n_categories=config.n_categories,
                          warn=False)
    # Row by row: a matrix-vector product can differ in the last bit.
    env_term = np.array([float(res.env_weights @ row) for row in feats.env])
    soc_term = np.array([float(res.soc_weights @ row) for row in feats.soc])

    # 5) Smooth field, barrier jump, noise.
    span = float(max(config.n_cols, config.n_rows))
    smooth = _smooth_field(rng, centers, config.smooth_amplitude,
                           config.smooth_waves, span)
    side = _barrier_sides(centers[:, 0], centers[:, 1], res.barrier)
    jump_term = config.jump * side.astype(np.float64)
    noise = (rng.standard_normal(n) * config.noise_sigma
             if config.noise_sigma > 0 else np.zeros(n))

    y = env_term + soc_term + smooth + jump_term + noise
    labels = LabelSet(cells=cells, values=y)

    ledger = {
        "seed": config.seed,
        "grid": {"n_cols": config.n_cols, "n_rows": config.n_rows,
                 "cell_km": config.cell_km, "origin_lon": config.origin_lon,
                 "origin_lat": config.origin_lat},
        "n_classes": config.n_classes,
        "n_categories": config.n_categories,
        "pixels_per_cell": config.pixels_per_cell,
        "env_weights": res.env_weights.tolist(),
        "soc_weights": res.soc_weights.tolist(),
        "jump": config.jump,
        "noise_sigma": config.noise_sigma,
        "barrier": [list(pt) for pt in res.barrier],
        "archetype_of_region": archetype.tolist(),
        "patch_centers": patch_xy.tolist(),
        "patch_archetypes": patch_arch.tolist(),
        "poi_count_total": len(pois),
        "components": {
            "env_term": env_term.tolist(),
            "soc_term": soc_term.tolist(),
            "smooth": smooth.tolist(),
            "jump_term": jump_term.tolist(),
            "noise": noise.tolist(),
        },
        "barrier_side": side.tolist(),
        "labels": [float(v) for v in y],
    }
    return lc, pois, labels, ledger
