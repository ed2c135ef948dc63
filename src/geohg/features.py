"""Per-region feature embeddings from three views of the geospace.

Each region gets three vectors:
  * ``e_pos`` -- integer cell coordinates in grid units (km offset / cell size),
  * ``e_env`` -- land-cover class area proportions over the region's pixels,
  * ``e_soc`` -- POI category proportions scaled by the social impact factor
    ``f = ln(poi_count + 1)``, so the L1 norm of ``e_soc`` equals ``f``.

A region with no POIs has ``e_soc = 0``. Proportions use natural counts, so
``e_env`` always sums to 1 and ``e_soc / f`` sums to 1 when ``poi_count > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geodata import (GeoDataError, GridSpec, LandCoverGrid, PoiRecord, Region,
                      region_of)


@dataclass(frozen=True)
class RegionFeatures:
    """The three per-region embeddings plus the raw POI count."""

    region: Region
    e_pos: np.ndarray      # (2,)  grid-unit cell coordinates
    e_env: np.ndarray      # (J,)  land-cover proportions, sums to 1
    e_soc: np.ndarray      # (K,)  f * category proportions, zero when no POIs
    poi_count: int

    def __post_init__(self) -> None:
        for arr in (self.e_pos, self.e_env, self.e_soc):
            arr.setflags(write=False)

    def raw(self) -> np.ndarray:
        """Concatenated [e_pos, e_env, e_soc] row used as model input."""
        return np.concatenate([self.e_pos, self.e_env, self.e_soc])


def compute_pos(region: Region, grid: GridSpec) -> np.ndarray:
    """Cell coordinates in grid units: km offset from the origin divided by cell_km."""
    if not grid.contains(region):
        raise GeoDataError(f"region {region} outside {grid.n_cols}x{grid.n_rows} grid")
    return np.array(region, dtype=np.float64)


def compute_env(region: Region, lc: LandCoverGrid) -> np.ndarray:
    """Area proportion of each land-cover class within the region's pixel block."""
    pixels = lc.region_pixels(region)
    counts = np.bincount(pixels.ravel(), minlength=lc.n_classes)
    return counts / pixels.size


def compute_soc(region: Region, pois: Sequence[PoiRecord],
                grid: GridSpec) -> tuple[np.ndarray, int]:
    """Impact-weighted category proportions for the POIs falling in one region.

    Returns ``(f * proportions, poi_count)`` with ``f = ln(poi_count + 1)``;
    the number of categories is taken as ``max(c) + 1`` over the input, so
    prefer :func:`featurize_all` (fixed K) outside of tests.
    """
    n_categories = max((p.c for p in pois), default=-1) + 1
    counts = np.zeros(n_categories, dtype=np.float64)
    for p in pois:
        if region_of(p.x, p.y, grid) == region:
            counts[p.c] += 1
    return _soc_from_counts(counts)


def _soc_from_counts(counts: np.ndarray) -> tuple[np.ndarray, int]:
    total = int(counts.sum())
    if total == 0:
        return np.zeros_like(counts, dtype=np.float64), 0
    return math.log(total + 1) * counts / total, total


def assign_pois(pois: Sequence[PoiRecord], grid: GridSpec,
                n_categories: int) -> tuple[np.ndarray, int]:
    """Bucket POIs into per-region category counts.

    Returns ``(counts, n_outside)`` where counts has shape (n_regions, K) in
    canonical region order and n_outside is the number of POIs dropped for
    falling outside the grid. counts.sum() + n_outside == len(pois).
    """
    counts = np.zeros((grid.n_regions, n_categories), dtype=np.float64)
    n_outside = 0
    for p in pois:
        region = region_of(p.x, p.y, grid)
        if region is None:
            n_outside += 1
            continue
        if p.c >= n_categories:
            raise GeoDataError(f"POI category {p.c} out of range [0, {n_categories})")
        counts[grid.region_index(region), p.c] += 1
    return counts, n_outside


def featurize_all(grid: GridSpec, lc: LandCoverGrid, pois: Sequence[PoiRecord],
                  n_categories: Optional[int] = None,
                  warn: bool = True) -> list[RegionFeatures]:
    """Compute RegionFeatures for every region, in canonical row-major order.

    POIs outside the grid are counted and dropped (a warning reports how many).
    """
    if lc.grid != grid:
        raise GeoDataError("land-cover grid does not match region grid")
    if n_categories is None:
        n_categories = max((p.c for p in pois), default=-1) + 1
    counts, n_outside = assign_pois(pois, grid, n_categories)
    if n_outside and warn:
        import warnings
        warnings.warn(f"dropped {n_outside} POIs outside the grid", stacklevel=2)
    out: list[RegionFeatures] = []
    for region in grid.regions():
        e_soc, poi_count = _soc_from_counts(counts[grid.region_index(region)])
        out.append(RegionFeatures(region=region,
                                  e_pos=compute_pos(region, grid),
                                  e_env=compute_env(region, lc),
                                  e_soc=e_soc,
                                  poi_count=poi_count))
    return out


def feature_matrix(features: Sequence[RegionFeatures]) -> np.ndarray:
    """Stack raw per-region rows into an (n_regions, 2 + J + K) matrix."""
    return np.stack([f.raw() for f in features])


def save_features(features: Sequence[RegionFeatures], path: str,
                  header_comments: Sequence[str] = ()) -> None:
    """Write the features CSV: x_r,y_r,pos_*,env_*,soc_*,poi_count."""
    if not features:
        raise GeoDataError("no features to save")
    n_env = features[0].e_env.size
    n_soc = features[0].e_soc.size
    cols = (["x_r", "y_r", "pos_0", "pos_1"]
            + [f"env_{j}" for j in range(n_env)]
            + [f"soc_{k}" for k in range(n_soc)]
            + ["poi_count"])
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(",".join(cols) + "\n")
        for f in features:
            x, y = f.region
            values = [str(x), str(y)]
            values += [repr(float(v)) for v in f.e_pos]
            values += [repr(float(v)) for v in f.e_env]
            values += [repr(float(v)) for v in f.e_soc]
            values.append(str(f.poi_count))
            fh.write(",".join(values) + "\n")


def load_features(path: str) -> list[RegionFeatures]:
    """Read back a features CSV written by :func:`save_features`.

    Raises GeoDataError, naming the file and line, on a row of the wrong
    width, a non-integer x_r, y_r or poi_count, or a feature value that is
    unparsable, NaN or infinite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        rows = []
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append((lineno, line.split(",")))
    if header is None:
        raise GeoDataError(f"{path}: missing header")
    n_env = sum(1 for c in header if c.startswith("env_"))
    n_soc = sum(1 for c in header if c.startswith("soc_"))
    out = []
    for lineno, parts in rows:
        where = f"{path}: line {lineno}"
        if len(parts) != len(header):
            raise GeoDataError(f"{where}: row width {len(parts)} != header {len(header)}")
        try:
            x, y, poi_count = int(parts[0]), int(parts[1]), int(parts[-1])
        except ValueError as exc:
            raise GeoDataError(f"{where}: x_r, y_r and poi_count must be "
                               f"integers ({exc})") from None
        try:
            vals = np.array([float(v) for v in parts[2:-1]])
        except ValueError as exc:
            raise GeoDataError(f"{where}: unparsable feature value ({exc})") from None
        if not np.all(np.isfinite(vals)):
            raise GeoDataError(f"{where}: non-finite feature value")
        out.append(RegionFeatures(
            region=(x, y),
            e_pos=vals[:2],
            e_env=vals[2:2 + n_env],
            e_soc=vals[2 + n_env:2 + n_env + n_soc],
            poi_count=poi_count))
    return out
