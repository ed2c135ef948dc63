"""The region feature table: three views of the geospace, one row per region.

A :class:`FeatureTable` holds one row ``[e_pos | e_env | e_soc]`` per region:
  * ``e_pos`` -- integer cell coordinates in grid units (km offset / cell size),
  * ``e_env`` -- land-cover class area proportions over the region's pixels,
  * ``e_soc`` -- POI category proportions scaled by the social impact factor
    ``f = ln(poi_count + 1)``, so the L1 norm of ``e_soc`` equals ``f``.

A region with no POIs has ``e_soc = 0``. Proportions use natural counts, so
``e_env`` always sums to 1 and ``e_soc / f`` sums to 1 when ``poi_count > 0``.
:func:`featurize_all` builds the whole table with array operations, reading the
columns of a :class:`geodata.PoiTable` directly; a POI is assigned to its cell by
the same floor as :func:`geodata.region_of`. Row i holds the cell ``cells[i]``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geodata import (GeoDataError, GridSpec, LandCoverGrid, PoiTable, csv_rows,
                      open_commented)


@dataclass(frozen=True)
class FeatureTable:
    """Region feature rows: ``matrix[i]`` is ``[e_pos | e_env | e_soc]`` of
    the cell ``cells[i]``, with ``n_env`` land-cover columns after the two
    position columns and the POI category columns after those."""

    cells: np.ndarray         # (n, 2) int64 (x, y), read-only
    matrix: np.ndarray        # (n, 2 + J + K), read-only
    poi_counts: np.ndarray    # (n,) POIs per region
    n_env: int

    def __post_init__(self) -> None:
        n = len(self.cells)
        if (self.cells.shape != (n, 2) or self.matrix.ndim != 2
                or self.matrix.shape[0] != n
                or self.matrix.shape[1] < 2 + self.n_env
                or self.poi_counts.shape != (n,)):
            raise GeoDataError(
                f"feature table shapes disagree: cells {self.cells.shape}, "
                f"matrix {self.matrix.shape}, poi counts "
                f"{self.poi_counts.shape}, {self.n_env} env columns")
        for column in (self.cells, self.matrix, self.poi_counts):
            column.setflags(write=False)

    @property
    def env(self) -> np.ndarray:
        """(n, J) land-cover proportions."""
        return self.matrix[:, 2:2 + self.n_env]

    @property
    def soc(self) -> np.ndarray:
        """(n, K) impact-weighted POI category proportions."""
        return self.matrix[:, 2 + self.n_env:]


def assign_pois(pois: PoiTable, grid: GridSpec,
                n_categories: int) -> tuple[np.ndarray, int]:
    """Bucket POIs into per-region category counts.

    Returns ``(counts, n_outside)`` where counts has shape (n_regions, K) in
    canonical region order and n_outside is the number of POIs dropped for
    falling outside the grid. counts.sum() + n_outside == len(pois). Raises
    GeoDataError on a category of K or more.
    """
    cat = pois.category
    bad = cat >= n_categories
    if np.any(bad):
        raise GeoDataError(f"POI category {cat[bad][0]} out of range "
                           f"[0, {n_categories})")
    km_lon, km_lat = grid.km_per_degree()
    with np.errstate(over="ignore"):    # an overflowed offset is outside
        x = np.floor((pois.lon - grid.origin_lon) * km_lon / grid.cell_km)
        y = np.floor((pois.lat - grid.origin_lat) * km_lat / grid.cell_km)
    inside = (x >= 0) & (x < grid.n_cols) & (y >= 0) & (y < grid.n_rows)
    index = y[inside].astype(np.int64) * grid.n_cols + x[inside].astype(np.int64)
    counts = np.bincount(index * n_categories + cat[inside],
                         minlength=grid.n_regions * n_categories)
    counts = counts.reshape(grid.n_regions, n_categories).astype(np.float64)
    return counts, len(pois) - index.size


def featurize_all(grid: GridSpec, lc: LandCoverGrid, pois: PoiTable,
                  n_categories: Optional[int] = None,
                  warn: bool = True) -> FeatureTable:
    """The feature table of every region, in canonical row-major order.

    POIs outside the grid are counted and dropped (a warning reports how many).
    K defaults to the largest POI category plus one.
    """
    if lc.grid != grid:
        raise GeoDataError("land-cover grid does not match region grid")
    if n_categories is None:
        n_categories = int(pois.category.max(initial=-1)) + 1
    counts, n_outside = assign_pois(pois, grid, n_categories)
    if n_outside and warn:
        warnings.warn(f"dropped {n_outside} POIs outside the grid", stacklevel=2)
    n, n_env, p = grid.n_regions, lc.n_classes, lc.pixels_per_cell
    blocks = lc.classes.reshape(grid.n_rows, p, grid.n_cols, p)
    keys = np.arange(n).reshape(grid.n_rows, 1, grid.n_cols, 1) * n_env + blocks
    env = np.bincount(keys.ravel(), minlength=n * n_env).reshape(n, n_env) / (p * p)

    totals = counts.sum(axis=1)
    soc = np.zeros_like(counts)
    has = np.flatnonzero(totals)
    # math.log, not np.log: the two differ in the last bit for some counts.
    f = np.array([math.log(t + 1) for t in totals[has]])
    soc[has] = f[:, None] * counts[has] / totals[has, None]

    cells = grid.cells()
    return FeatureTable(cells=cells,
                        matrix=np.hstack([cells.astype(np.float64), env, soc]),
                        poi_counts=totals.astype(np.int64),
                        n_env=n_env)


def save_features(table: FeatureTable, path: str,
                  header_comments: Sequence[str] = ()) -> None:
    """Write the features CSV: x_r,y_r,pos_*,env_*,soc_*,poi_count."""
    if not len(table.cells):
        raise GeoDataError("no features to save")
    with open_commented(path, header_comments) as fh:
        fh.write(",".join(_columns(table.n_env, table.soc.shape[1])) + "\n")
        for (x, y), row, count in zip(table.cells.tolist(), table.matrix.tolist(),
                                      table.poi_counts.tolist()):
            fh.write(",".join([str(x), str(y)] + [repr(v) for v in row]
                              + [str(count)]) + "\n")


def _columns(n_env: int, n_soc: int) -> list[str]:
    """The features CSV header."""
    return (["x_r", "y_r", "pos_0", "pos_1"] + [f"env_{j}" for j in range(n_env)]
            + [f"soc_{k}" for k in range(n_soc)] + ["poi_count"])


def load_features(path: str) -> FeatureTable:
    """Read back a features CSV written by :func:`save_features`. Raises
    GeoDataError, naming the file, on a header other than x_r,y_r,pos_0,pos_1,
    env_0..,soc_0..,poi_count, and, naming the line, on a row of the wrong
    width, a non-integer x_r, y_r or poi_count, a feature value that is
    unparsable, NaN or infinite, or a pos_0,pos_1 other than its x_r,y_r."""
    header, rows = csv_rows(path)
    n_env = sum(1 for c in header if c.startswith("env_"))
    n_soc = sum(1 for c in header if c.startswith("soc_"))
    if header != _columns(n_env, n_soc):
        raise GeoDataError(f"{path}: header must be x_r,y_r,pos_0,pos_1,"
                           f"env_0..,soc_0..,poi_count")
    width = 2 + n_env + n_soc
    cells, values, counts = [], [], []
    for lineno, parts in rows:
        where = f"{path}: line {lineno}"
        try:
            x, y, poi_count = int(parts[0]), int(parts[1]), int(parts[-1])
        except ValueError as exc:
            raise GeoDataError(f"{where}: x_r, y_r and poi_count must be "
                               f"integers ({exc})") from None
        try:
            vals = [float(v) for v in parts[2:2 + width]]
        except ValueError as exc:
            raise GeoDataError(f"{where}: unparsable feature value ({exc})") from None
        if not all(math.isfinite(v) for v in vals):
            raise GeoDataError(f"{where}: non-finite feature value")
        if vals[:2] != [x, y]:
            raise GeoDataError(f"{where}: pos_0,pos_1 differ from x_r,y_r")
        cells.append((x, y))
        values.append(vals)
        counts.append(poi_count)
    return FeatureTable(cells=np.array(cells, dtype=np.int64).reshape(-1, 2),
                        matrix=np.array(values, dtype=np.float64).reshape(
                            len(values), width),
                        poi_counts=np.array(counts, dtype=np.int64),
                        n_env=n_env)
