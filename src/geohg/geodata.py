"""Raw geodata ingestion: the region grid, land-cover class grid, POI table and sparse labels.

POIs are held as one :class:`PoiTable` of lon, lat and category columns, from the
generator or :func:`load_pois` to the featurizer; labels as one :class:`LabelSet` of
cell and value columns, in file order, from the loader to the report. Every output
file starts with one ``# `` line per header comment (:func:`open_commented`).

File formats (all plain text, see README):
  * grid spec      -- ``key = value`` lines (origin_lon, origin_lat, n_cols, n_rows, cell_km);
                      an unknown or repeated key is an error
  * land cover     -- header ``LANDCOVER <pixel_rows> <pixel_cols> <n_classes>`` then one
                      whitespace-separated line of integer class codes per pixel row
  * POIs           -- CSV ``lon,lat,category`` with header; category is an integer index or a
                      name resolved through a categories manifest (one name per line)
  * labels         -- CSV ``x_r,y_r,value`` with header
  * features       -- CSV ``x_r,y_r,pos_0,pos_1,env_0..,soc_0..,poi_count`` (features module)
  * embeddings     -- CSV ``x_r,y_r,e_0..e_<d-1>`` (model module)
  * reports        -- ``key = value`` lines, each key once (evaluation module)

Loaders read through :func:`data_lines` and :func:`csv_rows`: blank and ``#`` lines are
skipped anywhere, rows must be as wide as the header, and errors name the 1-based file line.

Conventions: a region is an ``(x, y)`` integer cell, ``(0, 0)`` at the grid origin
(south-west corner), x east, y north; regions travel as (n, 2) int64 ``cells`` columns,
where a cell's first row stands for it (:func:`first_rows`, :func:`cell_rows`). Pixel row
0 of a land-cover file is the y=0 row. Points on a cell boundary go to the lower-left cell.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, TextIO

import numpy as np

# Equirectangular degree->km factors; adequate at city scale.
KM_PER_DEG_LAT = 110.574
KM_PER_DEG_LON_EQUATOR = 111.320

DEFAULT_N_LANDCOVER_CLASSES = 11

Region = tuple[int, int]


class GeoDataError(ValueError):
    """An input file or value violates the geodata contracts."""


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid of square cells anchored at (origin_lon, origin_lat)."""

    origin_lon: float
    origin_lat: float
    n_cols: int
    n_rows: int
    cell_km: float = 1.0

    def __post_init__(self) -> None:
        if self.n_cols < 1 or self.n_rows < 1:
            raise GeoDataError(f"grid must be at least 1x1, got {self.n_cols}x{self.n_rows}")
        if not (0 < self.cell_km < math.inf):
            raise GeoDataError(f"cell_km must be positive and finite, got {self.cell_km}")
        if not (math.isfinite(self.origin_lon) and math.isfinite(self.origin_lat)):
            raise GeoDataError("grid origin must be finite")

    @property
    def n_regions(self) -> int:
        return self.n_cols * self.n_rows

    def km_per_degree(self) -> tuple[float, float]:
        """(km per degree lon, km per degree lat) at the grid origin."""
        return (KM_PER_DEG_LON_EQUATOR * math.cos(math.radians(self.origin_lat)),
                KM_PER_DEG_LAT)

    def contains(self, region: Region) -> bool:
        x, y = region
        return 0 <= x < self.n_cols and 0 <= y < self.n_rows

    def region_index(self, cells: Region | np.ndarray) -> np.ndarray:
        """Canonical row-major index y * n_cols + x of one (x, y) region, or
        of each row of an (n, 2) cell array."""
        cells = np.asarray(cells)
        if not ((cells >= 0) & (cells < (self.n_cols, self.n_rows))).all():
            raise GeoDataError(f"region outside {self.n_cols}x{self.n_rows} grid")
        return cells[..., 1] * self.n_cols + cells[..., 0]

    def cells(self) -> np.ndarray:
        """Every cell as an (n, 2) int64 (x, y) column, in row-major order."""
        y, x = np.divmod(np.arange(self.n_regions, dtype=np.int64), self.n_cols)
        return np.column_stack([x, y])

    def cell_center_lonlat(self, region: Region) -> tuple[float, float]:
        if not self.contains(region):
            raise GeoDataError(f"region {region} outside {self.n_cols}x{self.n_rows} grid")
        x, y = region
        km_lon, km_lat = self.km_per_degree()
        return (self.origin_lon + (x + 0.5) * self.cell_km / km_lon,
                self.origin_lat + (y + 0.5) * self.cell_km / km_lat)


def region_of(lon: float, lat: float, grid: GridSpec) -> Optional[Region]:
    """Map a lon/lat point to its region id, or None if outside the grid.

    The offset from the origin is converted to km with the per-axis factors and floored
    by the cell size, so boundary points land in the lower-left cell. An offset that
    overflows to +-inf is outside.
    """
    if not (math.isfinite(lon) and math.isfinite(lat)):
        raise GeoDataError(f"coordinates must be finite, got ({lon}, {lat})")
    km_lon, km_lat = grid.km_per_degree()
    x = (lon - grid.origin_lon) * km_lon / grid.cell_km
    y = (lat - grid.origin_lat) * km_lat / grid.cell_km
    if 0 <= x < grid.n_cols and 0 <= y < grid.n_rows:    # floor(x) < n iff x < n
        return (math.floor(x), math.floor(y))
    return None


@dataclass(frozen=True)
class LandCoverGrid:
    """Per-pixel land-cover class codes covering the grid at a fixed resolution."""

    grid: GridSpec
    pixels_per_cell: int
    classes: np.ndarray           # (n_rows*ppc, n_cols*ppc) int codes in [0, n_classes)
    n_classes: int = DEFAULT_N_LANDCOVER_CLASSES

    def __post_init__(self) -> None:
        if self.pixels_per_cell < 1:
            raise GeoDataError(f"pixels per cell must be >= 1, got {self.pixels_per_cell}")
        expect = (self.grid.n_rows * self.pixels_per_cell,
                  self.grid.n_cols * self.pixels_per_cell)
        if self.classes.shape != expect:
            raise GeoDataError(
                f"class grid shape {self.classes.shape} does not match grid {expect}")
        if self.classes.size and (self.classes.min() < 0
                                  or self.classes.max() >= self.n_classes):
            raise GeoDataError("class code out of range")
        self.classes.setflags(write=False)

    def region_pixels(self, region: Region) -> np.ndarray:
        """View of the pixel block covering one region."""
        x, y = region
        p = self.pixels_per_cell
        return self.classes[y * p:(y + 1) * p, x * p:(x + 1) * p]


@dataclass(frozen=True, eq=False)
class PoiTable:
    """Points of interest as read-only columns: point i lies at (lon[i], lat[i])
    and has the societal category index category[i]."""

    lon: np.ndarray           # (n,) float64
    lat: np.ndarray           # (n,) float64
    category: np.ndarray      # (n,) int64, >= 0

    def __post_init__(self) -> None:
        if np.size(self.category) and np.asarray(self.category).dtype.kind not in "iu":
            raise GeoDataError("POI categories must be integers")
        for name, dtype in (("lon", float), ("lat", float), ("category", np.int64)):
            column = np.array(getattr(self, name), dtype=dtype)    # a private copy
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if self.lon.ndim != 1 or not self.lon.shape == self.lat.shape == self.category.shape:
            raise GeoDataError("POI columns must be 1-D and of one length")
        if not (np.isfinite(self.lon).all() and np.isfinite(self.lat).all()):
            raise GeoDataError("POI coordinates must be finite")
        if (self.category < 0).any():
            raise GeoDataError("POI categories must be non-negative")

    def __len__(self) -> int:
        return self.category.size


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Sparse ground-truth indicator values as read-only columns: label row i
    gives region (cells[i, 0], cells[i, 1]) the value values[i]."""

    cells: np.ndarray         # (n, 2) int64 (x, y)
    values: np.ndarray        # (n,) float64, finite

    def __post_init__(self) -> None:
        if np.size(self.cells) and np.asarray(self.cells).dtype.kind not in "iu":
            raise GeoDataError("label cells must be integers")
        for name, dtype in (("cells", np.int64), ("values", float)):
            column = np.array(getattr(self, name), dtype=dtype)    # a private copy
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if (self.cells.ndim != 2 or self.cells.shape[1] != 2
                or self.values.shape != (len(self.cells),)):
            raise GeoDataError("label cells must be (n, 2) and values (n,)")
        repeats = np.flatnonzero(first_rows(self.cells) != np.arange(len(self)))
        if repeats.size:
            region = tuple(self.cells[repeats[0]].tolist())
            raise GeoDataError(f"duplicate region {region} in label set")
        if not np.isfinite(self.values).all():
            raise GeoDataError("non-finite label value")

    def __len__(self) -> int:
        return self.values.size


def first_rows(cells: np.ndarray) -> np.ndarray:
    """Per row of an (n, 2) cell column, the first row holding the same cell:
    the row itself unless it repeats an earlier one."""
    order = np.lexsort(cells.T)        # stable: a cell's rows stay in order
    new = np.ones(len(cells), dtype=bool)
    new[1:] = (cells[order[1:]] != cells[order[:-1]]).any(axis=1)
    first = np.empty_like(order)
    first[order] = order[new][np.cumsum(new) - 1]
    return first


def cell_rows(cells: np.ndarray, queries: np.ndarray,
              missing: str = "cell {} not found") -> np.ndarray:
    """Per query cell, the first row of ``cells`` holding it. A query cell in
    no row raises GeoDataError(missing.format(cell)), naming the first one."""
    queries = np.reshape(queries, (-1, 2))
    rows = first_rows(np.concatenate([cells, queries]))[len(cells):]
    absent = np.flatnonzero(rows >= len(cells))
    if absent.size:
        raise GeoDataError(missing.format(tuple(queries[absent[0]].tolist())))
    return rows


# ---------------------------------------------------------------------------
# loaders / writers
# ---------------------------------------------------------------------------

def load_gridspec(path: str) -> GridSpec:
    values: dict[str, str] = {}
    for i, raw in data_lines(path):
        if "=" in raw:
            key, _, val = raw.partition("=")
        else:
            parts = raw.split(None, 1)
            if len(parts) != 2:
                raise GeoDataError(f"{path}: line {i}: cannot parse grid spec line {raw!r}")
            key, val = parts
        key = key.strip()
        if key not in GridSpec.__dataclass_fields__:
            raise GeoDataError(f"{path}: line {i}: unknown grid spec key {key!r}")
        if key in values:
            raise GeoDataError(f"{path}: line {i}: repeated grid spec key {key!r}")
        values[key] = val.strip()
    try:
        return GridSpec(origin_lon=float(values["origin_lon"]),
                        origin_lat=float(values["origin_lat"]),
                        n_cols=int(values["n_cols"]),
                        n_rows=int(values["n_rows"]),
                        cell_km=float(values.get("cell_km", "1.0")))
    except KeyError as exc:
        raise GeoDataError(f"{path}: missing grid spec key {exc}") from exc
    except ValueError as exc:
        raise GeoDataError(f"{path}: bad grid spec value ({exc})") from exc


def save_gridspec(grid: GridSpec, path: str,
                  header_comments: Sequence[str] = ()) -> None:
    with open_commented(path, header_comments) as fh:
        fh.write(f"origin_lon = {grid.origin_lon!r}\n")
        fh.write(f"origin_lat = {grid.origin_lat!r}\n")
        fh.write(f"n_cols = {grid.n_cols}\n")
        fh.write(f"n_rows = {grid.n_rows}\n")
        fh.write(f"cell_km = {grid.cell_km!r}\n")


def load_landcover(path: str, grid: GridSpec) -> LandCoverGrid:
    """Parse a land-cover class grid and validate it against the region grid."""
    lines = data_lines(path)
    header = next(lines, (0, ""))[1].split()
    if len(header) != 4 or header[0] != "LANDCOVER":
        raise GeoDataError(f"{path}: expected header 'LANDCOVER rows cols classes'")
    try:
        pixel_rows, pixel_cols, n_classes = (int(v) for v in header[1:])
    except ValueError as exc:
        raise GeoDataError(f"{path}: non-integer header field ({exc})") from exc
    rows = []
    for i, line in lines:
        try:
            row = np.array(line.split(), dtype=np.int64)
        except ValueError as exc:
            raise GeoDataError(f"{path}: line {i}: bad pixel row: {exc}") from exc
        if row.size != pixel_cols:
            raise GeoDataError(
                f"{path}: line {i}: pixel row has {row.size} codes, expected {pixel_cols}")
        rows.append(row)
    if len(rows) != pixel_rows:
        raise GeoDataError(f"{path}: found {len(rows)} pixel rows, header says {pixel_rows}")
    classes = np.vstack(rows) if rows else np.zeros((0, pixel_cols), dtype=np.int64)
    if classes.size and (classes.min() < 0 or classes.max() >= n_classes):
        raise GeoDataError(f"{path}: class code out of range [0, {n_classes})")
    if not pixel_rows or pixel_rows % grid.n_rows or pixel_cols % grid.n_cols:
        raise GeoDataError(
            f"{path}: pixel grid {pixel_rows}x{pixel_cols} does not tile "
            f"{grid.n_rows}x{grid.n_cols} regions")
    ppc_y = pixel_rows // grid.n_rows
    ppc_x = pixel_cols // grid.n_cols
    if ppc_y != ppc_x:
        raise GeoDataError(f"{path}: pixels per cell differ by axis ({ppc_x} vs {ppc_y})")
    return LandCoverGrid(grid=grid, pixels_per_cell=ppc_x, classes=classes,
                         n_classes=n_classes)


def save_landcover(lc: LandCoverGrid, path: str,
                   header_comments: Sequence[str] = ()) -> None:
    rows, cols = lc.classes.shape
    with open_commented(path, header_comments) as fh:
        fh.write(f"LANDCOVER {rows} {cols} {lc.n_classes}\n")
        for row in lc.classes:
            fh.write(" ".join(map(str, row.tolist())))
            fh.write("\n")


def load_categories(path: str) -> list[str]:
    """Category manifest: one name per line, the n-th name is category n."""
    names: dict[str, int] = {}      # name -> its file line
    for i, name in data_lines(path):
        if names.setdefault(name, i) != i:
            raise GeoDataError(f"{path}: line {i}: category {name!r} repeats line {names[name]}")
    return list(names)


def load_pois(path: str, categories: Optional[Sequence[str]] = None,
              n_categories: Optional[int] = None) -> PoiTable:
    """Parse a POI CSV. Categories may be integer indices or manifest names."""
    index = {name: i for i, name in enumerate(categories or ())}
    if n_categories is None and categories is not None:
        n_categories = len(categories)
    lons, lats, cats = [], [], []
    for i, parts in csv_rows(path, "lon,lat,category")[1]:
        try:
            lon, lat = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise GeoDataError(f"{path}: line {i}: non-numeric coordinate ({exc})") from exc
        if not (math.isfinite(lon) and math.isfinite(lat)):
            raise GeoDataError(f"{path}: line {i}: non-finite coordinate")
        raw_cat = parts[2].strip()
        try:
            cat = index[raw_cat] if raw_cat in index else int(raw_cat)
        except ValueError:
            raise GeoDataError(f"{path}: line {i}: unknown category {raw_cat!r}") from None
        if cat < 0 or (n_categories is not None and cat >= n_categories):
            raise GeoDataError(f"{path}: line {i}: category index {cat} out of range")
        lons.append(lon)
        lats.append(lat)
        cats.append(cat)
    return PoiTable(lon=lons, lat=lats, category=cats)


def save_pois(pois: PoiTable, path: str,
              header_comments: Sequence[str] = ()) -> None:
    with open_commented(path, header_comments) as fh:
        fh.write("lon,lat,category\n")
        for lon, lat, cat in zip(pois.lon.tolist(), pois.lat.tolist(),
                                 pois.category.tolist()):
            fh.write(f"{lon!r},{lat!r},{cat}\n")


def load_labels(path: str, grid: GridSpec) -> LabelSet:
    values: dict[Region, float] = {}      # in file order
    for i, parts in csv_rows(path, "x_r,y_r,value")[1]:
        try:
            region = (int(parts[0]), int(parts[1]))
            value = float(parts[2])
        except ValueError as exc:
            raise GeoDataError(f"{path}: line {i}: {exc}") from exc
        if not grid.contains(region):
            raise GeoDataError(f"{path}: line {i}: region {region} outside grid")
        if region in values:
            raise GeoDataError(f"{path}: line {i}: duplicate region {region}")
        if not math.isfinite(value):
            raise GeoDataError(f"{path}: line {i}: non-finite value")
        values[region] = value
    return LabelSet(cells=np.reshape(np.array(list(values), dtype=np.int64), (-1, 2)),
                    values=list(values.values()))


def save_labels(labels: LabelSet, path: str,
                header_comments: Sequence[str] = ()) -> None:
    with open_commented(path, header_comments) as fh:
        fh.write("x_r,y_r,value\n")
        for (x, y), value in zip(labels.cells.tolist(), labels.values.tolist()):
            fh.write(f"{x},{y},{value!r}\n")


@contextmanager
def open_commented(path: str, header_comments: Sequence[str] = ()) -> Iterator[TextIO]:
    """Open ``path`` for writing and write one ``# `` line per header comment."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"# {line}\n" for line in header_comments)
        yield fh


def data_lines(path: str) -> Iterator[tuple[int, str]]:
    """Yield (1-based file line, stripped text) per non-blank, non-``#`` line of ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield i, line


def csv_rows(path: str, header: Optional[str] = None
             ) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """A headed CSV as (header fields, stream of (file line, fields)): the header is the first
    data line, fields stripped, and must read ``header`` if given; each row must be as wide."""
    lines = data_lines(path)
    lineno, text = next(lines, (0, ""))
    if not text:
        raise GeoDataError(f"{path}: empty file, expected a header")
    names = [field.strip() for field in text.split(",")]
    if header is not None and names != header.split(","):
        raise GeoDataError(f"{path}: line {lineno}: expected header '{header}', got '{text}'")

    def rows() -> Iterator[tuple[int, list[str]]]:
        for i, line in lines:
            parts = line.split(",")
            if len(parts) != len(names):
                raise GeoDataError(f"{path}: line {i}: expected {len(names)} fields "
                                   f"({','.join(names)}), got {len(parts)}")
            yield i, parts
    return names, rows()
