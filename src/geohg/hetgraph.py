"""Weighted heterogeneous graph over region and entity nodes.

Node ids are global and static: regions occupy [0, n_regions), environmental
entities (one per land-cover class) [n_regions, n_regions + n_env), societal
entities (one per POI category) [n_regions + n_env, n_regions + n_env + n_soc).
Entity nodes exist even when isolated.

Three undirected edge families, each stored once with src < dst:
  * RNR  region-region, cells adjacent in a 3x3 neighborhood (8-neighbor), weight 1
  * ELR  region-env entity, weight = land-cover proportion, kept when >= theta_env
  * SLR  region-soc entity, weight = impact-weighted category value, kept when >= theta_soc
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geodata import GeoDataError, GridSpec
from .features import RegionFeatures

RNR_OFFSETS = ((1, 0), (-1, 1), (0, 1), (1, 1))   # east + the three upward neighbors


@dataclass(frozen=True)
class EdgeFamily:
    """One relation's undirected edges: (m, 2) endpoint ids and (m,) weights."""

    endpoints: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.endpoints.shape != (self.weights.size, 2):
            raise GeoDataError("edge endpoints and weights disagree")
        self.endpoints.setflags(write=False)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.weights.size


def _empty_family() -> EdgeFamily:
    return EdgeFamily(np.zeros((0, 2), dtype=np.int64), np.zeros(0))


@dataclass(frozen=True)
class HeteroGraph:
    n_regions: int
    n_env: int
    n_soc: int
    edges_rnr: EdgeFamily = field(default_factory=_empty_family)
    edges_elr: EdgeFamily = field(default_factory=_empty_family)
    edges_slr: EdgeFamily = field(default_factory=_empty_family)
    thresholds: tuple[float, float] = (0.0, 0.0)

    @property
    def n_nodes(self) -> int:
        return self.n_regions + self.n_env + self.n_soc

    def validate(self, grid: GridSpec | None = None) -> None:
        """Check the structural invariants; raises GeoDataError on violation."""
        theta_env, theta_soc = self.thresholds
        for name, fam, lo, hi, theta in (
                ("RNR", self.edges_rnr, 0, self.n_regions, None),
                ("ELR", self.edges_elr, self.n_regions,
                 self.n_regions + self.n_env, theta_env),
                ("SLR", self.edges_slr, self.n_regions + self.n_env,
                 self.n_nodes, theta_soc)):
            e = fam.endpoints
            if len(fam) == 0:
                continue
            if name == "RNR":
                if e.min() < 0 or e.max() >= self.n_regions:
                    raise GeoDataError("RNR endpoint out of region range")
            else:
                src, dst = e[:, 0], e[:, 1]
                if src.min() < 0 or src.max() >= self.n_regions:
                    raise GeoDataError(f"{name} source not a region")
                if dst.min() < lo or dst.max() >= hi:
                    raise GeoDataError(f"{name} target not in entity range")
            if np.any(e[:, 0] >= e[:, 1]):
                raise GeoDataError(f"{name} edges not in canonical src < dst order")
            pairs = e[:, 0].astype(np.int64) * self.n_nodes + e[:, 1]
            if np.unique(pairs).size != pairs.size:
                raise GeoDataError(f"duplicate {name} edges")
            if theta is not None and np.any(fam.weights < theta):
                raise GeoDataError(f"{name} weight below threshold {theta}")
        if grid is not None and len(self.edges_rnr):
            e = self.edges_rnr.endpoints
            x = e % grid.n_cols
            y = e // grid.n_cols
            cheb = np.maximum(np.abs(x[:, 0] - x[:, 1]), np.abs(y[:, 0] - y[:, 1]))
            if np.any(cheb != 1):
                raise GeoDataError("RNR edge endpoints not 8-neighbors")


def build_rnr(grid: GridSpec) -> EdgeFamily:
    """One weight-1 edge per unordered pair of 8-neighboring cells."""
    cols, rows = grid.n_cols, grid.n_rows
    x, y = np.meshgrid(np.arange(cols), np.arange(rows))
    x, y = x.ravel(), y.ravel()
    srcs, dsts = [], []
    # Offsets all point to strictly larger row-major indices, so src < dst holds.
    for dx, dy in RNR_OFFSETS:
        ok = (x + dx >= 0) & (x + dx < cols) & (y + dy < rows)
        srcs.append((y[ok] * cols + x[ok]))
        dsts.append(((y[ok] + dy) * cols + (x[ok] + dx)))
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    order = np.lexsort((dst, src))
    endpoints = np.stack([src[order], dst[order]], axis=1)
    return EdgeFamily(endpoints, np.ones(len(endpoints)))


def rnr_edge_count(n_rows: int, n_cols: int) -> int:
    """Closed form for the 8-neighbor edge count of an R x C grid."""
    return 4 * n_rows * n_cols - 3 * n_rows - 3 * n_cols + 2


def _threshold_edges(values: np.ndarray, theta: float, offset: int) -> EdgeFamily:
    region, entity = np.nonzero(values >= theta)
    endpoints = np.stack([region, entity + offset], axis=1).astype(np.int64)
    return EdgeFamily(endpoints, values[region, entity].astype(np.float64))


def build_elr(features: Sequence[RegionFeatures], theta_env: float) -> EdgeFamily:
    """Region-to-env-entity edges where the land-cover proportion reaches theta_env."""
    if not 0.0 <= theta_env <= 1.0:
        raise GeoDataError(f"theta_env must be in [0, 1], got {theta_env}")
    env = np.stack([f.e_env for f in features])
    return _threshold_edges(env, theta_env, offset=len(features))


def build_slr(features: Sequence[RegionFeatures], theta_soc: float) -> EdgeFamily:
    """Region-to-soc-entity edges where the impact-weighted value reaches theta_soc."""
    if theta_soc < 0:
        raise GeoDataError(f"theta_soc must be non-negative, got {theta_soc}")
    soc = np.stack([f.e_soc for f in features])
    n_env = features[0].e_env.size
    return _threshold_edges(soc, theta_soc, offset=len(features) + n_env)


def build_graph(grid: GridSpec, features: Sequence[RegionFeatures],
                theta_env: float, theta_soc: float) -> HeteroGraph:
    if len(features) != grid.n_regions:
        raise GeoDataError(f"expected {grid.n_regions} feature rows, got {len(features)}")
    graph = HeteroGraph(n_regions=grid.n_regions,
                        n_env=features[0].e_env.size,
                        n_soc=features[0].e_soc.size,
                        edges_rnr=build_rnr(grid),
                        edges_elr=build_elr(features, theta_env),
                        edges_slr=build_slr(features, theta_soc),
                        thresholds=(theta_env, theta_soc))
    graph.validate(grid)
    return graph


def save_graph(graph: HeteroGraph, path: str,
               header_comments: Sequence[str] = ()) -> None:
    theta_env, theta_soc = graph.thresholds
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_comments:
            fh.write(f"# {line}\n")
        fh.write(f"HETGRAPH {graph.n_regions} {graph.n_env} {graph.n_soc} "
                 f"{theta_env!r} {theta_soc!r}\n")
        for name, fam in (("RNR", graph.edges_rnr), ("ELR", graph.edges_elr),
                          ("SLR", graph.edges_slr)):
            for (src, dst), w in zip(fam.endpoints, fam.weights):
                fh.write(f"{name} {src} {dst} {float(w)!r}\n")


def load_graph(path: str) -> HeteroGraph:
    header = None
    rows: dict[str, list[tuple[int, int, float]]] = {"RNR": [], "ELR": [], "SLR": []}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if header is None:
                if len(parts) != 6 or parts[0] != "HETGRAPH":
                    raise GeoDataError(f"{path}: bad header line {line!r}")
                header = parts
                continue
            if len(parts) != 4 or parts[0] not in rows:
                raise GeoDataError(f"{path}: bad edge line {line!r}")
            rows[parts[0]].append((int(parts[1]), int(parts[2]), float(parts[3])))
    if header is None:
        raise GeoDataError(f"{path}: missing HETGRAPH header")

    def family(items: list[tuple[int, int, float]]) -> EdgeFamily:
        if not items:
            return _empty_family()
        arr = np.array([(s, d) for s, d, _ in items], dtype=np.int64)
        w = np.array([w for _, _, w in items], dtype=np.float64)
        return EdgeFamily(arr, w)

    graph = HeteroGraph(n_regions=int(header[1]), n_env=int(header[2]),
                        n_soc=int(header[3]),
                        edges_rnr=family(rows["RNR"]),
                        edges_elr=family(rows["ELR"]),
                        edges_slr=family(rows["SLR"]),
                        thresholds=(float(header[4]), float(header[5])))
    graph.validate()
    return graph
