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

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geodata import GeoDataError, GridSpec, open_commented
from .features import FeatureTable

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


def build_rnr(grid: GridSpec) -> EdgeFamily:
    """One weight-1 edge per unordered pair of 8-neighboring cells."""
    cols, rows = grid.n_cols, grid.n_rows
    x, y = grid.cells().T
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


def check_thresholds(theta_env: float = 0.0, theta_soc: float = 0.0) -> None:
    """Raise GeoDataError unless theta_env is in [0, 1] and theta_soc is
    finite and non-negative."""
    if not 0.0 <= theta_env <= 1.0:
        raise GeoDataError(f"theta_env must be in [0, 1], got {theta_env}")
    if not (math.isfinite(theta_soc) and theta_soc >= 0):
        raise GeoDataError(f"theta_soc must be finite and non-negative, "
                           f"got {theta_soc}")


def build_elr(features: FeatureTable, theta_env: float) -> EdgeFamily:
    """Region-to-env-entity edges where the land-cover proportion reaches theta_env."""
    check_thresholds(theta_env=theta_env)
    return _threshold_edges(features.env, theta_env,
                            offset=len(features.cells))


def build_slr(features: FeatureTable, theta_soc: float) -> EdgeFamily:
    """Region-to-soc-entity edges where the impact-weighted value reaches theta_soc."""
    check_thresholds(theta_soc=theta_soc)
    return _threshold_edges(features.soc, theta_soc,
                            offset=len(features.cells) + features.n_env)


def build_graph(grid: GridSpec, features: FeatureTable,
                theta_env: float, theta_soc: float) -> HeteroGraph:
    """The graph of a grid whose feature row i is its i-th region in
    row-major order, the node id RNR uses; raises GeoDataError otherwise."""
    if len(features.cells) != grid.n_regions:
        raise GeoDataError(f"expected {grid.n_regions} feature rows, "
                           f"got {len(features.cells)}")
    wrong = np.flatnonzero((features.cells != grid.cells()).any(axis=1))
    if wrong.size:
        raise GeoDataError(f"feature row {wrong[0]} is region "
                           f"{tuple(features.cells[wrong[0]].tolist())}: rows "
                           f"must follow the grid's row-major order")
    return HeteroGraph(n_regions=grid.n_regions,
                       n_env=features.n_env,
                       n_soc=features.soc.shape[1],
                       edges_rnr=build_rnr(grid),
                       edges_elr=build_elr(features, theta_env),
                       edges_slr=build_slr(features, theta_soc),
                       thresholds=(theta_env, theta_soc))


def save_graph(graph: HeteroGraph, path: str,
               header_comments: Sequence[str] = ()) -> None:
    """Export the graph as text: ``# `` comment lines, a ``HETGRAPH n_regions
    n_env n_soc theta_env theta_soc`` header, then one ``RNR``/``ELR``/``SLR
    src dst weight`` line per edge. Nothing reads the file back; every
    command rebuilds the graph from features."""
    theta_env, theta_soc = graph.thresholds
    with open_commented(path, header_comments) as fh:
        fh.write(f"HETGRAPH {graph.n_regions} {graph.n_env} {graph.n_soc} "
                 f"{theta_env!r} {theta_soc!r}\n")
        for name, fam in (("RNR", graph.edges_rnr), ("ELR", graph.edges_elr),
                          ("SLR", graph.edges_slr)):
            for (src, dst), w in zip(fam.endpoints, fam.weights):
                fh.write(f"{name} {src} {dst} {float(w)!r}\n")
