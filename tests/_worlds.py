"""Shared builders for small synthetic worlds and graph manipulations."""

import numpy as np

from geohg.features import FeatureTable, featurize_all
from geohg.geodata import GridSpec
from geohg.hetgraph import EdgeFamily, HeteroGraph, build_graph
from geohg.synth import SynthConfig, generate


def synth_raw(n_cols=8, n_rows=8, seed=0, **overrides):
    """Generate a world and return (config, land cover, pois, labels, ledger)."""
    cfg = SynthConfig(n_cols=n_cols, n_rows=n_rows, pixels_per_cell=3,
                      n_patches=max(6, n_cols * n_rows // 8), seed=seed,
                      **overrides)
    lc, pois, labels, ledger = generate(cfg)
    return cfg, lc, pois, labels, ledger


def synth_world(n_cols=8, n_rows=8, seed=0, theta_env=0.6, theta_soc=0.9,
                **overrides):
    """Generate a world and return (grid, features, graph, labels, ledger)."""
    cfg, lc, pois, labels, ledger = synth_raw(n_cols, n_rows, seed,
                                              **overrides)
    feats = featurize_all(lc.grid, lc, pois, n_categories=cfg.n_categories,
                          warn=False)
    graph = build_graph(lc.grid, feats, theta_env, theta_soc)
    return lc.grid, feats, graph, labels, ledger


def table(cells, env, soc, counts=None, pos=None):
    """A FeatureTable from its column blocks; positions default to the
    cell coordinates and POI counts to zero."""
    cells = np.array(cells, dtype=np.int64).reshape(-1, 2)
    pos = cells.astype(np.float64) if pos is None else pos
    counts = np.zeros(len(cells), dtype=np.int64) if counts is None else counts
    env = np.asarray(env, dtype=np.float64)
    return FeatureTable(cells=cells,
                        matrix=np.hstack([pos, env, soc]),
                        poi_counts=np.asarray(counts, dtype=np.int64),
                        n_env=env.shape[1])


def take_rows(features: FeatureTable, rows) -> FeatureTable:
    """The table of the given rows, in that order."""
    return FeatureTable(cells=features.cells[rows],
                        matrix=features.matrix[rows],
                        poi_counts=features.poi_counts[rows],
                        n_env=features.n_env)


def hand_features(grid: GridSpec, seed=0, n_env=3, n_soc=2):
    """Random but valid feature rows for every region of a grid."""
    rng = np.random.default_rng(seed)
    counts, env, soc = [], [], []
    for _ in range(grid.n_regions):
        count = int(rng.integers(0, 12))
        soc.append(np.log(count + 1) * rng.dirichlet(np.ones(n_soc))
                   if count else np.zeros(n_soc))
        env.append(rng.dirichlet(np.ones(n_env)))
        counts.append(count)
    return table(grid.cells(), env, soc, counts)


def relabel(graph: HeteroGraph, features, perm):
    """Renumber regions by a permutation: new index i holds old region perm[i].

    Returns (relabeled graph, permuted feature table). Entity node ids are
    unchanged; region endpoints are renumbered and re-canonicalized.
    """
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)

    def renumber(family: EdgeFamily, both_regions: bool) -> EdgeFamily:
        e = family.endpoints.copy()
        e[:, 0] = inv[e[:, 0]]
        if both_regions:
            e[:, 1] = inv[e[:, 1]]
            lo = np.minimum(e[:, 0], e[:, 1])
            hi = np.maximum(e[:, 0], e[:, 1])
            e = np.stack([lo, hi], axis=1)
        return EdgeFamily(e, family.weights.copy())

    new_graph = HeteroGraph(n_regions=graph.n_regions, n_env=graph.n_env,
                            n_soc=graph.n_soc,
                            edges_rnr=renumber(graph.edges_rnr, True),
                            edges_elr=renumber(graph.edges_elr, False),
                            edges_slr=renumber(graph.edges_slr, False),
                            thresholds=graph.thresholds)
    return new_graph, take_rows(features, perm)


def parse_graph_export(text):
    """Read the text of ``save_graph``: '#' comment lines, one HETGRAPH
    header, then one RNR/ELR/SLR line per edge, the families in that order.
    Returns the five header fields as strings and, per family, the (m, 2)
    endpoints and (m,) weights as their strings."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    head = lines[0].split()
    assert head[0] == "HETGRAPH" and len(head) == 6
    names = ("RNR", "ELR", "SLR")
    edges = {name: [] for name in names}
    for line in lines[1:]:
        name, src, dst, weight = line.split()
        edges[name].append(((int(src), int(dst)), weight))
    order = [line.split()[0] for line in lines[1:]]
    assert order == sorted(order, key=names.index)
    return head[1:], {name: (np.array([e for e, _ in rows],
                                      dtype=np.int64).reshape(-1, 2),
                             [w for _, w in rows])
                      for name, rows in edges.items()}
