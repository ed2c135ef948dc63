import math

import numpy as np
import pytest

from geohg.features import featurize_all
from geohg.geodata import GeoDataError, GridSpec, LandCoverGrid, PoiTable
from geohg.hetgraph import (build_elr, build_graph, build_rnr, build_slr,
                            rnr_edge_count, save_graph)

from _worlds import parse_graph_export, table, take_rows


def make_grid(n_cols, n_rows):
    return GridSpec(origin_lon=0.0, origin_lat=0.0, n_cols=n_cols,
                    n_rows=n_rows)


def random_features(n_regions, n_env=5, n_soc=4, seed=0, n_cols=None):
    """Feature rows with uniform-random env proportions and soc values."""
    rng = np.random.default_rng(seed)
    cols = n_cols if n_cols is not None else n_regions
    env, soc, counts = [], [], []
    for i in range(n_regions):
        env.append(rng.dirichlet(np.ones(n_env)))
        count = int(rng.integers(0, 20))
        if count:
            soc.append(math.log(count + 1) * rng.dirichlet(np.ones(n_soc)))
        else:
            soc.append(np.zeros(n_soc))
        counts.append(count)
    return table([(i % cols, i // cols) for i in range(n_regions)], env, soc,
                 counts)


def edge_set(family):
    return {(int(s), int(d)) for s, d in family.endpoints}


def assert_invariants(graph, grid):
    """The rules build_graph keeps by construction: each family's endpoints
    in their node ranges, src < dst, each pair once, ELR and SLR weights at
    or above their threshold, and RNR weight 1 between 8-neighbours only."""
    theta_env, theta_soc = graph.thresholds
    env, soc = graph.n_regions, graph.n_regions + graph.n_env
    for fam, lo, hi, theta in (
            (graph.edges_rnr, 0, graph.n_regions, None),
            (graph.edges_elr, env, soc, theta_env),
            (graph.edges_slr, soc, graph.n_nodes, theta_soc)):
        src, dst = fam.endpoints.T
        assert np.all((src >= 0) & (src < graph.n_regions))
        assert np.all((dst >= lo) & (dst < hi))
        assert np.all(src < dst)
        assert len(edge_set(fam)) == len(fam)
        if theta is not None:
            assert np.all(fam.weights >= theta)
    assert np.all(graph.edges_rnr.weights == 1.0)
    y, x = np.divmod(graph.edges_rnr.endpoints, grid.n_cols)
    assert np.all(np.maximum(abs(x[:, 0] - x[:, 1]),
                             abs(y[:, 0] - y[:, 1])) == 1)
    assert len(graph.edges_rnr) == rnr_edge_count(grid.n_rows, grid.n_cols)


class TestBuildRnr:
    def test_single_cell_has_no_edges(self):
        assert len(build_rnr(make_grid(1, 1))) == 0

    def test_two_by_two_has_six_edges(self):
        fam = build_rnr(make_grid(2, 2))
        assert len(fam) == 6
        assert edge_set(fam) == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
        assert np.all(fam.weights == 1.0)

    def test_five_by_five_matches_brute_force(self):
        grid = make_grid(5, 5)
        fam = build_rnr(grid)
        # Oracle: all-pairs Chebyshev distance 1 scan.
        want = set()
        for a in range(25):
            for b in range(a + 1, 25):
                ax, ay = a % 5, a // 5
                bx, by = b % 5, b // 5
                if max(abs(ax - bx), abs(ay - by)) == 1:
                    want.add((a, b))
        assert edge_set(fam) == want
        assert len(want) == 72

    def test_closed_form_on_random_grids(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            fam = build_rnr(make_grid(cols, rows))
            assert len(fam) == rnr_edge_count(rows, cols)

    def test_canonical_order_no_duplicates(self):
        fam = build_rnr(make_grid(4, 3))
        e = fam.endpoints
        assert np.all(e[:, 0] < e[:, 1])
        keys = e[:, 0] * 12 + e[:, 1]
        assert np.unique(keys).size == keys.size


class TestBuildElr:
    def test_zero_threshold_connects_all_positive(self):
        feats = random_features(3, n_env=4, seed=1)
        fam = build_elr(feats, 0.0)
        positive = int((feats.env > 0).sum())
        assert len(fam) == positive == 12  # dirichlet rows are all-positive

    def test_impossible_threshold_gives_no_edges(self):
        feats = random_features(3, seed=2)
        with pytest.raises(GeoDataError):
            build_elr(feats, 1.01)
        assert len(build_elr(feats, 1.0)) == 0

    def test_matches_brute_force_filter(self):
        feats = random_features(8, n_env=6, seed=3)
        theta = 0.6
        fam = build_elr(feats, theta)
        want = {(i, 8 + j): feats.env[i, j]
                for i in range(8) for j in range(6)
                if feats.env[i, j] >= theta}
        assert edge_set(fam) == set(want)
        for (s, d), w in zip(fam.endpoints, fam.weights):
            assert w == want[(int(s), int(d))]


class TestBuildSlr:
    def test_zero_poi_region_contributes_nothing(self):
        feats = table([(0, 0)], [np.ones(3) / 3], [np.zeros(4)])
        assert len(build_slr(feats, 0.1)) == 0

    def test_single_poi_below_point_nine(self):
        soc = np.zeros(4)
        soc[1] = math.log(2)  # one POI: 0.693 < 0.9
        feats = table([(0, 0)], [np.ones(3) / 3], [soc], [1])
        assert len(build_slr(feats, 0.9)) == 0
        assert len(build_slr(feats, 0.5)) == 1

    def test_edge_count_weakly_decreasing_in_threshold(self):
        feats = random_features(20, seed=4)
        counts = [len(build_slr(feats, t)) for t in (0.3, 0.6, 0.9, 1.2, 1.5)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_non_finite_threshold_rejected(self):
        # NaN compares false with everything, so it would build no edge at
        # all; inf too, and save_graph would export a threshold of inf.
        feats = random_features(20, seed=4)
        for theta in (math.nan, math.inf, -0.1):
            with pytest.raises(GeoDataError, match="theta_soc"):
                build_slr(feats, theta)


class TestBuildGraph:
    def grid_world(self, n_cols=4, n_rows=4, seed=0):
        grid = make_grid(n_cols, n_rows)
        rng = np.random.default_rng(seed)
        classes = rng.integers(0, 11, size=(n_rows * 3, n_cols * 3))
        lc = LandCoverGrid(grid=grid, pixels_per_cell=3, classes=classes)
        km_lon, km_lat = grid.km_per_degree()
        lons, lats, cats = [], [], []
        for _ in range(60):
            lons.append(grid.origin_lon + rng.uniform(0, n_cols) / km_lon)
            lats.append(grid.origin_lat + rng.uniform(0, n_rows) / km_lat)
            cats.append(int(rng.integers(0, 6)))
        feats = featurize_all(grid, lc, PoiTable(lon=lons, lat=lats, category=cats),
                              n_categories=6)
        return grid, feats

    def test_rows_out_of_row_major_order_rejected(self):
        # RNR node ids are row-major grid indices and ELR/SLR node ids are
        # feature rows, so the two must be the same order.
        grid, feats = self.grid_world(3, 2)
        for rows in (np.arange(6)[::-1], np.zeros(6, dtype=np.int64),
                     np.array([1, 0, 2, 3, 4, 5])):
            with pytest.raises(GeoDataError, match="row-major"):
                build_graph(grid, take_rows(feats, rows), 0.6, 0.9)
        with pytest.raises(GeoDataError, match="expected 6 feature rows"):
            build_graph(grid, take_rows(feats, np.arange(5)), 0.6, 0.9)

    def test_max_thresholds_leave_only_rnr(self):
        grid, feats = self.grid_world(2, 2)
        graph = build_graph(grid, feats, theta_env=1.0, theta_soc=99.0)
        assert len(graph.edges_rnr) == 6
        assert len(graph.edges_elr) == 0
        assert len(graph.edges_slr) == 0

    def test_default_thresholds_pass_invariants(self):
        grid, feats = self.grid_world()
        graph = build_graph(grid, feats, theta_env=0.6, theta_soc=0.9)
        assert_invariants(graph, grid)
        assert graph.n_regions == 16 and graph.n_env == 11 and graph.n_soc == 6
        assert graph.n_nodes == 16 + 11 + 6

    @pytest.mark.parametrize("n_cols,n_rows,seed", [(4, 4, 0), (7, 5, 3)])
    def test_invariants_hold_over_a_threshold_ladder(self, n_cols, n_rows,
                                                     seed):
        grid, feats = self.grid_world(n_cols, n_rows, seed)
        for theta_env, theta_soc in ((0.0, 0.0), (0.1, 0.3), (0.2, 0.6),
                                     (0.4, 0.9), (0.6, 1.2), (1.0, 99.0)):
            assert_invariants(build_graph(grid, feats, theta_env, theta_soc),
                              grid)

    def test_raising_thresholds_never_adds_edges(self):
        grid, feats = self.grid_world(seed=5)
        lo = build_graph(grid, feats, theta_env=0.2, theta_soc=0.3)
        hi = build_graph(grid, feats, theta_env=0.4, theta_soc=0.9)
        assert edge_set(hi.edges_elr) <= edge_set(lo.edges_elr)
        assert edge_set(hi.edges_slr) <= edge_set(lo.edges_slr)

    def test_entity_degree_bounded_and_pairs_unique(self):
        grid, feats = self.grid_world(seed=6)
        graph = build_graph(grid, feats, theta_env=0.1, theta_soc=0.1)
        for fam in (graph.edges_elr, graph.edges_slr):
            if not len(fam):
                continue
            _, counts = np.unique(fam.endpoints[:, 1], return_counts=True)
            assert counts.max() <= graph.n_regions

    def test_shared_entity_gives_distance_two_paths(self):
        # Two regions joined to one entity node are exactly 2 hops apart
        # through it, the high-order channel realized as a hub node.
        grid, feats = self.grid_world(seed=7)
        graph = build_graph(grid, feats, theta_env=0.2, theta_soc=0.2)
        adjacency = {}
        for fam in (graph.edges_elr, graph.edges_slr):
            for s, d in fam.endpoints:
                adjacency.setdefault(int(d), []).append(int(s))
        hubs = [(e, members) for e, members in adjacency.items()
                if len(members) >= 2]
        assert hubs, "expected at least one shared entity node"
        entity, members = hubs[0]
        assert members[0] != members[1]


class TestGraphIo:
    def test_round_trip(self, tmp_path):
        # The export is parsed here; nothing in geohg reads it back.
        grid = make_grid(3, 3)
        feats = random_features(9, seed=8, n_cols=3)
        graph = build_graph(grid, feats, theta_env=0.3, theta_soc=0.4)
        path = tmp_path / "graph.txt"
        save_graph(graph, str(path), header_comments=["theta_env = 0.3"])
        text = path.read_text()
        assert text.startswith("# theta_env = 0.3\n")
        head, edges = parse_graph_export(text)
        assert head == ["9", str(graph.n_env), str(graph.n_soc), "0.3", "0.4"]
        for name, fam in (("RNR", graph.edges_rnr), ("ELR", graph.edges_elr),
                          ("SLR", graph.edges_slr)):
            endpoints, weights = edges[name]
            assert np.array_equal(endpoints, fam.endpoints)
            assert np.array_equal(np.array(weights, dtype=np.float64),
                                  fam.weights)

    @pytest.mark.parametrize("n_cols,n_rows", [(1, 1), (7, 1), (5, 4)])
    def test_rnr_lines_are_the_unit_lattice(self, tmp_path, n_cols, n_rows):
        grid = make_grid(n_cols, n_rows)
        feats = random_features(grid.n_regions, seed=9, n_cols=n_cols)
        path = tmp_path / "graph.txt"
        save_graph(build_graph(grid, feats, 0.3, 0.4), str(path))
        _, edges = parse_graph_export(path.read_text())
        _, weights = edges["RNR"]
        assert len(weights) == rnr_edge_count(n_rows, n_cols)
        assert set(weights) <= {"1.0"}
