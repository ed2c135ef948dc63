import math
import warnings

import numpy as np
import pytest

from geohg.features import (FeatureTable, assign_pois, featurize_all,
                            load_features, save_features)
from geohg.geodata import (GeoDataError, GridSpec, LandCoverGrid, PoiTable,
                           region_of)
from geohg.hetgraph import build_graph

from _worlds import synth_raw


def make_grid(n_cols=4, n_rows=4, lon=0.0, lat=0.0, cell_km=1.0):
    return GridSpec(origin_lon=lon, origin_lat=lat, n_cols=n_cols,
                    n_rows=n_rows, cell_km=cell_km)


def make_lc(grid, classes=None, ppc=2, n_classes=11, seed=0):
    if classes is None:
        rng = np.random.default_rng(seed)
        classes = rng.integers(0, n_classes,
                               size=(grid.n_rows * ppc, grid.n_cols * ppc))
    return LandCoverGrid(grid=grid, pixels_per_cell=ppc, classes=classes,
                         n_classes=n_classes)


def poi_at(grid, region, category):
    """A (lon, lat, category) point at the region's cell center."""
    lon, lat = grid.cell_center_lonlat(region)
    return (lon, lat, category)


def poi_table(points):
    """The PoiTable of a list of (lon, lat, category) points."""
    return PoiTable(lon=[p[0] for p in points], lat=[p[1] for p in points],
                    category=[p[2] for p in points])


def points_of(pois):
    """The (lon, lat, category) points of a PoiTable."""
    return list(zip(pois.lon.tolist(), pois.lat.tolist(),
                    pois.category.tolist()))


def row(table, grid, region):
    return table.matrix[grid.region_index(region)]


def reference_features(grid, lc, pois, n_categories):
    """Per-region oracle for featurize_all: (matrix, POI counts).

    Each (lon, lat, category) point goes through region_of and each
    region's land cover through lc.region_pixels; e_soc is
    ln(total + 1) * counts / total.
    """
    counts = np.zeros((grid.n_regions, n_categories))
    for lon, lat, c in pois:
        region = region_of(lon, lat, grid)
        if region is not None:
            counts[grid.region_index(region), c] += 1
    rows, totals = [], []
    for region in map(tuple, grid.cells().tolist()):
        pixels = lc.region_pixels(region)
        env = np.bincount(pixels.ravel(), minlength=lc.n_classes) / pixels.size
        c = counts[grid.region_index(region)]
        total = int(c.sum())
        soc = (math.log(total + 1) * c / total if total
               else np.zeros(n_categories))
        rows.append(np.concatenate([np.array(region, dtype=np.float64),
                                    env, soc]))
        totals.append(total)
    return np.array(rows), np.array(totals)


def edge_pois(grid, n_categories, rng):
    """(lon, lat, category) points exactly on cell boundaries (as lon/lat
    values), on the grid's outer edges, and just outside it on every side."""
    km_lon, km_lat = grid.km_per_degree()
    pois = []
    for x in range(grid.n_cols + 1):
        for y in range(grid.n_rows + 1):
            lon = grid.origin_lon + x * grid.cell_km / km_lon
            lat = grid.origin_lat + y * grid.cell_km / km_lat
            pois.append((lon, lat, int(rng.integers(0, n_categories))))
    for dx, dy in ((-1e-9, 0.5), (0.5, -1e-9), (grid.n_cols + 1e-9, 0.5),
                   (0.5, grid.n_rows + 1e-9), (-3.0, -3.0)):
        pois.append((grid.origin_lon + dx * grid.cell_km / km_lon,
                     grid.origin_lat + dy * grid.cell_km / km_lat,
                     int(rng.integers(0, n_categories))))
    return pois


class TestComputePos:
    """The position columns of featurize_all."""

    def test_origin_region(self):
        grid = make_grid()
        table = featurize_all(grid, make_lc(grid), poi_table([]), n_categories=0)
        assert np.array_equal(row(table, grid, (0, 0))[:2], [0.0, 0.0])

    def test_identity_at_unit_scale(self):
        grid = make_grid(8, 8)
        table = featurize_all(grid, make_lc(grid), poi_table([]), n_categories=0)
        assert np.array_equal(row(table, grid, (3, 7))[:2], [3.0, 7.0])
        assert np.array_equal(table.matrix[:, :2],
                              table.cells.astype(np.float64))

    def test_matches_center_offset_arithmetic(self):
        # Oracle: floor of (cell-center km offset / cell size) recovers the
        # same grid-unit coordinates for any cell size.
        grid = make_grid(8, 8, lon=5.0, lat=45.0, cell_km=2.0)
        table = featurize_all(grid, make_lc(grid), poi_table([]), n_categories=0)
        km_lon, km_lat = grid.km_per_degree()
        for region in [(3, 7), (0, 0), (7, 3)]:
            lon, lat = grid.cell_center_lonlat(region)
            x = math.floor((lon - grid.origin_lon) * km_lon / grid.cell_km)
            y = math.floor((lat - grid.origin_lat) * km_lat / grid.cell_km)
            assert np.array_equal(row(table, grid, region)[:2],
                                  [float(x), float(y)])

    def test_invalid_region_rejected(self):
        # A table naming a region outside the grid cannot become a graph.
        grid = make_grid(4, 4)
        table = featurize_all(grid, make_lc(grid), poi_table([]), n_categories=0)
        bad = FeatureTable(cells=np.vstack([table.cells[:-1], [(4, 0)]]),
                           matrix=table.matrix, poi_counts=table.poi_counts,
                           n_env=table.n_env)
        with pytest.raises(GeoDataError, match=r"region \(4, 0\)"):
            build_graph(grid, bad, 0.6, 0.9)


class TestComputeEnv:
    """The land-cover columns of featurize_all."""

    @staticmethod
    def env(lc):
        return featurize_all(lc.grid, lc, poi_table([]), n_categories=0).env

    def test_uniform_class_is_one_hot(self):
        grid = make_grid(1, 1)
        env = self.env(make_lc(grid, classes=np.full((2, 2), 4)))
        want = np.zeros((1, 11))
        want[0, 4] = 1.0
        assert np.array_equal(env, want)

    def test_even_split_is_half_half(self):
        grid = make_grid(1, 1)
        env = self.env(make_lc(grid, classes=np.array([[0, 1], [0, 1]])))[0]
        assert env[0] == 0.5 and env[1] == 0.5
        assert env[2:].sum() == 0.0

    def test_matches_per_pixel_histogram(self):
        grid = make_grid(3, 3)
        lc = make_lc(grid, ppc=4, seed=5)
        env = self.env(lc)
        for region in map(tuple, grid.cells().tolist()):
            pixels = lc.region_pixels(region).ravel()
            want = np.array([(pixels == j).sum() for j in range(11)]) / pixels.size
            assert np.array_equal(env[grid.region_index(region)], want)

    def test_sums_to_one_everywhere(self):
        grid = make_grid(4, 4)
        env = self.env(make_lc(grid, ppc=3, seed=9))
        assert np.all(np.abs(env.sum(axis=1) - 1.0) < 1e-9)

    def test_resolution_invariance(self):
        # Doubling pixel resolution of the same class map keeps proportions.
        grid = make_grid(2, 2)
        base = np.random.default_rng(2).integers(0, 11, size=(4, 4))
        fine = np.kron(base, np.ones((2, 2), dtype=np.int64))
        assert np.array_equal(self.env(make_lc(grid, classes=base, ppc=2)),
                              self.env(make_lc(grid, classes=fine, ppc=4)))


class TestComputeSoc:
    """The POI columns and counts of featurize_all."""

    @staticmethod
    def soc(grid, pois, region, n_categories=5):
        table = featurize_all(grid, make_lc(grid), poi_table(pois),
                              n_categories=n_categories)
        i = grid.region_index(region)
        return table.soc[i], int(table.poi_counts[i])

    def test_no_pois_gives_zero_vector(self):
        grid = make_grid()
        soc, count = self.soc(grid, [poi_at(grid, (2, 2), 0)], (0, 0))
        assert count == 0
        assert np.all(soc == 0.0)

    def test_single_poi_ln2_at_its_category(self):
        grid = make_grid()
        soc, count = self.soc(grid, [poi_at(grid, (1, 1), 2)], (1, 1))
        assert count == 1
        assert soc[2] == pytest.approx(math.log(2), abs=1e-12)
        assert soc[:2].sum() == 0.0 and soc[3:].sum() == 0.0

    def test_matches_brute_force_counts(self):
        grid = make_grid()
        rng = np.random.default_rng(4)
        pois = [poi_at(grid, (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                       int(rng.integers(0, 5))) for _ in range(10)]
        km_lon, km_lat = grid.km_per_degree()
        for target in map(tuple, grid.cells().tolist()):
            soc, count = self.soc(grid, pois, target)
            inside = [c for lon, lat, c in pois
                      if math.floor((lon - grid.origin_lon) * km_lon) == target[0]
                      and math.floor((lat - grid.origin_lat) * km_lat) == target[1]]
            assert count == len(inside)
            want = np.zeros(soc.size)
            for c in inside:
                want[c] += 1
            if inside:
                want = math.log(len(inside) + 1) * want / len(inside)
            assert np.allclose(soc, want, atol=1e-15)

    def test_l1_norm_equals_impact_factor(self):
        grid = make_grid()
        pois = [poi_at(grid, (0, 0), c) for c in (0, 0, 1, 3)]
        soc, count = self.soc(grid, pois, (0, 0))
        assert count == 4
        assert abs(np.abs(soc).sum() - math.log(5)) < 1e-9

    def test_permutation_invariance(self):
        grid = make_grid()
        pois = [poi_at(grid, (1, 2), c) for c in (0, 1, 1, 2, 4)]
        order = np.random.default_rng(5).permutation(len(pois))
        a, _ = self.soc(grid, pois, (1, 2))
        b, _ = self.soc(grid, [pois[i] for i in order], (1, 2))
        assert np.array_equal(a, b)


class TestAssignPois:
    def test_conservation_count(self):
        grid = make_grid(3, 3, lon=2.0, lat=41.0, cell_km=0.5)
        pois = ([poi_at(grid, (0, 0), 0), poi_at(grid, (2, 2), 1),
                 (99.0, 99.0, 0)]
                + edge_pois(grid, 2, np.random.default_rng(1)))
        counts, n_outside = assign_pois(poi_table(pois), grid, n_categories=2)
        assert counts.sum() + n_outside == len(pois)
        assert n_outside == sum(region_of(lon, lat, grid) is None
                                for lon, lat, _ in pois)

    def test_boundary_points_follow_region_of(self):
        # Points on cell boundaries, on the outer edges and just outside:
        # the vectorised floor assigns each one exactly where region_of does.
        for grid in (make_grid(4, 3), make_grid(5, 2, lon=-73.99, lat=40.7,
                                                cell_km=0.25)):
            pois = edge_pois(grid, 3, np.random.default_rng(2))
            counts, _ = assign_pois(poi_table(pois), grid, n_categories=3)
            want = np.zeros_like(counts)
            for lon, lat, c in pois:
                region = region_of(lon, lat, grid)
                if region is not None:
                    want[grid.region_index(region), c] += 1
            assert np.array_equal(counts, want)

    def test_overflowing_offset_is_outside_in_both(self):
        # The km offset of a huge finite coordinate overflows to +-inf: both
        # region_of and the vectorised floor call the point outside, and
        # neither raises nor warns.
        grid = make_grid()
        pois = [poi_at(grid, (1, 2), 0)] + [
            (*((big, 0.5) if axis == 0 else (0.5, big)), 0)
            for big in (1e307, -1e307) for axis in (0, 1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            where = [region_of(lon, lat, grid) for lon, lat, _ in pois]
            counts, n_outside = assign_pois(poi_table(pois), grid, n_categories=1)
        assert where == [(1, 2)] + [None] * 4
        assert n_outside == 4
        assert counts[grid.region_index((1, 2)), 0] == counts.sum() == 1

    def test_category_out_of_range(self):
        grid = make_grid()
        inside = grid.cell_center_lonlat((0, 0))
        for lonlat, c in ((inside, 7), (inside, 3), ((99.0, 99.0), 3)):
            with pytest.raises(GeoDataError, match="out of range"):
                assign_pois(poi_table([(*lonlat, c)]), grid, n_categories=3)
        # A negative category cannot reach assign_pois: the table rejects it.
        for lonlat in (inside, (0.001, 0.001)):
            with pytest.raises(GeoDataError, match="non-negative"):
                assign_pois(poi_table([(*lonlat, -1)]), grid, n_categories=3)

    @pytest.mark.parametrize("lon, lat", [(math.nan, 0.5), (0.5, math.inf),
                                          (-math.inf, 0.5)])
    def test_non_finite_coordinate_rejected(self, lon, lat):
        grid = make_grid()
        pois = [poi_at(grid, (1, 1), 0), (lon, lat, 0)]
        with pytest.raises(GeoDataError, match="finite"):
            assign_pois(poi_table(pois), grid, n_categories=1)


class TestFeaturizeAll:
    def test_single_cell_composition(self):
        grid = make_grid(1, 1)
        lc = make_lc(grid, classes=np.full((2, 2), 3))
        pois = [poi_at(grid, (0, 0), 1)]
        table = featurize_all(grid, lc, poi_table(pois), n_categories=4)
        assert table.cells.tolist() == [[0, 0]] and table.n_env == 11
        want = np.zeros(2 + 11 + 4)
        want[2 + 3] = 1.0
        want[2 + 11 + 1] = math.log(2)
        assert np.array_equal(table.matrix, [want])
        assert np.array_equal(table.poi_counts, [1])

    def test_invariants_on_synthetic_grid(self):
        grid = make_grid(4, 4)
        lc = make_lc(grid, seed=3)
        rng = np.random.default_rng(6)
        pois = [poi_at(grid, (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                       int(rng.integers(0, 6))) for _ in range(40)]
        table = featurize_all(grid, lc, poi_table(pois), n_categories=6)
        assert np.array_equal(table.cells, grid.cells())
        assert np.all(np.abs(table.env.sum(axis=1) - 1.0) < 1e-9)
        for soc, count in zip(table.soc, table.poi_counts):
            if count > 0:
                assert abs(np.abs(soc).sum() - math.log(count + 1)) < 1e-9
            else:
                assert np.all(soc == 0.0)

    def test_poi_order_invariance(self):
        grid = make_grid(3, 3)
        lc = make_lc(grid, seed=8)
        rng = np.random.default_rng(12)
        pois = [poi_at(grid, (int(rng.integers(0, 3)), int(rng.integers(0, 3))),
                       int(rng.integers(0, 4))) for _ in range(25)]
        a = featurize_all(grid, lc, poi_table(pois), n_categories=4)
        b = featurize_all(grid, lc, poi_table(pois[::-1]), n_categories=4)
        assert np.array_equal(a.cells, b.cells)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.poi_counts, b.poi_counts)

    def test_outside_pois_warn_and_drop(self):
        grid = make_grid(2, 2)
        lc = make_lc(grid, seed=1)
        pois = [poi_at(grid, (0, 0), 0), (50.0, 50.0, 1)]
        with pytest.warns(UserWarning, match="dropped 1"):
            table = featurize_all(grid, lc, poi_table(pois), n_categories=2)
        assert table.poi_counts.sum() == 1

    def test_feature_matrix_shape(self):
        grid = make_grid(2, 3)
        lc = make_lc(grid, seed=2)
        table = featurize_all(grid, lc, poi_table([]), n_categories=5)
        assert table.matrix.shape == (6, 2 + 11 + 5)
        assert table.env.shape == (6, 11) and table.soc.shape == (6, 5)
        assert table.poi_counts.shape == (6,)
        assert not table.matrix.flags.writeable
        assert not table.poi_counts.flags.writeable

    @pytest.mark.parametrize("size, seed, origin", [
        ((8, 8), 0, (0.0, 0.0)), ((12, 7), 3, (0.0, 0.0)),
        ((10, 10), 5, (-73.99, 40.7))])
    def test_matches_reference_featurizer_on_synth_worlds(self, size, seed,
                                                          origin):
        cfg, lc, pois, _, _ = synth_raw(*size, seed=seed, origin_lon=origin[0],
                                        origin_lat=origin[1])
        grid = lc.grid
        points = points_of(pois) + edge_pois(grid, cfg.n_categories,
                                             np.random.default_rng(seed))
        table = featurize_all(grid, lc, poi_table(points),
                              n_categories=cfg.n_categories, warn=False)
        matrix, counts = reference_features(grid, lc, points, cfg.n_categories)
        assert np.array_equal(table.cells, grid.cells())
        assert table.matrix.tobytes() == matrix.tobytes()   # bit for bit
        assert np.array_equal(table.poi_counts, counts)

    def test_categories_default_to_largest_plus_one(self):
        grid = make_grid(2, 2)
        table = featurize_all(grid, make_lc(grid),
                              poi_table([poi_at(grid, (1, 1), 2)]))
        assert table.soc.shape == (4, 3)
        assert featurize_all(grid, make_lc(grid), poi_table([])).soc.shape == (4, 0)

    def test_landcover_of_another_grid_rejected(self):
        grid = make_grid(2, 2)
        with pytest.raises(GeoDataError, match="does not match"):
            featurize_all(grid, make_lc(make_grid(2, 3)), poi_table([]))


class TestFeaturesIo:
    def test_round_trip(self, tmp_path):
        grid = make_grid(3, 2)
        lc = make_lc(grid, seed=7)
        rng = np.random.default_rng(9)
        pois = [poi_at(grid, (int(rng.integers(0, 3)), int(rng.integers(0, 2))),
                       int(rng.integers(0, 4))) for _ in range(15)]
        table = featurize_all(grid, lc, poi_table(pois), n_categories=4)
        path = tmp_path / "features.csv"
        save_features(table, str(path), header_comments=["seed = 9"])
        again = load_features(str(path))
        assert np.array_equal(again.cells, table.cells)
        assert again.n_env == table.n_env
        assert again.matrix.tobytes() == table.matrix.tobytes()
        assert np.array_equal(again.poi_counts, table.poi_counts)
        resaved = tmp_path / "again.csv"
        save_features(again, str(resaved), header_comments=["seed = 9"])
        assert resaved.read_bytes() == path.read_bytes()

    def test_csv_bytes(self, tmp_path):
        # Two cells, three land-cover classes, two POI categories.
        grid = make_grid(2, 1)
        lc = make_lc(grid, classes=np.array([[0, 1, 2, 2], [0, 0, 2, 2]]),
                     n_classes=3)
        pois = [poi_at(grid, (0, 0), 0), poi_at(grid, (0, 0), 1)]
        path = tmp_path / "features.csv"
        save_features(featurize_all(grid, lc, poi_table(pois), n_categories=2),
                      str(path), header_comments=["k = v"])
        assert path.read_text(encoding="utf-8") == (
            "# k = v\n"
            "x_r,y_r,pos_0,pos_1,env_0,env_1,env_2,soc_0,soc_1,poi_count\n"
            "0,0,0.0,0.0,0.75,0.25,0.0,0.5493061443340549,0.5493061443340549,2\n"
            "1,0,1.0,0.0,0.0,0.0,1.0,0.0,0.0,0\n")

    @staticmethod
    def saved_rows(tmp_path):
        # Four rows written by save_features: a comment, the header, rows.
        grid = make_grid(2, 2)
        feats = featurize_all(grid, make_lc(grid, seed=3),
                              poi_table([poi_at(grid, (1, 0), 1)]),
                              n_categories=2)
        path = tmp_path / "features.csv"
        save_features(feats, str(path), header_comments=["seed = 3"])
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[1].split(",")
        return path, lines, header

    @pytest.mark.parametrize("column, value, message", [
        ("env_0", "nan", "non-finite"),
        ("soc_1", "inf", "non-finite"),
        ("pos_0", "-inf", "non-finite"),
        ("env_3", "abc", "unparsable"),
        ("x_r", "1.5", "integers"),
        ("y_r", "", "integers"),
        ("poi_count", "nan", "integers"),
        ("poi_count", "2.0", "integers"),
    ])
    def test_bad_value_rejected_with_file_and_line(self, tmp_path, column,
                                                   value, message):
        path, lines, header = self.saved_rows(tmp_path)
        row = lines[3].split(",")             # the second data row
        row[header.index(column)] = value
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(GeoDataError, match=message) as err:
            load_features(str(path))
        assert f"{path}: line 4" in str(err.value)

    @pytest.mark.parametrize("edit", [
        lambda lines: lines[:1] + lines[2:],               # no header line
        lambda lines: lines[:1] + [lines[1].replace("pos_1", "pos_9")]
        + lines[2:],
        lambda lines: lines[:1] + [lines[1].replace(",poi_count", ",count")]
        + lines[2:],
    ], ids=["no header", "pos_1 renamed", "poi_count renamed"])
    def test_bad_header_rejected_with_file(self, tmp_path, edit):
        path, lines, _ = self.saved_rows(tmp_path)
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")
        with pytest.raises(GeoDataError, match="header") as err:
            load_features(str(path))
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("header, row", [
        # soc_0's value would be read as land cover
        ("x_r,y_r,pos_0,pos_1,soc_0,env_0,env_1,poi_count",
         "0,0,0.0,0.0,0.7,0.25,0.75,1"),
        # foo's values would be read as env_1, and env_1's dropped
        ("x_r,y_r,pos_0,pos_1,env_0,foo,env_1,soc_0,poi_count",
         "0,0,0.0,0.0,0.25,9.0,0.75,0.0,0"),
    ], ids=["soc before env", "unknown middle column"])
    def test_header_must_be_exact(self, tmp_path, header, row):
        path = tmp_path / "features.csv"
        path.write_text(f"# c\n{header}\n{row}\n", encoding="utf-8")
        with pytest.raises(GeoDataError, match="header must be") as err:
            load_features(str(path))
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("pos", ["0.0,0.0", "1.0,1.0", "0.0,1.0",
                                     "1.5,0.0"])
    def test_positions_other_than_the_cell_rejected(self, tmp_path, pos):
        path, lines, _ = self.saved_rows(tmp_path)
        row = lines[3].split(",")             # the second data row: (1, 0)
        row[2:4] = pos.split(",")
        lines[3] = ",".join(row)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(GeoDataError, match="pos_0,pos_1 differ") as err:
            load_features(str(path))
        assert f"{path}: line 4" in str(err.value)
