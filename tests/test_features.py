import math

import numpy as np
import pytest

from geohg.features import (assign_pois, compute_env, compute_pos,
                            compute_soc, feature_matrix, featurize_all,
                            load_features, save_features)
from geohg.geodata import GeoDataError, GridSpec, LandCoverGrid, PoiRecord


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
    lon, lat = grid.cell_center_lonlat(region)
    return PoiRecord(x=lon, y=lat, c=category)


class TestComputePos:
    def test_origin_region(self):
        assert np.array_equal(compute_pos((0, 0), make_grid()), [0.0, 0.0])

    def test_identity_at_unit_scale(self):
        assert np.array_equal(compute_pos((3, 7), make_grid(8, 8)), [3.0, 7.0])

    def test_matches_center_offset_arithmetic(self):
        # Oracle: floor of (cell-center km offset / cell size) recovers the
        # same grid-unit coordinates for any cell size.
        grid = make_grid(8, 8, lon=5.0, lat=45.0, cell_km=2.0)
        km_lon, km_lat = grid.km_per_degree()
        for region in [(3, 7), (0, 0), (7, 3)]:
            lon, lat = grid.cell_center_lonlat(region)
            x = math.floor((lon - grid.origin_lon) * km_lon / grid.cell_km)
            y = math.floor((lat - grid.origin_lat) * km_lat / grid.cell_km)
            assert np.array_equal(compute_pos(region, grid),
                                  [float(x), float(y)])

    def test_invalid_region_rejected(self):
        with pytest.raises(GeoDataError):
            compute_pos((4, 0), make_grid(4, 4))


class TestComputeEnv:
    def test_uniform_class_is_one_hot(self):
        grid = make_grid(1, 1)
        lc = make_lc(grid, classes=np.full((2, 2), 4))
        env = compute_env((0, 0), lc)
        want = np.zeros(11)
        want[4] = 1.0
        assert np.array_equal(env, want)

    def test_even_split_is_half_half(self):
        grid = make_grid(1, 1)
        lc = make_lc(grid, classes=np.array([[0, 1], [0, 1]]))
        env = compute_env((0, 0), lc)
        assert env[0] == 0.5 and env[1] == 0.5
        assert env[2:].sum() == 0.0

    def test_matches_per_pixel_histogram(self):
        grid = make_grid(3, 3)
        lc = make_lc(grid, ppc=4, seed=5)
        rng = np.random.default_rng(1)
        for _ in range(10):
            region = (int(rng.integers(0, 3)), int(rng.integers(0, 3)))
            env = compute_env(region, lc)
            pixels = lc.region_pixels(region).ravel()
            want = np.array([(pixels == j).sum() for j in range(11)]) / pixels.size
            assert np.allclose(env, want, atol=0)

    def test_sums_to_one_everywhere(self):
        grid = make_grid(4, 4)
        lc = make_lc(grid, ppc=3, seed=9)
        for region in grid.regions():
            assert abs(compute_env(region, lc).sum() - 1.0) < 1e-9

    def test_resolution_invariance(self):
        # Doubling pixel resolution of the same class map keeps proportions.
        grid = make_grid(2, 2)
        base = np.random.default_rng(2).integers(0, 11, size=(4, 4))
        fine = np.kron(base, np.ones((2, 2), dtype=np.int64))
        lc1 = make_lc(grid, classes=base, ppc=2)
        lc2 = make_lc(grid, classes=fine, ppc=4)
        for region in grid.regions():
            assert np.allclose(compute_env(region, lc1),
                               compute_env(region, lc2), atol=0)


class TestComputeSoc:
    def test_no_pois_gives_zero_vector(self):
        grid = make_grid()
        soc, count = compute_soc((0, 0), [poi_at(grid, (2, 2), 0)], grid)
        assert count == 0
        assert np.all(soc == 0.0)

    def test_single_poi_ln2_at_its_category(self):
        grid = make_grid()
        soc, count = compute_soc((1, 1), [poi_at(grid, (1, 1), 2)], grid)
        assert count == 1
        assert soc[2] == pytest.approx(math.log(2), abs=1e-12)
        assert soc[:2].sum() == 0.0

    def test_matches_brute_force_counts(self):
        grid = make_grid()
        rng = np.random.default_rng(4)
        pois = [poi_at(grid, (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                       int(rng.integers(0, 5))) for _ in range(10)]
        target = (2, 1)
        soc, count = compute_soc(target, pois, grid)
        km_lon, km_lat = grid.km_per_degree()
        inside = [p for p in pois
                  if math.floor((p.x - grid.origin_lon) * km_lon) == target[0]
                  and math.floor((p.y - grid.origin_lat) * km_lat) == target[1]]
        assert count == len(inside)
        if inside:
            want = np.zeros(soc.size)
            for p in inside:
                want[p.c] += 1
            want = math.log(len(inside) + 1) * want / len(inside)
            assert np.allclose(soc, want, atol=1e-15)

    def test_l1_norm_equals_impact_factor(self):
        grid = make_grid()
        pois = [poi_at(grid, (0, 0), c) for c in (0, 0, 1, 3)]
        soc, count = compute_soc((0, 0), pois, grid)
        assert count == 4
        assert abs(np.abs(soc).sum() - math.log(5)) < 1e-9

    def test_permutation_invariance(self):
        grid = make_grid()
        pois = [poi_at(grid, (1, 2), c) for c in (0, 1, 1, 2, 4)]
        a, _ = compute_soc((1, 2), pois, grid)
        b, _ = compute_soc((1, 2), list(reversed(pois)), grid)
        assert np.array_equal(a, b)


class TestAssignPois:
    def test_conservation_count(self):
        grid = make_grid(3, 3)
        pois = [poi_at(grid, (0, 0), 0), poi_at(grid, (2, 2), 1),
                PoiRecord(x=99.0, y=99.0, c=0)]
        counts, n_outside = assign_pois(pois, grid, n_categories=2)
        assert counts.sum() + n_outside == len(pois)
        assert n_outside == 1

    def test_category_out_of_range(self):
        grid = make_grid()
        with pytest.raises(GeoDataError, match="out of range"):
            assign_pois([poi_at(grid, (0, 0), 7)], grid, n_categories=3)


class TestFeaturizeAll:
    def test_single_cell_composition(self):
        grid = make_grid(1, 1)
        lc = make_lc(grid, classes=np.full((2, 2), 3))
        pois = [poi_at(grid, (0, 0), 1)]
        feats = featurize_all(grid, lc, pois, n_categories=4)
        assert len(feats) == 1
        f = feats[0]
        assert np.array_equal(f.e_pos, compute_pos((0, 0), grid))
        assert np.array_equal(f.e_env, compute_env((0, 0), lc))
        soc, count = compute_soc((0, 0), pois, grid)
        assert np.allclose(f.e_soc[:soc.size], soc, atol=0)
        assert f.poi_count == count == 1

    def test_invariants_on_synthetic_grid(self):
        grid = make_grid(4, 4)
        lc = make_lc(grid, seed=3)
        rng = np.random.default_rng(6)
        pois = [poi_at(grid, (int(rng.integers(0, 4)), int(rng.integers(0, 4))),
                       int(rng.integers(0, 6))) for _ in range(40)]
        feats = featurize_all(grid, lc, pois, n_categories=6)
        assert len(feats) == grid.n_regions
        assert [f.region for f in feats] == list(grid.regions())
        for f in feats:
            assert abs(f.e_env.sum() - 1.0) < 1e-9
            if f.poi_count > 0:
                assert abs(np.abs(f.e_soc).sum()
                           - math.log(f.poi_count + 1)) < 1e-9
            else:
                assert np.all(f.e_soc == 0.0)

    def test_poi_order_invariance(self):
        grid = make_grid(3, 3)
        lc = make_lc(grid, seed=8)
        rng = np.random.default_rng(12)
        pois = [poi_at(grid, (int(rng.integers(0, 3)), int(rng.integers(0, 3))),
                       int(rng.integers(0, 4))) for _ in range(25)]
        a = featurize_all(grid, lc, pois, n_categories=4)
        b = featurize_all(grid, lc, list(reversed(pois)), n_categories=4)
        for fa, fb in zip(a, b):
            assert fa.region == fb.region
            assert np.array_equal(fa.e_soc, fb.e_soc)
            assert fa.poi_count == fb.poi_count

    def test_outside_pois_warn_and_drop(self):
        grid = make_grid(2, 2)
        lc = make_lc(grid, seed=1)
        pois = [poi_at(grid, (0, 0), 0), PoiRecord(x=50.0, y=50.0, c=1)]
        with pytest.warns(UserWarning, match="dropped 1"):
            feats = featurize_all(grid, lc, pois, n_categories=2)
        assert sum(f.poi_count for f in feats) == 1

    def test_feature_matrix_shape(self):
        grid = make_grid(2, 3)
        lc = make_lc(grid, seed=2)
        feats = featurize_all(grid, lc, [], n_categories=5)
        mat = feature_matrix(feats)
        assert mat.shape == (6, 2 + 11 + 5)
        assert np.array_equal(mat[0], feats[0].raw())


class TestFeaturesIo:
    def test_round_trip(self, tmp_path):
        grid = make_grid(3, 2)
        lc = make_lc(grid, seed=7)
        rng = np.random.default_rng(9)
        pois = [poi_at(grid, (int(rng.integers(0, 3)), int(rng.integers(0, 2))),
                       int(rng.integers(0, 4))) for _ in range(15)]
        feats = featurize_all(grid, lc, pois, n_categories=4)
        path = tmp_path / "features.csv"
        save_features(feats, str(path), header_comments=["seed = 9"])
        again = load_features(str(path))
        assert len(again) == len(feats)
        for fa, fb in zip(feats, again):
            assert fa.region == fb.region
            assert np.array_equal(fa.e_pos, fb.e_pos)
            assert np.array_equal(fa.e_env, fb.e_env)
            assert np.array_equal(fa.e_soc, fb.e_soc)
            assert fa.poi_count == fb.poi_count

    @staticmethod
    def saved_rows(tmp_path):
        # Four rows written by save_features: a comment, the header, rows.
        grid = make_grid(2, 2)
        feats = featurize_all(grid, make_lc(grid, seed=3),
                              [poi_at(grid, (1, 0), 1)], n_categories=2)
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
