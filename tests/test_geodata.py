import math

import numpy as np
import pytest

from geohg.geodata import (GeoDataError, GridSpec, LabelSet, LandCoverGrid,
                           PoiTable, cell_rows, first_rows, load_gridspec,
                           load_labels, load_landcover, load_pois, region_of,
                           save_gridspec, save_labels, save_landcover,
                           save_pois)


def make_grid(n_cols=4, n_rows=4, lon=116.0, lat=39.5, cell_km=1.0):
    return GridSpec(origin_lon=lon, origin_lat=lat, n_cols=n_cols,
                    n_rows=n_rows, cell_km=cell_km)


class TestGridSpec:
    def test_rejects_degenerate_dims(self):
        with pytest.raises(GeoDataError):
            GridSpec(0.0, 0.0, n_cols=0, n_rows=4)
        with pytest.raises(GeoDataError):
            GridSpec(0.0, 0.0, n_cols=4, n_rows=4, cell_km=0.0)

    def test_region_index_row_major(self):
        grid = make_grid(5, 3)
        ordered = [tuple(c) for c in grid.cells().tolist()]
        assert ordered[0] == (0, 0)
        assert ordered[1] == (1, 0)
        assert ordered[-1] == (4, 2)
        for i, region in enumerate(ordered):
            assert grid.region_index(region) == i
        assert grid.region_index(np.array(ordered[::-1])).tolist() \
            == list(range(15))[::-1]

    @pytest.mark.parametrize("region", [(5, 0), (0, 3), (-1, 0), (0, -1)])
    def test_region_index_rejects_cells_outside(self, region):
        grid = make_grid(5, 3)
        with pytest.raises(GeoDataError, match="outside 5x3 grid"):
            grid.region_index(region)
        with pytest.raises(GeoDataError, match="outside 5x3 grid"):
            grid.region_index(np.array([(0, 0), region, (1, 1)]))

    def test_cells_follow_the_row_major_loop(self):
        grid = make_grid(5, 3)
        want = [[x, y] for y in range(3) for x in range(5)]
        cells = grid.cells()
        assert cells.dtype == np.int64 and cells.shape == (15, 2)
        assert cells.tolist() == want

    def test_km_per_degree_uses_origin_latitude(self):
        grid = make_grid(lat=60.0)
        km_lon, km_lat = grid.km_per_degree()
        assert km_lat == 110.574
        assert km_lon == pytest.approx(111.320 * math.cos(math.radians(60.0)))


class TestRegionOf:
    def test_origin_maps_to_cell_zero(self):
        grid = make_grid()
        assert region_of(grid.origin_lon, grid.origin_lat, grid) == (0, 0)

    def test_floor_semantics_east_of_origin(self):
        grid = make_grid()
        km_lon, _ = grid.km_per_degree()
        lon = grid.origin_lon + 1.5 * grid.cell_km / km_lon
        assert region_of(lon, grid.origin_lat, grid) == (1, 0)

    def test_outside_grid_returns_none(self):
        grid = make_grid(2, 2)
        assert region_of(grid.origin_lon - 1.0, grid.origin_lat, grid) is None
        km_lon, km_lat = grid.km_per_degree()
        lon_far = grid.origin_lon + 5.0 * grid.cell_km / km_lon
        assert region_of(lon_far, grid.origin_lat, grid) is None

    def test_non_finite_coordinates_rejected(self):
        grid = make_grid()
        with pytest.raises(GeoDataError):
            region_of(float("nan"), 39.5, grid)

    def test_cell_center_round_trip(self):
        grid = make_grid(6, 5, lon=-3.2, lat=48.1, cell_km=2.0)
        for region in map(tuple, grid.cells().tolist()):
            lon, lat = grid.cell_center_lonlat(region)
            assert region_of(lon, lat, grid) == region

    def test_matches_brute_force_bounding_boxes(self):
        # Oracle: scan every cell's lon/lat bounding box directly.
        grid = make_grid(7, 5, lon=10.0, lat=-20.0, cell_km=1.5)
        km_lon, km_lat = grid.km_per_degree()

        def brute(lon, lat):
            for (x, y) in grid.cells().tolist():
                lon_lo = grid.origin_lon + x * grid.cell_km / km_lon
                lon_hi = grid.origin_lon + (x + 1) * grid.cell_km / km_lon
                lat_lo = grid.origin_lat + y * grid.cell_km / km_lat
                lat_hi = grid.origin_lat + (y + 1) * grid.cell_km / km_lat
                if lon_lo <= lon < lon_hi and lat_lo <= lat < lat_hi:
                    return (x, y)
            return None

        rng = np.random.default_rng(7)
        for _ in range(100):
            lon = grid.origin_lon + rng.uniform(-1, 9) * grid.cell_km / km_lon
            lat = grid.origin_lat + rng.uniform(-1, 7) * grid.cell_km / km_lat
            assert region_of(lon, lat, grid) == brute(lon, lat)


class TestLandCover:
    def test_uniform_class_zero(self, tmp_path):
        grid = make_grid(2, 2)
        path = tmp_path / "lc.txt"
        lines = ["LANDCOVER 4 4 11"] + ["0 0 0 0"] * 4
        path.write_text("\n".join(lines) + "\n")
        lc = load_landcover(str(path), grid)
        assert lc.pixels_per_cell == 2
        assert np.all(lc.classes == 0)

    def test_class_code_out_of_range(self, tmp_path):
        grid = make_grid(1, 1)
        path = tmp_path / "lc.txt"
        path.write_text("LANDCOVER 2 2 11\n0 0\n0 11\n")
        with pytest.raises(GeoDataError, match="out of range"):
            load_landcover(str(path), grid)

    def test_row_length_mismatch(self, tmp_path):
        grid = make_grid(1, 1)
        path = tmp_path / "lc.txt"
        path.write_text("LANDCOVER 2 2 11\n0 0 0\n0 0\n")
        with pytest.raises(GeoDataError, match="codes"):
            load_landcover(str(path), grid)

    @pytest.mark.parametrize("row,message", [
        ("0 x", "line 5: bad pixel row"),
        ("0 0 0", "line 5: pixel row has 3 codes, expected 2"),
    ])
    def test_errors_name_the_one_based_file_line(self, tmp_path, row,
                                                  message):
        # A comment before the header, and a comment and a blank line
        # before the bad row, all count as file lines.
        path = tmp_path / "lc.txt"
        path.write_text(f"# c\nLANDCOVER 2 2 11\n# c\n\n{row}\n0 0\n")
        with pytest.raises(GeoDataError, match=message) as err:
            load_landcover(str(path), make_grid(1, 1))
        assert str(err.value).startswith(f"{path}: line 5: ")

    def test_dimension_mismatch_with_grid(self, tmp_path):
        grid = make_grid(3, 2)
        path = tmp_path / "lc.txt"
        path.write_text("LANDCOVER 2 2 11\n0 0\n0 0\n")
        with pytest.raises(GeoDataError):
            load_landcover(str(path), grid)

    def test_zero_pixels_per_cell_rejected(self, tmp_path):
        # 0 rows of 0 pixels would divide the grid into 0 pixels per cell.
        path = tmp_path / "lc.txt"
        path.write_text("LANDCOVER 0 0 11\n")
        with pytest.raises(GeoDataError, match="does not tile") as err:
            load_landcover(str(path), make_grid(4, 4))
        assert str(err.value).startswith(f"{path}: ")
        with pytest.raises(GeoDataError, match="pixels per cell"):
            LandCoverGrid(grid=make_grid(4, 4), pixels_per_cell=0,
                          classes=np.zeros((0, 0), dtype=np.int64))

    def test_round_trip(self, tmp_path):
        grid = make_grid(3, 2)
        rng = np.random.default_rng(0)
        classes = rng.integers(0, 11, size=(2 * 4, 3 * 4))
        lc = LandCoverGrid(grid=grid, pixels_per_cell=4, classes=classes)
        path = tmp_path / "lc.txt"
        save_landcover(lc, str(path), header_comments=["seed = 0"])
        again = load_landcover(str(path), grid)
        assert again.pixels_per_cell == lc.pixels_per_cell
        assert again.n_classes == lc.n_classes
        assert np.array_equal(again.classes, lc.classes)

    def test_region_pixels_view(self):
        grid = make_grid(2, 2)
        classes = np.arange(16).reshape(4, 4) % 11
        lc = LandCoverGrid(grid=grid, pixels_per_cell=2, classes=classes)
        block = lc.region_pixels((1, 0))
        assert np.array_equal(block, classes[0:2, 2:4])


class TestPoiTable:
    def test_columns_have_fixed_dtypes_and_length(self):
        pois = PoiTable(lon=[1, 2.5], lat=np.array([3.0, 4.0], dtype=np.float32),
                        category=np.array([0, 7], dtype=np.int32))
        assert len(pois) == 2
        assert pois.lon.dtype == np.float64 and pois.lat.dtype == np.float64
        assert pois.category.dtype == np.int64
        assert pois.lon.tolist() == [1.0, 2.5]
        assert pois.category.tolist() == [0, 7]
        empty = PoiTable(lon=[], lat=[], category=[])
        assert len(empty) == 0 and empty.category.dtype == np.int64

    @pytest.mark.parametrize("lon,lat,category", [
        ([0.0, 1.0], [0.0], [0, 1]),
        ([0.0], [0.0, 1.0], [0]),
        ([0.0, 1.0], [0.0, 1.0], [0]),
        ([[0.0]], [[0.0]], [[0]])])
    def test_rejects_columns_of_unequal_length_or_not_1d(self, lon, lat,
                                                         category):
        with pytest.raises(GeoDataError, match="1-D and of one length"):
            PoiTable(lon=lon, lat=lat, category=category)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", ["lon", "lat"])
    def test_rejects_non_finite_coordinate(self, bad, column):
        cols = {"lon": [0.5, 1.5], "lat": [0.5, 1.5], "category": [0, 1]}
        cols[column] = [0.5, bad]
        with pytest.raises(GeoDataError, match="finite"):
            PoiTable(**cols)

    def test_rejects_negative_category(self):
        with pytest.raises(GeoDataError, match="non-negative"):
            PoiTable(lon=[0.0, 1.0], lat=[0.0, 1.0], category=[0, -1])

    @pytest.mark.parametrize("category", [[0.0, 1.5], [True, False], ["0", "1"]])
    def test_rejects_non_integer_category(self, category):
        # A float column would otherwise be truncated towards zero.
        with pytest.raises(GeoDataError, match="integers"):
            PoiTable(lon=[0.0, 1.0], lat=[0.0, 1.0], category=category)

    def test_columns_are_read_only_copies(self):
        lon, lat = np.array([0.5, 1.5]), np.array([2.5, 3.5])
        category = np.array([1, 2])
        pois = PoiTable(lon=lon, lat=lat, category=category)
        for name in ("lon", "lat", "category"):
            column = getattr(pois, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0
        lon[0], category[0] = 9.0, 9
        assert pois.lon[0] == 0.5 and pois.category[0] == 1
        assert lon.flags.writeable   # the caller's arrays stay writable


class TestPois:
    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "pois.csv"
        path.write_text("lon,lat,category\n")
        pois = load_pois(str(path))
        assert len(pois) == 0
        assert pois.lon.dtype == pois.lat.dtype == np.float64
        assert pois.category.dtype == np.int64

    def test_single_row_parse(self, tmp_path):
        path = tmp_path / "pois.csv"
        path.write_text("lon,lat,category\n116.3,39.9,2\n")
        pois = load_pois(str(path))
        assert pois.lon.tolist() == [116.3]
        assert pois.lat.tolist() == [39.9]
        assert pois.category.tolist() == [2]

    def test_category_names_resolved_via_manifest(self, tmp_path):
        path = tmp_path / "pois.csv"
        path.write_text("lon,lat,category\n1.0,2.0,food\n1.5,2.5,mall\n")
        pois = load_pois(str(path), categories=["food", "mall"])
        assert pois.category.tolist() == [0, 1]

    def test_unknown_category_rejected(self, tmp_path):
        path = tmp_path / "pois.csv"
        path.write_text("lon,lat,category\n1.0,2.0,park\n")
        with pytest.raises(GeoDataError, match="unknown category"):
            load_pois(str(path), categories=["food", "mall"])

    def test_non_numeric_coordinate_rejected(self, tmp_path):
        path = tmp_path / "pois.csv"
        path.write_text("lon,lat,category\nabc,2.0,0\n")
        with pytest.raises(GeoDataError, match="non-numeric"):
            load_pois(str(path))

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "pois.csv"
        path.write_text("1.0,2.0,0\n1.5,2.5,1\n")
        with pytest.raises(GeoDataError, match="expected header") as err:
            load_pois(str(path))
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("row,match", [
        ("1.0,nan,0", "line 5: non-finite coordinate"),
        ("1.0,2.0,-1", "line 5: category index -1 out of range"),
        ("1.0,2.0,6", "line 5: category index 6 out of range")])
    def test_errors_name_the_one_based_file_line(self, tmp_path, row, match):
        path = tmp_path / "pois.csv"
        path.write_text(f"# c\nlon,lat,category\n0.5,0.5,1\n\n{row}\n")
        with pytest.raises(GeoDataError, match=match) as err:
            load_pois(str(path), n_categories=6)
        assert str(path) in str(err.value)

    def test_count_and_categories_preserved_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        pois = PoiTable(lon=rng.uniform(0, 10, 1000),
                        lat=rng.uniform(0, 10, 1000),
                        category=rng.integers(0, 6, 1000))
        path = tmp_path / "pois.csv"
        save_pois(pois, str(path), header_comments=["n = 1000"])
        again = load_pois(str(path), n_categories=6)
        assert len(again) == 1000
        want = np.bincount(pois.category, minlength=6)
        got = np.bincount(again.category, minlength=6)
        assert np.array_equal(want, got)
        # bit-exact columns via the repr round-trip
        for name in ("lon", "lat", "category"):
            assert getattr(again, name).tobytes() == getattr(pois, name).tobytes()


class TestLabels:
    def test_single_entry(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("x_r,y_r,value\n0,0,5.0\n")
        labels = load_labels(str(path), make_grid(4, 4))
        assert labels.cells.tolist() == [[0, 0]]
        assert labels.values.tolist() == [5.0]
        assert labels.cells.dtype == np.int64 and labels.values.dtype == np.float64

    def test_header_only_file_is_an_empty_set(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("x_r,y_r,value\n")
        labels = load_labels(str(path), make_grid(4, 4))
        assert len(labels) == 0 and labels.cells.shape == (0, 2)

    def test_out_of_grid_region_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("x_r,y_r,value\n4,0,5.0\n")
        with pytest.raises(GeoDataError, match="outside grid"):
            load_labels(str(path), make_grid(4, 4))

    def test_duplicate_region_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("x_r,y_r,value\n1,1,2.0\n1,1,3.0\n")
        with pytest.raises(GeoDataError, match="duplicate"):
            load_labels(str(path), make_grid(4, 4))

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("x_r,y_r,value\n1,1,inf\n")
        with pytest.raises(GeoDataError, match="non-finite"):
            load_labels(str(path), make_grid(4, 4))

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("0,0,1.5\n1,0,2.5\n2,0,3.5\n")
        with pytest.raises(GeoDataError, match="expected header") as err:
            load_labels(str(path), make_grid(4, 4))
        assert str(path) in str(err.value)

    def test_errors_name_the_one_based_file_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("x_r,y_r,value\n# c\n0,0,1.0\n9,9,2.0\n")
        with pytest.raises(GeoDataError, match="line 4: region") as err:
            load_labels(str(path), make_grid(4, 4))
        assert str(path) in str(err.value)

    def test_round_trip_bit_equal(self, tmp_path):
        grid = make_grid(8, 8)
        rng = np.random.default_rng(3)
        labels = LabelSet(cells=grid.cells(),
                          values=rng.normal(size=grid.n_regions))
        path = tmp_path / "labels.csv"
        save_labels(labels, str(path), header_comments=["task = carbon"])
        again = load_labels(str(path), grid)
        assert np.array_equal(again.cells, labels.cells)
        assert again.values.tobytes() == labels.values.tobytes()

    def test_save_of_load_rewrites_the_body_byte_for_byte(self, tmp_path):
        # File order, not (y, x) order, and repr floats survive the trip.
        path, again = tmp_path / "labels.csv", tmp_path / "again.csv"
        body = "x_r,y_r,value\n3,1,0.1\n0,0,-2.5e-17\n2,3,1e+300\n1,0,7.0\n"
        path.write_text("# a comment\n" + body)
        save_labels(load_labels(str(path), make_grid(4, 4)), str(again))
        assert again.read_text() == body

    def test_labelset_rejects_duplicates(self):
        with pytest.raises(GeoDataError, match=r"duplicate region \(2, 1\)"):
            LabelSet(cells=[(0, 0), (2, 1), (1, 0), (2, 1)],
                     values=[1.0, 2.0, 3.0, 4.0])

    def test_labelset_names_the_first_repeat_in_file_order(self):
        # (1, 2) repeats on row 3 and (0, 1) on row 4; (0, 1) comes first
        # in (y, x) order, but (1, 2) repeats first in the file.
        with pytest.raises(GeoDataError, match=r"duplicate region \(1, 2\)"):
            LabelSet(cells=[(1, 2), (0, 1), (3, 3), (1, 2), (0, 1)],
                     values=[1.0, 2.0, 3.0, 4.0, 5.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_labelset_rejects_non_finite_values(self, bad):
        with pytest.raises(GeoDataError, match="non-finite"):
            LabelSet(cells=[(0, 0), (1, 0)], values=[1.0, bad])

    @pytest.mark.parametrize("cells,values", [
        ([(0, 0), (1, 0)], [1.0]),             # one value short
        ([(0, 0)], [1.0, 2.0]),                # one value too many
        ([0, 1], [1.0, 2.0]),                  # cells not (n, 2)
        ([(0, 0, 0)], [1.0]),                  # three coordinates
        ([(0, 0)], [[1.0]])])                  # values not 1-D
    def test_labelset_rejects_misshapen_columns(self, cells, values):
        with pytest.raises(GeoDataError, match=r"\(n, 2\)"):
            LabelSet(cells=cells, values=values)

    @pytest.mark.parametrize("cells", [[(0.0, 1.5)], [(True, False)]])
    def test_labelset_rejects_non_integer_cells(self, cells):
        # A float cell would otherwise be truncated towards zero.
        with pytest.raises(GeoDataError, match="integers"):
            LabelSet(cells=cells, values=[1.0])

    def test_labelset_columns_are_read_only_copies(self):
        cells = np.array([[0, 0], [3, 2]], dtype=np.int32)
        values = np.array([1.5, -2.0])
        labels = LabelSet(cells=cells, values=values)
        assert labels.cells.dtype == np.int64 and labels.values.dtype == np.float64
        cells[0, 0], values[0] = 9, 9.0
        assert labels.cells.tolist() == [[0, 0], [3, 2]]
        assert labels.values.tolist() == [1.5, -2.0]
        for column in (labels.cells, labels.values):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 0


class TestCellRows:
    @staticmethod
    def dict_first_rows(cells):
        first = {}
        return [first.setdefault(tuple(c), i)
                for i, c in enumerate(cells.tolist())]

    def test_first_rows_match_a_dict_of_first_rows(self):
        rng = np.random.default_rng(5)
        big = np.iinfo(np.int64).max      # cells that sum or pack alike
        worlds = [rng.integers(-span, span, size=(n, 2))
                  for n, span in ((0, 3), (1, 3), (40, 3), (300, 12))]
        worlds.append(np.array([(0, 1), (1, 0), (1, 1), (0, 1), (big, -big),
                                (-big, big), (big, -big), (1, 0)]))
        for cells in worlds:
            got = first_rows(cells)
            assert got.dtype == np.int64
            assert got.tolist() == self.dict_first_rows(cells)

    def test_lookup_gives_the_first_row_of_each_query(self):
        cells = np.array([(2, 0), (0, 1), (1, 1), (0, 1), (5, 5)])
        queries = np.array([(0, 1), (5, 5), (2, 0), (0, 1), (1, 1)])
        assert cell_rows(cells, queries).tolist() == [1, 4, 0, 1, 2]
        assert cell_rows(cells, (1, 1)).tolist() == [2]
        assert cell_rows(cells, np.zeros((0, 2), dtype=np.int64)).size == 0

    def test_lookup_names_the_first_missing_cell(self):
        cells = np.array([(0, 0), (1, 0), (2, 0)])
        queries = np.array([(1, 0), (0, 3), (9, 9), (0, 3)])
        with pytest.raises(GeoDataError, match=r"^cell \(0, 3\) not found$"):
            cell_rows(cells, queries)
        with pytest.raises(GeoDataError, match=r"^row for \(0, 3\)$"):
            cell_rows(cells, queries, "row for {}")
        with pytest.raises(GeoDataError, match=r"\(0, 0\)"):
            cell_rows(np.zeros((0, 2), dtype=np.int64), [(0, 0)])


class TestGridSpecIo:
    def test_round_trip_with_comments(self, tmp_path):
        grid = make_grid(9, 7, lon=-0.127, lat=51.507, cell_km=0.5)
        path = tmp_path / "grid.cfg"
        save_gridspec(grid, str(path), header_comments=["seed = 4"])
        assert load_gridspec(str(path)) == grid

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("origin_lon = 0.0\norigin_lat = 0.0\nn_cols = 2\n")
        with pytest.raises(GeoDataError, match="missing"):
            load_gridspec(str(path))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
    def test_non_positive_or_non_finite_cell_km_rejected(self, tmp_path,
                                                          value):
        path = tmp_path / "grid.cfg"
        path.write_text("origin_lon = 0.0\norigin_lat = 0.0\nn_cols = 2\n"
                        f"n_rows = 2\ncell_km = {value}\n")
        with pytest.raises(GeoDataError, match="cell_km must be positive "
                                               "and finite"):
            load_gridspec(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        # A misspelt key would otherwise leave its default in place.
        path = tmp_path / "grid.cfg"
        path.write_text("origin_lon = 0.0\norigin_lat = 0.0\nn_cols = 2\n"
                        "n_rows = 2\ncellkm = 2.5\n")
        with pytest.raises(GeoDataError, match="unknown grid spec key 'cellkm'") as err:
            load_gridspec(str(path))
        assert str(path) in str(err.value)

    def test_repeated_key_rejected(self, tmp_path):
        # A second value would otherwise override the first.
        path = tmp_path / "grid.cfg"
        path.write_text("origin_lon = 0.0\norigin_lat = 0.0\nn_cols = 2\n"
                        "n_rows = 2\nn_cols 8\n")
        with pytest.raises(GeoDataError, match="repeated grid spec key 'n_cols'") as err:
            load_gridspec(str(path))
        assert str(path) in str(err.value)

    def test_repeated_load_identical(self, tmp_path):
        grid = make_grid()
        path = tmp_path / "grid.cfg"
        save_gridspec(grid, str(path))
        assert load_gridspec(str(path)) == load_gridspec(str(path))
