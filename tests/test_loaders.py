"""One reading rule for every text file geohg reads.

Each loader is fed a file written by its matching writer. Blank lines and
``#`` comments may sit anywhere, header fields may carry spaces, a row must
be as wide as its header, and a bad row's error names its 1-based file line.
"""

import dataclasses
import re

import numpy as np
import pytest

from geohg.evaluation import load_report, score, write_report
from geohg.features import load_features, save_features
from geohg.geodata import (GeoDataError, GridSpec, LabelSet, LandCoverGrid,
                           PoiTable, load_categories, load_gridspec,
                           load_labels, load_landcover, load_pois,
                           save_gridspec, save_labels, save_landcover,
                           save_pois)
from geohg.model import load_embeddings, write_embeddings

from _worlds import hand_features

GRID = GridSpec(0.5, 40.0, 4, 3)
NOTE = ["seed = 1"]


def write_categories(path):
    # geohg writes no category manifest, so this one is written by hand.
    path.write_text("food\nmall\npark\n", encoding="utf-8")


def write_landcover(path):
    classes = np.random.default_rng(1).integers(0, 11, size=(6, 8))
    save_landcover(LandCoverGrid(GRID, 2, classes), str(path), NOTE)


def write_pois(path):
    rng = np.random.default_rng(2)
    pois = PoiTable(lon=rng.uniform(0, 1, 9), lat=rng.uniform(40, 41, 9),
                    category=rng.integers(0, 6, 9))
    save_pois(pois, str(path), NOTE)


def write_labels(path):
    values = np.random.default_rng(3).normal(size=6)
    save_labels(LabelSet(GRID.cells()[::2], values), str(path), NOTE)


def write_emb(path):
    emb = np.random.default_rng(4).normal(size=(GRID.n_regions, 3))
    write_embeddings(GRID.cells(), emb, str(path), NOTE)


def write_rep(path):
    write_report(score(np.array([1.0, 4.0, 2.0]), np.array([2.0, 3.5, 2.5]),
                       runtime=0.5, notes=(("split", "0"),)), str(path), NOTE)


# name: (writer, loader, bad last data row from the good one, error text)
LOADERS = {
    "gridspec": (lambda p: save_gridspec(GRID, str(p), NOTE),
                 load_gridspec, lambda row: "cellkm = 1.0",
                 "unknown grid spec key 'cellkm'"),
    "landcover": (write_landcover, lambda p: load_landcover(p, GRID),
                  lambda row: row + " 0", "pixel row has 9 codes, expected 8"),
    "categories": (write_categories, load_categories, lambda row: "food",
                   "category 'food' repeats line"),
    "pois": (write_pois, lambda p: load_pois(p, n_categories=6),
             lambda row: "0.5,nan,1", "non-finite coordinate"),
    "labels": (write_labels, lambda p: load_labels(p, GRID),
               lambda row: "9,9,1.0", "region (9, 9) outside grid"),
    "features": (lambda p: save_features(hand_features(GRID, seed=5), str(p),
                                         NOTE),
                 load_features, lambda row: row.rsplit(",", 1)[0] + ",2.5",
                 "x_r, y_r and poi_count must be integers"),
    "embeddings": (write_emb, load_embeddings,
                   lambda row: "0,0," + row.split(",", 2)[2],
                   "region (0, 0) repeats line"),
    "report": (write_rep, load_report, lambda row: "garbage",
               "expected 'key = value', got 'garbage'"),
}
HEADED = ["pois", "labels", "features", "embeddings"]


def canonical(value):
    """A loaded value as nested tuples, arrays as (dtype, shape, bytes)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return canonical([getattr(value, f.name)
                          for f in dataclasses.fields(value)])
    if isinstance(value, dict):
        return canonical(sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    return value


def written(tmp_path, name):
    """The loader's written file and its lines."""
    path = tmp_path / f"{name}.txt"
    LOADERS[name][0](path)
    return path, path.read_text(encoding="utf-8").splitlines()


def data_rows(lines):
    """0-based indices of the lines that are neither blank nor '#'."""
    return [i for i, line in enumerate(lines)
            if line.strip() and not line.strip().startswith("#")]


def load(path, name):
    return LOADERS[name][1](str(path))


def rewrite(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", LOADERS)
def test_comments_and_blank_lines_anywhere_load_the_same(tmp_path, name):
    # Before the header too: land cover rejected a blank line there.
    path, lines = written(tmp_path, name)
    want = canonical(load(path, name))
    noisy = [extra for line in lines
             for extra in ("# note", "", "  # indented note", " \t", line)]
    rewrite(path, noisy + ["", "# end", ""])
    assert canonical(load(path, name)) == want


@pytest.mark.parametrize("name", LOADERS)
def test_a_bad_row_names_its_one_based_file_line(tmp_path, name):
    path, lines = written(tmp_path, name)
    lines = [extra for line in lines for extra in ("# note", "", line)]
    last = data_rows(lines)[-1]
    lines[last] = LOADERS[name][2](lines[last])
    rewrite(path, lines + ["# end"])
    match = re.escape(LOADERS[name][3])
    with pytest.raises(GeoDataError, match=match) as err:
        load(path, name)
    assert str(err.value).startswith(f"{path}: line {last + 1}: ")


@pytest.mark.parametrize("name", HEADED)
def test_spaced_header_fields_load_the_same(tmp_path, name):
    # Features and embeddings read 'x_r, y_r' as another header.
    path, lines = written(tmp_path, name)
    want = canonical(load(path, name))
    header = data_rows(lines)[0]
    lines[header] = " " + ", ".join(lines[header].split(",")) + " "
    rewrite(path, lines)
    assert canonical(load(path, name)) == want


@pytest.mark.parametrize("name", HEADED)
def test_row_width_error_has_one_wording(tmp_path, name):
    path, lines = written(tmp_path, name)
    header, *rows = data_rows(lines)
    lines[rows[1]] += ",0"
    rewrite(path, lines)
    n = lines[header].count(",") + 1
    with pytest.raises(GeoDataError) as err:
        load(path, name)
    assert str(err.value) == (f"{path}: line {rows[1] + 1}: expected {n} "
                              f"fields ({lines[header]}), got {n + 1}")


@pytest.mark.parametrize("name", HEADED)
def test_comments_only_file_is_empty(tmp_path, name):
    path = tmp_path / "comments.csv"
    rewrite(path, ["# only a comment", ""])
    with pytest.raises(GeoDataError) as err:
        load(path, name)
    assert str(err.value) == f"{path}: empty file, expected a header"


def test_header_only_files(tmp_path):
    # Labels may be an empty set; embeddings need at least one row.
    path = tmp_path / "header.csv"
    rewrite(path, ["# c", "x_r,y_r,value", ""])
    assert len(load_labels(str(path), GRID)) == 0
    rewrite(path, ["# c", "x_r,y_r,e_0,e_1", ""])
    with pytest.raises(GeoDataError, match="no embedding rows"):
        load_embeddings(str(path))
