import dataclasses
import math

import numpy as np
import pytest

import geohg.evaluation
import geohg.model
from geohg.evaluation import (EvalSplit, ExperimentInputs, ExperimentResult,
                              RunSettings,
                              load_report, mae, make_split, r2, rmse,
                              run_experiment, score, similarity_map,
                              write_predictions, write_report,
                              write_similarity)
from geohg.geodata import GeoDataError, GridSpec, LabelSet
from geohg.model import HgnnConfig, SslConfig, TrainConfig

from _worlds import synth_raw


def label_set(n, seed=0):
    rng = np.random.default_rng(seed)
    return LabelSet(cells=[(i % 10, i // 10) for i in range(n)],
                    values=rng.normal(size=n))


def same_split(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("masked", "train", "validation"))


def written_rows(labels, result, path):
    """The predictions file of ``result``, as (x, y, y_true, y_pred,
    is_masked) tuples in file order."""
    write_predictions(labels, result, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x_r,y_r,y_true,y_pred,is_masked"
    return [(int(x), int(y), float(t), float(p), int(m))
            for x, y, t, p, m in (line.split(",") for line in lines[1:])]


def world_inputs(n_cols=10, n_rows=10, seed=0, with_lc=True):
    cfg, lc, pois, labels, _ = synth_raw(n_cols, n_rows, seed=seed)
    return ExperimentInputs(grid=lc.grid, lc=lc if with_lc else None,
                            pois=pois, labels=labels,
                            n_categories=cfg.n_categories)


FAST = RunSettings(hgnn=HgnnConfig(n_layers=2, hidden_dim=8),
                   train=TrainConfig(max_epochs=60, patience=60),
                   ssl=SslConfig(batch_size=16, epochs=3))


class TestMakeSplit:
    def test_counts_at_three_quarters_masked(self):
        labels = label_set(100)
        split = make_split(labels, masked_ratio=0.75, seed=0)
        assert len(split.masked) == 75
        assert len(split.train) == 20
        assert len(split.validation) == 5

    def test_partition_is_disjoint_and_complete(self):
        labels = label_set(60)
        split = make_split(labels, masked_ratio=0.4, seed=1)
        groups = (set(split.masked.tolist()), set(split.train.tolist()),
                  set(split.validation.tolist()))
        assert sum(len(g) for g in groups) == 60
        assert set().union(*groups) == set(range(60))

    def test_groups_are_slices_of_one_seeded_permutation(self):
        split = make_split(label_set(40), masked_ratio=0.5, seed=3)
        perm = np.random.default_rng(3).permutation(40)
        rows = np.concatenate([split.masked, split.train, split.validation])
        assert np.array_equal(rows, perm)
        assert all(group.dtype == np.int64 for group in
                   (split.masked, split.train, split.validation))

    def test_same_seed_same_split(self):
        labels = label_set(50)
        a = make_split(labels, masked_ratio=0.5, seed=7)
        b = make_split(labels, masked_ratio=0.5, seed=7)
        assert same_split(a, b)
        c = make_split(labels, masked_ratio=0.5, seed=8)
        assert not same_split(a, c)

    def test_ratio_bounds(self):
        labels = label_set(50)
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="ratio"):
                make_split(labels, masked_ratio=bad, seed=0)

    def test_too_few_labels(self):
        with pytest.raises(ValueError, match="too few"):
            make_split(label_set(3), masked_ratio=0.5, seed=0)

    def test_overlapping_groups_rejected(self):
        for masked, train, validation in (
                ([0], [0, 1], [2]),          # masked and train share row 0
                ([0], [1], [2, 1]),          # train and validation share row 1
                ([3], [1, 2], [3]),          # masked and validation share row 3
                ([0, 0], [1], [2])):         # a row repeated within one group
            with pytest.raises(ValueError, match="overlap"):
                EvalSplit(masked=np.array(masked), train=np.array(train),
                          validation=np.array(validation))

    def test_available_concatenates_train_and_validation(self):
        labels = label_set(40)
        split = make_split(labels, masked_ratio=0.5, seed=2)
        assert np.array_equal(split.available(),
                              np.concatenate([split.train, split.validation]))


class TestMetrics:
    def test_against_direct_formulas(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            y_true = rng.normal(size=n)
            y_pred = rng.normal(size=n)
            assert mae(y_true, y_pred) == pytest.approx(
                np.mean(np.abs(y_pred - y_true)), abs=1e-12)
            assert rmse(y_true, y_pred) == pytest.approx(
                math.sqrt(np.mean((y_pred - y_true) ** 2)), abs=1e-12)
            ss_res = np.sum((y_pred - y_true) ** 2)
            ss_tot = np.sum((y_true - y_true.mean()) ** 2)
            assert r2(y_true, y_pred) == pytest.approx(
                1.0 - ss_res / ss_tot, abs=1e-12)
            assert rmse(y_true, y_pred) >= mae(y_true, y_pred)

    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert mae(y, y) == 0.0
        assert rmse(y, y) == 0.0
        assert r2(y, y) == 1.0

    def test_constant_truth_gives_nan_r2_with_warning(self):
        y_true = np.full(5, 2.0)
        y_pred = np.arange(5.0)
        with pytest.warns(UserWarning, match="constant"):
            value = r2(y_true, y_pred)
        assert math.isnan(value)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mae(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            rmse(np.zeros(0), np.zeros(0))
        with pytest.raises(ValueError):
            r2(np.zeros((2, 2)), np.zeros((2, 2)))

    def test_score_bundles_metrics_and_flag(self):
        y_true = np.array([0.0, 1.0, 4.0])
        y_pred = np.array([0.5, 1.0, 3.0])
        report = score(y_true, y_pred, runtime=1.25, notes=(("k", "v"),))
        assert report.mae == mae(y_true, y_pred)
        assert report.rmse == rmse(y_true, y_pred)
        assert report.r2 == r2(y_true, y_pred)
        assert report.n_eval == 3
        assert report.runtime == 1.25
        assert report.notes[0] == ("r2_defined", "true")
        assert ("k", "v") in report.notes

    def test_score_flags_undefined_r2(self):
        with pytest.warns(UserWarning):
            report = score(np.full(4, 1.0), np.arange(4.0), runtime=0.0)
        assert math.isnan(report.r2)
        assert ("r2_defined", "false") in report.notes


class TestSimilarityMap:
    def test_anchor_similarity_is_one(self):
        rng = np.random.default_rng(4)
        e = rng.normal(size=(10, 6))
        sims = similarity_map(e, anchor_row=3)
        assert sims[3] == 1.0
        assert sims.shape == (10,)
        assert np.all(sims <= 1.0 + 1e-12) and np.all(sims >= -1.0 - 1e-12)

    def test_orthogonal_rows(self):
        e = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0]])
        sims = similarity_map(e, anchor_row=0)
        assert np.allclose(sims, [1.0, 0.0, -1.0], atol=1e-12)

    def test_matches_cosine_formula(self):
        rng = np.random.default_rng(5)
        e = rng.normal(size=(8, 4))
        sims = similarity_map(e, anchor_row=2)
        want = e @ e[2] / (np.linalg.norm(e, axis=1) * np.linalg.norm(e[2]))
        assert np.allclose(sims, want, atol=1e-12)

    def test_zero_norm_rows_get_zero_with_warning(self):
        e = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.warns(UserWarning, match="zero-norm"):
            sims = similarity_map(e, anchor_row=0)
        assert sims[1] == 0.0

    def test_zero_norm_anchor_all_zero(self):
        e = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.warns(UserWarning, match="zero-norm"):
            sims = similarity_map(e, anchor_row=0)
        assert np.array_equal(sims, np.zeros(2))

    def test_anchor_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            similarity_map(np.ones((3, 2)), anchor_row=3)


class TestRunExperiment:
    def test_all_methods_share_report_schema(self, tmp_path):
        inputs = world_inputs(seed=6)
        for method in ("geohg", "geohg-ssl", "idw", "uk"):
            result = run_experiment(inputs, method, masked_ratio=0.5, seed=0,
                                    settings=FAST)
            assert result.method == method
            assert result.report.n_eval == len(result.split.masked)
            assert result.predictions.shape == (len(inputs.labels),)
            rows = written_rows(inputs.labels, result, tmp_path / method)
            assert len(rows) == len(inputs.labels)
            assert sum(row[4] for row in rows) == len(result.split.masked)
            assert np.isfinite(result.report.mae)
            assert np.isfinite(result.report.rmse)

    def test_prediction_rows_sorted_row_major(self, tmp_path):
        inputs = world_inputs(seed=7)
        result = run_experiment(inputs, "idw", masked_ratio=0.5, seed=1)
        order = [(y, x) for x, y, _, _, _ in
                 written_rows(inputs.labels, result, tmp_path / "p.csv")]
        assert order == sorted(order)

    def test_true_values_match_labels(self, tmp_path):
        inputs = world_inputs(seed=8)
        result = run_experiment(inputs, "idw", masked_ratio=0.5, seed=2)
        values = dict(zip(map(tuple, inputs.labels.cells.tolist()),
                          inputs.labels.values.tolist()))
        for x, y, y_true, _, _ in written_rows(inputs.labels, result,
                                               tmp_path / "p.csv"):
            assert y_true == values[(x, y)]

    def test_predictions_are_one_per_label_row(self):
        # IDW is exact at its samples, so each available row must carry
        # its own label value.
        inputs = world_inputs(seed=8)
        result = run_experiment(inputs, "idw", masked_ratio=0.5, seed=2)
        available = result.split.available()
        assert np.array_equal(result.predictions[available],
                              inputs.labels.values[available])

    def test_metrics_use_masked_regions_only(self, tmp_path):
        inputs = world_inputs(seed=9)
        result = run_experiment(inputs, "idw", masked_ratio=0.5, seed=3)
        rows = written_rows(inputs.labels, result, tmp_path / "p.csv")
        y_true = np.array([t for _, _, t, _, m in rows if m])
        y_pred = np.array([p for _, _, _, p, m in rows if m])
        assert result.report.mae == pytest.approx(mae(y_true, y_pred),
                                                  abs=1e-12)
        assert result.report.r2 == pytest.approx(r2(y_true, y_pred),
                                                 abs=1e-12)

    def test_baselines_run_without_rasters(self):
        inputs = world_inputs(seed=10, with_lc=False)
        for method in ("idw", "uk"):
            result = run_experiment(inputs, method, masked_ratio=0.5, seed=4)
            assert np.isfinite(result.report.rmse)

    def test_model_methods_need_rasters(self):
        inputs = world_inputs(seed=11, with_lc=False)
        for method in ("geohg", "geohg-ssl"):
            with pytest.raises(ValueError, match="land-cover"):
                run_experiment(inputs, method, masked_ratio=0.5, seed=5)

    def test_unknown_method_rejected(self):
        inputs = world_inputs(seed=12)
        with pytest.raises(ValueError, match="unknown method"):
            run_experiment(inputs, "krige+", masked_ratio=0.5, seed=0)

    def test_same_seed_reproduces_results_exactly(self):
        inputs = world_inputs(seed=13)
        for method in ("idw", "geohg"):
            a = run_experiment(inputs, method, masked_ratio=0.5, seed=6,
                               settings=FAST)
            b = run_experiment(inputs, method, masked_ratio=0.5, seed=6,
                               settings=FAST)
            assert a.predictions.tobytes() == b.predictions.tobytes()
            assert same_split(a.split, b.split)
            assert a.report.mae == b.report.mae
            assert a.report.r2 == b.report.r2

    def test_training_log_only_for_trained_methods(self):
        inputs = world_inputs(seed=14)
        trained = run_experiment(inputs, "geohg", masked_ratio=0.5, seed=7,
                                 settings=FAST)
        assert len(trained.log) > 0
        baseline = run_experiment(inputs, "idw", masked_ratio=0.5, seed=7)
        assert baseline.log == ()

    def test_geohg_prepares_the_graph_once(self, monkeypatch):
        inputs = world_inputs(seed=14)
        want = run_experiment(inputs, "geohg", masked_ratio=0.5, seed=7,
                              settings=FAST)
        calls = []

        def counted(*args):
            calls.append(args)
            return prepare(*args)

        prepare = geohg.model.prepare_graph
        monkeypatch.setattr(geohg.model, "prepare_graph", counted)
        monkeypatch.setattr(geohg.evaluation, "prepare_graph", counted)
        got = run_experiment(inputs, "geohg", masked_ratio=0.5, seed=7,
                             settings=FAST)
        assert len(calls) == 1
        assert got.predictions.tobytes() == want.predictions.tobytes()
        assert got.log == want.log

    @pytest.mark.parametrize("method", ["geohg", "geohg-ssl"])
    def test_label_cell_outside_the_grid_rejected(self, method):
        # (10, 0) on a 10x10 grid would alias region (0, 1) under an
        # unchecked row-major index.
        inputs = world_inputs(seed=12)
        labels = LabelSet(cells=np.vstack([inputs.labels.cells, [[10, 0]]]),
                          values=np.append(inputs.labels.values, 0.0))
        with pytest.raises(GeoDataError, match="outside 10x10 grid"):
            run_experiment(dataclasses.replace(inputs, labels=labels), method,
                           masked_ratio=0.5, seed=0, settings=FAST)

    def test_idw_tie_goes_to_the_lower_label_row(self):
        # Rows 0 and 1 are both at distance 1 from the target on row 2, and
        # k = 1. The baselines take their samples in label-file order, so
        # row 0 wins the tie, whatever order the split puts them in.
        cells = [(1, 0), (0, 1), (0, 0)] + [(x, y) for x in range(3, 9)
                                            for y in range(3, 9)]
        labels = LabelSet(cells=cells,
                          values=[10.0, 20.0] + list(range(len(cells) - 2)))
        inputs = ExperimentInputs(grid=GridSpec(0.0, 0.0, 9, 9), lc=None,
                                  pois=None, labels=labels)

        def row_1_first(split):
            available = split.available().tolist()
            return (2 in split.masked.tolist() and {0, 1} <= set(available)
                    and available.index(1) < available.index(0))

        seed = next(seed for seed in range(200)
                    if row_1_first(make_split(labels, 0.5, seed)))
        result = run_experiment(inputs, "idw", masked_ratio=0.5, seed=seed,
                                settings=RunSettings(idw_k=1))
        assert result.predictions[2] == 10.0

    def test_uk_records_fallback_count(self):
        inputs = world_inputs(seed=15)
        result = run_experiment(inputs, "uk", masked_ratio=0.5, seed=8)
        keys = dict(result.report.notes)
        assert "uk_idw_fallbacks" in keys
        assert int(keys["uk_idw_fallbacks"]) >= 0

    def test_model_beats_chance_on_learnable_world(self):
        inputs = world_inputs(12, 12, seed=16)
        settings = RunSettings(hgnn=HgnnConfig(n_layers=2, hidden_dim=16),
                               train=TrainConfig(max_epochs=300, patience=60))
        result = run_experiment(inputs, "geohg", masked_ratio=0.5, seed=9,
                                settings=settings)
        assert result.report.r2 > 0.2


class TestArtifactFiles:
    def test_prediction_file_format(self, tmp_path):
        # Label rows in file order (1, 0), (0, 1), (0, 0); written in (y, x)
        # order, with row 2 masked.
        labels = LabelSet(cells=[(1, 0), (0, 1), (0, 0)],
                          values=[2.0, 3.0, 1.0])
        result = ExperimentResult(
            method="idw", report=score(np.array([1.0, 3.0]),
                                       np.array([1.5, 3.25]), 0.0),
            predictions=np.array([2.0, 3.25, 1.5]),
            split=EvalSplit(masked=np.array([2]), train=np.array([0]),
                            validation=np.array([1])))
        path = tmp_path / "pred.csv"
        write_predictions(labels, result, str(path),
                          header_comments=["method = idw"])
        assert path.read_text() == (
            "# method = idw\n"
            "x_r,y_r,y_true,y_pred,is_masked\n"
            "0,0,1.0,1.5,1\n"
            "1,0,2.0,2.0,0\n"
            "0,1,3.0,3.25,0\n")

    def test_report_round_trip(self, tmp_path):
        report = score(np.array([0.0, 1.0, 2.0]),
                       np.array([0.25, 1.0, 1.5]), runtime=9.9)
        path = tmp_path / "report.txt"
        write_report(report, str(path), header_comments=["seed = 3"])
        text = path.read_text()
        assert "runtime" not in text  # reruns must be byte-identical
        loaded = load_report(str(path))
        assert float(loaded["mae"]) == report.mae
        assert float(loaded["rmse"]) == report.rmse
        assert float(loaded["r2"]) == report.r2
        assert int(loaded["n_eval"]) == 3
        assert loaded["r2_defined"] == "true"

    def test_rewrite_is_byte_identical(self, tmp_path):
        report = score(np.array([1.0, 4.0]), np.array([2.0, 3.5]),
                       runtime=0.123)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_report(report, str(a))
        write_report(report, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_similarity_file_format(self, tmp_path):
        path = tmp_path / "sim.csv"
        write_similarity(np.array([(0, 0), (1, 0)]), np.array([1.0, 0.5]),
                         str(path))
        assert path.read_text() == (
            "x_r,y_r,similarity\n0,0,1.0\n1,0,0.5\n")

    @pytest.mark.parametrize("n_values", [1, 3])
    def test_similarity_needs_one_value_per_cell(self, tmp_path, n_values):
        path = tmp_path / "sim.csv"
        with pytest.raises(GeoDataError, match="one cell per similarity"):
            write_similarity(np.array([(0, 0), (1, 0)]),
                             np.linspace(0.0, 1.0, n_values), str(path))
        assert not path.exists()

    def test_empty_report_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n")
        with pytest.raises(GeoDataError, match="empty"):
            load_report(str(path))

    def test_line_without_key_and_value_rejected(self, tmp_path):
        # Read as the key "garbage" with an empty value, it would pass
        # for a report field.
        path = tmp_path / "report.txt"
        path.write_text("# c\nmae = 1.0\n\ngarbage\n")
        with pytest.raises(GeoDataError, match="line 4: expected 'key = value', "
                                               "got 'garbage'") as err:
            load_report(str(path))
        assert str(err.value).startswith(f"{path}: ")
        path.write_text("mae = 1.0\n = 2.0\n")
        with pytest.raises(GeoDataError, match="line 2: expected 'key = value'"):
            load_report(str(path))

    def test_repeated_key_rejected(self, tmp_path):
        # A second value would silently replace the first.
        path = tmp_path / "report.txt"
        path.write_text("mae = 1.0\n# c\nrmse = 1.5\nmae = 2.0\n")
        with pytest.raises(GeoDataError,
                           match="line 4: repeated report key 'mae'") as err:
            load_report(str(path))
        assert str(err.value).startswith(f"{path}: ")
