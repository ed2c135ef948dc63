"""Tests of the benchmark's own checks and references.

Run from the repository root: python3 -m pytest bench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402

XY = np.array([[0, 0], [3, 0], [0, 5]])
VALUES = np.array([1.0, 4.0, 10.0])


# -- references on hand-computed cases ---------------------------------------

def test_idw_matches_hand_values_without_ties():
    pred, tie = checks.reference_idw(XY, VALUES, np.array([[1, 0]]), k=2)
    # distances 1 and 2: weights 1 and 1/4
    assert pred[0] == pytest.approx((1.0 * 1 + 4.0 / 4) / (1 + 1 / 4))
    assert not tie[0]
    pred, _ = checks.reference_idw(XY, VALUES, np.array([[1, 0]]), k=3)
    w = np.array([1.0, 1 / 4, 1 / 26])
    assert pred[0] == pytest.approx((w * VALUES).sum() / w.sum())


def test_idw_is_exact_at_a_sample():
    pred, _ = checks.reference_idw(XY, VALUES, np.array([[3, 0]]), k=2)
    assert pred[0] == 4.0


def test_tie_at_the_kth_slot_is_flagged_and_broken_by_index():
    xy = np.array([[2, 0], [0, 0]])
    idx, dist, tie = checks.strict_neighbours(xy, np.array([[1, 0]]), k=1)
    assert tie[0] and idx[0, 0] == 0 and dist[0, 0] == 1.0


VARIOGRAM = (0.1, 1.0, 6.0)


def test_uk_reproduces_a_linear_field():
    xy = np.array([[0, 0], [4, 1], [1, 3], [5, 5], [2, 6], [6, 2]])
    values = 2.0 + 3.0 * xy[:, 0] - xy[:, 1]
    pred, _ = checks.reference_uk(xy, values, np.array([[3, 3]]),
                                  VARIOGRAM, k=6)
    assert pred[0] == pytest.approx(2.0 + 9.0 - 3.0)


def test_uk_at_the_centre_of_a_square_is_the_mean():
    xy = np.array([[0, 0], [2, 0], [0, 2], [2, 2]])
    values = np.array([1.0, 2.0, 4.0, 8.0])
    pred, _ = checks.reference_uk(xy, values, np.array([[1, 1]]),
                                  VARIOGRAM, k=4)
    assert pred[0] == pytest.approx(3.75)


def test_uk_is_exact_at_a_sample():
    xy = np.array([[0, 0], [2, 0], [0, 2], [2, 2], [5, 1]])
    values = np.array([1.0, 2.0, 4.0, 8.0, -3.0])
    pred, _ = checks.reference_uk(xy, values, np.array([[2, 0]]),
                                  VARIOGRAM, k=5)
    assert pred[0] == pytest.approx(2.0, abs=1e-12)


# -- checks on real program output, then on corrupted copies -----------------

@pytest.fixture(scope="module")
def baseline_run(tmp_path_factory):
    from geohg.cli import dispatch
    out = tmp_path_factory.mktemp("run")
    assert dispatch(["--out-dir", str(out), "synth", "--n-cols", "16",
                     "--n-rows", "16", "--seed", "3"]) == 0
    for method in ("idw", "uk"):
        assert dispatch(["--out-dir", str(out), "baseline", "--method",
                         method, "--grid", str(out / "grid.cfg"),
                         "--labels", str(out / "labels.csv"),
                         "--seed", "1"]) == 0
    return out


def _load(out, method):
    labels = checks.read_labels(str(out / "labels.csv"))
    pred = checks.read_predictions(str(out / f"predictions_{method}.csv"))
    report = checks.read_report(str(out / f"report_{method}.txt"))
    return labels, pred, report


def _with(pred, **changes):
    fields = dict(regions=pred.regions, y_true=pred.y_true.copy(),
                  y_pred=pred.y_pred.copy(), masked=pred.masked.copy())
    fields.update(changes)
    return checks.Predictions(**fields)


@pytest.mark.parametrize("method", ["idw", "uk"])
def test_program_output_passes(baseline_run, method):
    labels, pred, report = _load(baseline_run, method)
    assert checks.check_table(pred, labels, 0.75) == []
    assert checks.check_report(report, pred) == []
    assert checks.check_exact_at_samples(pred) == []
    split = checks.split_of(labels, pred)
    if method == "idw":
        ref, tie = checks.reference_idw(split.sample_xy, split.sample_values,
                                        split.target_xy)
    else:
        from geohg.baselines import fit_variogram
        model = fit_variogram([((int(x), int(y)), v) for (x, y), v
                               in zip(split.sample_xy, split.sample_values)])
        ref, tie = checks.reference_uk(
            split.sample_xy, split.sample_values, split.target_xy,
            (model.nugget, model.sill, model.effective_range))
    fails, _ = checks.compare_reference(pred.y_pred[pred.masked], ref, tie,
                                        checks.IDW_ATOL if method == "idw"
                                        else checks.UK_ATOL, method)
    assert fails == []


def test_perturbed_prediction_at_a_sample_is_rejected(baseline_run):
    _, pred, _ = _load(baseline_run, "idw")
    y_pred = pred.y_pred.copy()
    y_pred[np.flatnonzero(~pred.masked)[0]] += 1e-6
    assert checks.check_exact_at_samples(_with(pred, y_pred=y_pred))


def test_report_with_an_r2_that_is_off_is_rejected(baseline_run):
    _, pred, report = _load(baseline_run, "idw")
    report = dict(report, r2=repr(float(report["r2"]) + 1e-6))
    assert any("r2" in f for f in checks.check_report(report, pred))


def test_missing_or_duplicated_row_is_rejected(baseline_run):
    labels, pred, _ = _load(baseline_run, "idw")
    dropped = checks.Predictions(pred.regions[1:], pred.y_true[1:],
                                 pred.y_pred[1:], pred.masked[1:])
    assert checks.check_table(dropped, labels, 0.75)
    doubled = checks.Predictions(pred.regions + pred.regions[:1],
                                 np.r_[pred.y_true, pred.y_true[:1]],
                                 np.r_[pred.y_pred, pred.y_pred[:1]],
                                 np.r_[pred.masked, pred.masked[:1]])
    assert checks.check_table(doubled, labels, 0.75)


def test_wrong_true_value_or_masked_count_is_rejected(baseline_run):
    labels, pred, _ = _load(baseline_run, "idw")
    y_true = pred.y_true.copy()
    y_true[5] += 1.0
    assert checks.check_table(_with(pred, y_true=y_true), labels, 0.75)
    masked = pred.masked.copy()
    masked[np.flatnonzero(~masked)[0]] = True
    assert checks.check_table(_with(pred, masked=masked), labels, 0.75)


def test_unreadable_file_is_rejected(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("x_r,y_r,y_true,y_pred,is_masked\n0,0,1.0,1.0\n")
    with pytest.raises(ValueError):
        checks.read_predictions(str(path))


def test_reference_mismatch_fails_only_off_ties():
    ref = np.array([1.0, 2.0, 3.0])
    tie = np.array([False, True, False])
    fails, mismatch = checks.compare_reference(np.array([1.0, 2.5, 3.0]),
                                               ref, tie, 1e-9, "idw")
    assert fails == [] and mismatch == 1
    fails, _ = checks.compare_reference(np.array([1.0, 2.0, 3.1]),
                                        ref, tie, 1e-9, "idw")
    assert fails


def test_fallbacks_beyond_the_reported_count_are_rejected():
    ref, idw = np.array([1.0, 2.0]), np.array([1.5, 2.5])
    tie = np.zeros(2, dtype=bool)
    program = np.array([1.5, 2.0])
    assert checks.compare_reference(program, ref, tie, 1e-9, "uk", 1,
                                     idw)[0] == []
    assert checks.compare_reference(program, ref, tie, 1e-9, "uk", 0,
                                    idw)[0]


# -- training logs and accuracy ----------------------------------------------

def _log(vals):
    vals = np.asarray(vals, dtype=float)
    return np.column_stack([np.arange(len(vals)), vals, vals])


def test_early_stopping_rule():
    # best at epoch 1, then three epochs without improvement: stop at 5 rows
    log = _log([3, 1, 2, 2, 1])
    assert checks.check_early_stopping(log, patience=3, max_epochs=100) == []
    assert checks.check_early_stopping(log[:4], patience=3, max_epochs=100)
    assert checks.check_early_stopping(_log([3, 1, 2, 2, 1, 0.5]), 3, 100)
    assert checks.check_early_stopping(_log([3, 2, 1]), 3, 3) == []
    assert checks.check_early_stopping(_log([3, 2, 1]), 3, 2)
    shuffled = log.copy()
    shuffled[0, 0] = 7
    assert checks.check_early_stopping(shuffled, 3, 100)


def test_finetune_must_improve_on_its_first_epoch():
    assert checks.check_finetune_improves(_log([2.0, 1.0, 1.5])) == []
    assert checks.check_finetune_improves(_log([1.0, 1.0, 1.5]))


def test_r2_floor_and_idw_comparison():
    assert checks.check_r2(0.85, 0.8, 0.6) == []
    assert checks.check_r2(0.79, 0.8, 0.6)
    assert checks.check_r2(0.85, 0.8, 0.9)


def test_masked_metrics_textbook_values():
    pred = checks.Predictions(regions=((0, 0), (1, 0), (2, 0)),
                              y_true=np.array([1.0, 2.0, 3.0]),
                              y_pred=np.array([1.0, 3.0, 2.0]),
                              masked=np.array([True, True, True]))
    m = checks.masked_metrics(pred)
    assert m["mae"] == pytest.approx(2 / 3)
    assert m["rmse"] == pytest.approx(math.sqrt(2 / 3))
    assert m["r2"] == pytest.approx(1 - 2 / 2)


def test_benchmark_json_lists_what_the_benchmark_reports():
    import json
    from spans import PER_LAYER
    from workloads import WORKLOADS
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
