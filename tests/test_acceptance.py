"""Acceptance suite: one test per release criterion.

Each test computes its verdict, registers a pass/fail line for the terminal
summary (see conftest), and then asserts. The expensive 48x48 world and its
settings are shared between the interpolation criteria.
"""

import math
import time

import numpy as np
import pytest

import geohg.tensor as T
from geohg.baselines import VariogramModel, idw_predict, uk_predict
from geohg.cli import dispatch
from geohg.evaluation import (ExperimentInputs, RunSettings, mae, make_split,
                              r2, rmse, run_experiment)
from geohg.geodata import GridSpec
from geohg.hetgraph import build_elr, build_rnr, build_slr, rnr_edge_count
from geohg.model import (HgnnConfig, SslConfig, TrainConfig,
                         backbone_checksum, backbone_forward,
                         batch_positive_plan, finetune_head,
                         hgnn_forward, infonce_loss, init_state,
                         mse_training_loss, positive_sets, prepare_graph,
                         pretrain_contrastive)
from geohg.synth import SynthConfig, generate
from geohg.tensor import Tensor

from conftest import record_criterion
from _worlds import hand_features, relabel, synth_world


@pytest.fixture(scope="module")
def big_world():
    cfg = SynthConfig(n_cols=48, n_rows=48, pixels_per_cell=4,
                      n_patches=200, seed=11)
    lc, pois, labels, _ = generate(cfg)
    inputs = ExperimentInputs(grid=lc.grid, lc=lc, pois=pois, labels=labels,
                              n_categories=cfg.n_categories)
    settings = RunSettings(hgnn=HgnnConfig(n_layers=2, hidden_dim=48),
                           train=TrainConfig(max_epochs=300, patience=50))
    return inputs, settings


def leaves_of(params):
    return {name: Tensor(arr, requires_grad=True) for name, arr in
            params.items()}


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    grid, feats, graph, labels, _ = synth_world(4, 4, seed=1)
    config = HgnnConfig(n_layers=2, hidden_dim=8)
    state = init_state(config, graph.n_env, graph.n_soc, seed=0)
    gt = prepare_graph(graph, feats)

    rng = np.random.default_rng(0)
    train_idx = gt.rank[rng.choice(16, size=8, replace=False)]
    y_train = rng.normal(size=8)

    positives = [np.sort(gt.rank[p]) for p in positive_sets(graph, feats, 4)]
    anchor_ext = rng.choice(16, size=6, replace=False)
    anchors = gt.rank[anchor_ext]
    plan = batch_positive_plan([positives[i] for i in anchor_ext])

    def mse_value(params):
        loss, _ = mse_training_loss(gt, leaves_of(params), config,
                                    train_idx, y_train)
        return loss.item()

    def nce_value(params):
        return infonce_loss(gt, leaves_of(params), config, anchors, plan,
                            temperature=0.1).item()

    names = sorted(state.params)
    coords = []
    while len(coords) < 110:  # per loss; 220 sampled parameters in total
        name = names[rng.integers(len(names))]
        coords.append((name, int(rng.integers(state.params[name].size))))

    worst = 0.0
    n_checked = 0
    for value_fn in (mse_value, nce_value):
        leaves = leaves_of(state.params)
        if value_fn is mse_value:
            loss, _ = mse_training_loss(gt, leaves, config, train_idx,
                                        y_train)
        else:
            loss = infonce_loss(gt, leaves, config, anchors, plan,
                                temperature=0.1)
        loss.backward()
        grads = {name: (leaf.grad if leaf.grad is not None
                        else np.zeros_like(leaf.data))
                 for name, leaf in leaves.items()}
        step = 1e-5
        for name, flat in coords:
            params = {k: v.copy() for k, v in state.params.items()}
            params[name].flat[flat] += step
            up = value_fn(params)
            params[name].flat[flat] -= 2 * step
            down = value_fn(params)
            fd = (up - down) / (2 * step)
            an = grads[name].flat[flat]
            rel = abs(an - fd) / max(abs(an), abs(fd), 1e-8)
            worst = max(worst, rel)
            n_checked += 1

    elapsed = time.perf_counter() - t0
    passed = worst < 1e-4 and n_checked >= 200 and elapsed < 30.0
    record_criterion(
        1, "analytic gradients match central finite differences",
        passed, f"max rel err {worst:.2e} over {n_checked} params, "
                f"{elapsed:.1f}s")
    assert n_checked >= 200
    assert worst < 1e-4, f"max relative error {worst}"
    assert elapsed < 30.0


def test_criterion_2_noncontinuity_advantage(big_world):
    inputs, settings = big_world
    t0 = time.perf_counter()
    scores = {m: [] for m in ("geohg", "idw", "uk")}
    for seed in range(5):
        for method in scores:
            result = run_experiment(inputs, method, masked_ratio=0.75,
                                    seed=seed, settings=settings)
            scores[method].append(result.report.r2)
    elapsed = time.perf_counter() - t0
    mean = {m: float(np.mean(v)) for m, v in scores.items()}
    gap_idw = mean["geohg"] - mean["idw"]
    gap_uk = mean["geohg"] - mean["uk"]
    passed = (mean["geohg"] >= 0.80 and gap_idw >= 0.10 and gap_uk >= 0.10
              and elapsed < 300.0)
    record_criterion(
        2, "masked-ratio 0.75 advantage over IDW and kriging (5 seeds)",
        passed, f"R2 geohg {mean['geohg']:.3f}, idw {mean['idw']:.3f}, "
                f"uk {mean['uk']:.3f}, {elapsed:.0f}s")
    assert mean["geohg"] >= 0.80, mean
    assert gap_idw >= 0.10 and gap_uk >= 0.10, mean
    assert elapsed < 300.0


def test_criterion_3_data_efficiency_curve(big_world):
    inputs, settings = big_world
    ratios = (0.80, 0.90, 0.95, 0.99)
    seeds = (0, 1, 2)
    by_ratio = {}
    for ratio in ratios:
        vals = [run_experiment(inputs, "geohg", ratio, seed, settings)
                .report.r2 for seed in seeds]
        by_ratio[ratio] = vals
    means = [float(np.mean(by_ratio[r])) for r in ratios]
    monotone = all(means[i] >= means[i + 1] - 1e-12
                   for i in range(len(means) - 1))
    at_95 = float(np.mean(by_ratio[0.95]))
    threshold_met = at_95 >= 0.70
    curve = ", ".join(f"M={r}: {m:.3f}" for r, m in zip(ratios, means))
    detail = curve
    if not threshold_met:
        # The 0.70 level at M=0.95 is a soft threshold: report seed spread.
        spread = ", ".join(f"{v:.3f}" for v in by_ratio[0.95])
        detail += (f"; soft threshold missed at M=0.95 "
                   f"(per-seed {spread})")
    record_criterion(
        3, "R2 non-increasing across masked ratios 0.80-0.99",
        monotone, detail)
    assert monotone, means


def test_criterion_4_kriging_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    model = VariogramModel(nugget=0.0, sill=1.0, effective_range=8.0,
                           kind="exponential")

    pts = rng.choice(30 * 30, size=60, replace=False)
    samples = [((int(p % 30), int(p // 30)), float(v))
               for p, v in zip(pts, rng.normal(size=60))]
    worst_exact = max(abs(uk_predict(samples, region, model, 64) - value)
                      for region, value in samples)

    a, b, c = 2.0, 0.3, -0.7
    planar = [(region, a + b * region[0] + c * region[1])
              for region, _ in samples]
    targets = [(int(rng.integers(0, 30)), int(rng.integers(0, 30)))
               for _ in range(100)]
    worst_planar = max(abs(uk_predict(planar, t, model, 64)
                           - (a + b * t[0] + c * t[1])) for t in targets)
    elapsed = time.perf_counter() - t0

    passed = worst_exact < 1e-6 and worst_planar < 1e-6 and elapsed < 10.0
    record_criterion(
        4, "kriging exactness at samples and planar drift reproduction",
        passed, f"sample err {worst_exact:.1e}, planar err "
                f"{worst_planar:.1e}, {elapsed:.1f}s")
    assert worst_exact < 1e-6
    assert worst_planar < 1e-6
    assert elapsed < 10.0


def test_criterion_5_infonce_oracle():
    worst = 0.0
    n_batches = 0
    rng = np.random.default_rng(5)
    for world_seed in (0, 1):
        grid, feats, graph, _, _ = synth_world(6, 6, seed=world_seed)
        config = HgnnConfig(n_layers=2, hidden_dim=16)
        state = init_state(config, graph.n_env, graph.n_soc, seed=world_seed)
        gt = prepare_graph(graph, feats)
        positives = [np.sort(gt.rank[p])
                     for p in positive_sets(graph, feats, 4)]
        for _ in range(10):
            batch = rng.choice(grid.n_regions, size=8, replace=False)
            anchors = gt.rank[batch]
            batch_pos = [positives[i] for i in batch]
            plan = batch_positive_plan(batch_pos)
            loss = infonce_loss(gt, leaves_of(state.params), config,
                                anchors, plan, temperature=0.1).item()
            h = backbone_forward(gt, leaves_of(state.params), config).data
            pooled = np.stack([h[rows].mean(axis=0) for rows in batch_pos])
            s = (h[anchors] @ pooled.T) / 0.1
            want = float(np.mean([math.log(np.exp(s[i]).sum()) - s[i, i]
                                  for i in range(8)]))
            worst = max(worst, abs(loss - want))
            n_batches += 1

    # Uniform scores: zero parameters force every score to 0.
    grid, feats, graph, _, _ = synth_world(6, 6, seed=2)
    config = HgnnConfig(n_layers=2, hidden_dim=16)
    state = init_state(config, graph.n_env, graph.n_soc, seed=2)
    zeros = {k: np.zeros_like(v) for k, v in state.params.items()}
    gt = prepare_graph(graph, feats)
    positives = [np.sort(gt.rank[p]) for p in positive_sets(graph, feats, 4)]
    batch = rng.choice(grid.n_regions, size=9, replace=False)
    plan = batch_positive_plan([positives[i] for i in batch])
    uniform = infonce_loss(gt, leaves_of(zeros), config, gt.rank[batch],
                           plan, temperature=0.1).item()
    uniform_err = abs(uniform - math.log(9))

    passed = worst < 1e-10 and n_batches == 20 and uniform_err < 1e-9
    record_criterion(
        5, "InfoNCE equals brute-force summation; uniform batch gives ln B",
        passed, f"max err {worst:.1e} over {n_batches} batches, "
                f"ln B err {uniform_err:.1e}")
    assert n_batches == 20
    assert worst < 1e-10
    assert uniform_err < 1e-9


def test_criterion_6_graph_invariants():
    rng = np.random.default_rng(6)

    closed_form_ok = True
    for _ in range(10):
        c, r = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        grid = GridSpec(0.0, 0.0, c, r)
        built = build_rnr(grid).weights.size
        closed_form_ok &= built == rnr_edge_count(r, c)
        closed_form_ok &= built == max(0, 4 * r * c - 3 * r - 3 * c + 2)

    monotone_ok = True
    for i in range(10):
        c, r = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        grid = GridSpec(0.0, 0.0, c, r)
        feats = hand_features(grid, seed=100 + i)
        ladder = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        elr = [build_elr(feats, t).weights.size for t in ladder]
        slr = [build_slr(feats, t).weights.size
               for t in (0.0, 0.4, 0.8, 1.2, 1.6)]
        monotone_ok &= all(a >= b for a, b in zip(elr, elr[1:]))
        monotone_ok &= all(a >= b for a, b in zip(slr, slr[1:]))

    equivariant_ok = True
    grid, feats, graph, _, _ = synth_world(5, 5, seed=3)
    config = HgnnConfig(n_layers=3, hidden_dim=16)
    state = init_state(config, graph.n_env, graph.n_soc, seed=3)
    base = hgnn_forward(graph, feats, state)
    for _ in range(5):
        perm = rng.permutation(grid.n_regions)
        graph_p, feats_p = relabel(graph, feats, perm)
        out = hgnn_forward(graph_p, feats_p, state)
        equivariant_ok &= np.array_equal(out, base[perm])

    passed = closed_form_ok and monotone_ok and equivariant_ok
    record_criterion(
        6, "edge-count closed form, threshold monotonicity, equivariance",
        passed, f"closed-form {closed_form_ok}, monotone {monotone_ok}, "
                f"equivariant {equivariant_ok}")
    assert closed_form_ok
    assert monotone_ok
    assert equivariant_ok


def test_criterion_7_metric_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    order_ok = True
    for _ in range(50):
        n = int(rng.integers(2, 60))
        y_true = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        y_pred = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        d = y_pred - y_true
        worst = max(worst, abs(mae(y_true, y_pred) - np.mean(np.abs(d))))
        worst = max(worst, abs(rmse(y_true, y_pred)
                               - math.sqrt(np.mean(d ** 2))))
        ss_res = float(np.sum(d ** 2))
        ss_tot = float(np.sum((y_true - y_true.mean()) ** 2))
        worst = max(worst, abs(r2(y_true, y_pred) - (1 - ss_res / ss_tot)))
        order_ok &= rmse(y_true, y_pred) >= mae(y_true, y_pred)

    passed = worst < 1e-12 and order_ok
    record_criterion(
        7, "MAE/RMSE/R2 match direct formulas; RMSE >= MAE",
        passed, f"max abs err {worst:.1e} over 50 pairs")
    assert worst < 1e-12
    assert order_ok


def test_criterion_8_determinism(tmp_path):
    world = tmp_path / "world"
    world.mkdir()
    assert dispatch(["--out-dir", str(world), "synth", "--n-cols", "12",
                     "--n-rows", "12", "--pixels-per-cell", "3",
                     "--n-patches", "16", "--seed", "9"]) == 0
    base = ["--grid", str(world / "grid.cfg"),
            "--landcover", str(world / "landcover.txt"),
            "--pois", str(world / "pois.csv"),
            "--labels", str(world / "labels.csv"),
            "--masked-ratio", "0.5", "--seed", "9",
            "--layers", "1", "--hidden-dim", "8",
            "--max-epochs", "25", "--patience", "25",
            "--ssl-epochs", "2", "--batch-size", "16"]

    identical = {}
    for method in ("geohg", "geohg-ssl", "idw", "uk"):
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{method}-{tag}"
            out.mkdir()
            assert dispatch(["--out-dir", str(out), "eval",
                             "--method", method, *base]) == 0
            runs.append(out)
        identical[method] = all(
            (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
            for name in ("report.txt", "predictions.csv")
            if (runs[0] / name).exists())

    passed = all(identical.values())
    record_criterion(
        8, "eval rerun with the same seed is byte-identical per method",
        passed, ", ".join(f"{m}: {'ok' if v else 'DIFFERS'}"
                          for m, v in identical.items()))
    assert passed, identical


def test_criterion_9_frozen_backbone():
    grid, feats, graph, labels, _ = synth_world(8, 8, seed=10)
    config = HgnnConfig(n_layers=2, hidden_dim=16)
    ssl = SslConfig(batch_size=16, epochs=4)
    state, embeddings, _ = pretrain_contrastive(graph, feats, ssl, config,
                                                seed=10)
    checksum_before = backbone_checksum(state)

    split = make_split(labels, masked_ratio=0.5, seed=10)
    head, log = finetune_head(embeddings, labels, split,
                              TrainConfig(max_epochs=150, patience=150),
                              cells=feats.cells, seed=10)
    checksum_after = backbone_checksum(state)

    frozen = checksum_after == checksum_before
    untrained_val = log[0][2]
    best_val = min(row[2] for row in log)
    improved = best_val < untrained_val

    passed = frozen and improved
    record_criterion(
        9, "fine-tuning freezes the backbone and improves validation MSE",
        passed, f"checksums equal: {frozen}, val MSE {untrained_val:.4f} "
                f"-> {best_val:.4f}")
    assert frozen
    assert improved
