import json
import math

import numpy as np
import pytest

import geohg.tensor as T
from geohg.evaluation import make_split, r2
from geohg.features import feature_matrix
from geohg.geodata import GeoDataError, GridSpec, LabelSet
from geohg.hetgraph import EdgeFamily, HeteroGraph, build_graph
from geohg.model import (HgnnConfig, SslConfig, apply_label_transform,
                         backbone_checksum, backbone_forward,
                         batch_positive_plan, finetune_head,
                         fit_label_transform, hgnn_forward, infonce_loss,
                         init_head, init_state, invert_label_transform,
                         load_checkpoint, load_embeddings,
                         positive_sets, predict, predict_all, prepare_graph,
                         predict_from_embeddings, pretrain_contrastive,
                         save_checkpoint, save_training_log,
                         train_end_to_end, write_embeddings)
from geohg.tensor import Tensor

from _worlds import hand_features, relabel, synth_world
from test_tensor import finite_difference


def leaves_of(params, trainable=True):
    return {name: Tensor(arr, requires_grad=trainable)
            for name, arr in params.items()}


def rnr_only_graph(grid, feats):
    return build_graph(grid, feats, theta_env=1.0, theta_soc=1e9)


def constant_labels(grid, value):
    return LabelSet(entries=tuple((r, value) for r in grid.regions()))


class TestConfigs:
    def test_layer_bounds(self):
        with pytest.raises(ValueError):
            HgnnConfig(n_layers=0)
        with pytest.raises(ValueError):
            HgnnConfig(n_layers=4)

    def test_unknown_transform_and_relation(self):
        with pytest.raises(ValueError):
            HgnnConfig(label_transform="boxcox")
        with pytest.raises(ValueError):
            HgnnConfig(relations=("rnr", "mystery"))

    def test_ssl_validation(self):
        with pytest.raises(ValueError):
            SslConfig(temperature=0.0)
        with pytest.raises(ValueError):
            SslConfig(batch_size=1)
        with pytest.raises(ValueError):
            SslConfig(pooling="max")


class TestLabelTransforms:
    def test_zscore_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.5, size=50)
        mean, std = fit_label_transform("zscore", values)
        z = apply_label_transform("zscore", values, mean, std)
        assert abs(z.mean()) < 1e-12 and abs(z.std() - 1.0) < 1e-12
        back = invert_label_transform("zscore", z, mean, std)
        assert np.allclose(back, values, atol=1e-12)

    def test_log1p_round_trip(self):
        values = np.array([0.0, 1.0, 10.0, 1000.0])
        mean, std = fit_label_transform("log1p+zscore", values)
        z = apply_label_transform("log1p+zscore", values, mean, std)
        back = invert_label_transform("log1p+zscore", z, mean, std)
        assert np.allclose(back, values, rtol=1e-12)

    def test_log1p_rejects_low_values(self):
        with pytest.raises(ValueError, match="> -1"):
            fit_label_transform("log1p+zscore", np.array([-2.0, 1.0]))

    def test_constant_labels_keep_unit_scale(self):
        mean, std = fit_label_transform("zscore", np.full(5, 7.0))
        assert mean == 7.0 and std == 1.0


class TestForward:
    def test_zero_edges_single_layer_is_self_transform(self):
        grid = GridSpec(0.0, 0.0, 3, 1)
        feats = hand_features(grid, seed=1)
        graph = HeteroGraph(n_regions=3, n_env=3, n_soc=2)
        config = HgnnConfig(n_layers=1, hidden_dim=6, seed=2,
                            normalize_pos=False)
        state = init_state(config, 3, 2)
        out = hgnn_forward(graph, feats, state)
        p = state.params
        raw = np.stack([f.raw() for f in feats])
        want = (raw @ p["w_in"] + p["b_in"]) @ p["layer0.self.w"] \
            + p["layer0.self.b"]
        assert np.allclose(out, want, atol=1e-12)

    def test_identical_inputs_symmetric_pair_equal_embeddings(self):
        # Two RNR-connected regions with equal env/soc views and a position-
        # blind input projection must stay exactly interchangeable.
        grid = GridSpec(0.0, 0.0, 2, 1)
        base = hand_features(grid, seed=3)
        feats = [base[0],
                 type(base[1])(region=(1, 0), e_pos=np.array([1.0, 0.0]),
                               e_env=base[0].e_env.copy(),
                               e_soc=base[0].e_soc.copy(),
                               poi_count=base[0].poi_count)]
        graph = rnr_only_graph(grid, feats)
        config = HgnnConfig(n_layers=2, hidden_dim=8, seed=4)
        state = init_state(config, 3, 2)
        state.params["w_in"][:2, :] = 0.0   # ignore e_pos
        out = hgnn_forward(graph, feats, state)
        assert np.array_equal(out[0], out[1])

    def test_hand_computed_single_layer_aggregation(self):
        # Identity weights reduce one layer to h + mean over 8-neighbors.
        grid = GridSpec(0.0, 0.0, 3, 3)
        feats = hand_features(grid, seed=5, n_env=2, n_soc=1)
        graph = rnr_only_graph(grid, feats)
        config = HgnnConfig(n_layers=1, hidden_dim=5, seed=0,
                            normalize_pos=False)
        state = init_state(config, 2, 1)
        eye = np.eye(5)
        for name in list(state.params):
            if name.endswith(".b") or name == "b_in":
                state.params[name] = np.zeros_like(state.params[name])
        state.params["w_in"] = eye.copy()
        state.params["layer0.self.w"] = eye.copy()
        for rel in config.relations:
            state.params[f"layer0.{rel}.w"] = eye.copy()
        out = hgnn_forward(graph, feats, state)
        raw = np.stack([f.raw() for f in feats])
        for i, (x, y) in enumerate(grid.regions()):
            nbrs = [yy * 3 + xx
                    for yy in range(3) for xx in range(3)
                    if max(abs(xx - x), abs(yy - y)) == 1]
            want = raw[i] + raw[nbrs].mean(axis=0)
            assert np.allclose(out[i], want, atol=1e-12)

    def test_relation_bias_respects_in_edge_mask(self):
        # With all weights zeroed, output rows equal the relation bias on
        # exactly the nodes that have in-edges of that relation.
        grid = GridSpec(0.0, 0.0, 2, 2)
        feats = hand_features(grid, seed=6)
        elr = EdgeFamily(np.array([[1, 4]], dtype=np.int64), np.array([0.8]))
        graph = HeteroGraph(n_regions=4, n_env=3, n_soc=2, edges_elr=elr)
        config = HgnnConfig(n_layers=1, hidden_dim=4, seed=7)
        state = init_state(config, 3, 2)
        for name in state.params:
            state.params[name] = np.zeros_like(state.params[name])
        state.params["layer0.elr_e2r.b"] = np.full((1, 4), 2.5)
        out = hgnn_forward(graph, feats, state)
        assert np.array_equal(out[1], np.full(4, 2.5))
        for i in (0, 2, 3):
            assert np.array_equal(out[i], np.zeros(4))

    def test_permutation_equivariance_exact(self):
        grid, feats, graph, _, _ = synth_world(5, 4, seed=8)
        config = HgnnConfig(n_layers=3, hidden_dim=16, seed=9)
        state = init_state(config, graph.n_env, graph.n_soc)
        base = hgnn_forward(graph, feats, state)
        rng = np.random.default_rng(10)
        perm = rng.permutation(grid.n_regions)
        graph_p, feats_p = relabel(graph, feats, perm)
        out_p = hgnn_forward(graph_p, feats_p, state)
        assert np.array_equal(out_p, base[perm])  # bit-for-bit

    def test_locality_without_entity_edges(self):
        grid = GridSpec(0.0, 0.0, 8, 8)
        feats = hand_features(grid, seed=11)
        graph = rnr_only_graph(grid, feats)
        config = HgnnConfig(n_layers=2, hidden_dim=12, seed=12)
        state = init_state(config, 3, 2)
        base = hgnn_forward(graph, feats, state)
        target_row = 0  # region (0, 0)

        def perturbed(region_idx):
            f = feats[region_idx]
            bumped = type(f)(region=f.region, e_pos=f.e_pos.copy(),
                             e_env=np.roll(f.e_env, 1),
                             e_soc=f.e_soc.copy(), poi_count=f.poi_count)
            out = list(feats)
            out[region_idx] = bumped
            return out

        far = grid.region_index((5, 5))   # Chebyshev distance 5 > 2 layers
        out_far = hgnn_forward(graph, perturbed(far), state)
        assert np.array_equal(out_far[target_row], base[target_row])
        near = grid.region_index((1, 1))  # distance 1 <= 2 layers
        out_near = hgnn_forward(graph, perturbed(near), state)
        assert not np.array_equal(out_near[target_row], base[target_row])

    def test_entity_edge_carries_distant_influence_at_two_layers(self):
        # The hub pathway: (0,0) and (7,7) share an entity node, so a feature
        # change at (7,7) reaches (0,0) in two hops but not in one.
        grid = GridSpec(0.0, 0.0, 8, 8)
        feats = hand_features(grid, seed=13)
        n = grid.n_regions
        a, b = grid.region_index((0, 0)), grid.region_index((7, 7))
        elr = EdgeFamily(np.array([[a, n], [b, n]], dtype=np.int64),
                         np.array([0.7, 0.8]))
        base_graph = rnr_only_graph(grid, feats)
        graph = HeteroGraph(n_regions=n, n_env=3, n_soc=2,
                            edges_rnr=base_graph.edges_rnr, edges_elr=elr)
        bumped = list(feats)
        f = feats[b]
        bumped[b] = type(f)(region=f.region, e_pos=f.e_pos.copy(),
                            e_env=np.roll(f.e_env, 1), e_soc=f.e_soc.copy(),
                            poi_count=f.poi_count)
        for n_layers, should_change in ((1, False), (2, True)):
            config = HgnnConfig(n_layers=n_layers, hidden_dim=10, seed=14)
            state = init_state(config, 3, 2)
            out_base = hgnn_forward(graph, feats, state)
            out_bump = hgnn_forward(graph, bumped, state)
            changed = not np.array_equal(out_bump[a], out_base[a])
            assert changed == should_change


def fused_layer_cases():
    """(name, graph, features, config) for the fused-layer checks."""
    cases = []
    grid, feats, graph, _, _ = synth_world(5, 4, seed=40)
    cases.append(("no self loop", graph, feats,
                  HgnnConfig(n_layers=2, hidden_dim=4, seed=1,
                             use_self_loop=False)))
    cases.append(("relation subset", graph, feats,
                  HgnnConfig(n_layers=2, hidden_dim=4, seed=2,
                             relations=("slr_e2r", "rnr", "elr_r2e"))))
    # Hand-made entity edges: env entity 2 and soc entity 1 stay isolated.
    grid = GridSpec(0.0, 0.0, 4, 3)
    feats = hand_features(grid, seed=41)
    n = grid.n_regions
    rnr = rnr_only_graph(grid, feats).edges_rnr
    elr = EdgeFamily(np.array([[0, n], [1, n], [5, n + 1], [11, n + 1]],
                              dtype=np.int64), np.array([0.7, 0.8, 0.9, 0.6]))
    slr = EdgeFamily(np.array([[2, n + 3], [7, n + 3]], dtype=np.int64),
                     np.array([1.5, 2.5]))
    graph = HeteroGraph(n_regions=n, n_env=3, n_soc=2, edges_rnr=rnr,
                        edges_elr=elr, edges_slr=slr)
    cases.append(("isolated entity", graph, feats,
                  HgnnConfig(n_layers=2, hidden_dim=4, seed=3)))
    # Region 6 loses all its RNR edges and has no entity edge either.
    e = rnr.endpoints
    keep = (e[:, 0] != 6) & (e[:, 1] != 6)
    graph = HeteroGraph(n_regions=n, n_env=3, n_soc=2,
                        edges_rnr=EdgeFamily(e[keep].copy(),
                                             rnr.weights[keep].copy()),
                        edges_elr=elr, edges_slr=slr)
    cases.append(("zero in-degree region", graph, feats,
                  HgnnConfig(n_layers=2, hidden_dim=4, seed=4)))
    grid = GridSpec(0.0, 0.0, 7, 1)
    feats = hand_features(grid, seed=42)
    cases.append(("1x7 grid", build_graph(grid, feats, 0.3, 0.2), feats,
                  HgnnConfig(n_layers=2, hidden_dim=4, seed=5)))
    return cases


def layer_inputs(graph, feats, config, seed):
    """Graph tensors, relations in use, random (w, b) per relation and
    for "self" when the config has a self loop, and a random h."""
    gt = prepare_graph(graph, feats, config)
    rng = np.random.default_rng(seed)
    d = config.hidden_dim
    rels = [r for r in config.relations if r in gt.relations]
    weights = {r: (rng.normal(size=(d, d)), rng.normal(size=(1, d)))
               for r in ("self",) * config.use_self_loop + tuple(rels)}
    h = rng.normal(size=(gt.n_nodes, d))
    return gt, rels, weights, h


def run_layer(gt, rels, weights, h, trainable=False):
    leaves = {k: (Tensor(w, requires_grad=trainable),
                  Tensor(b, requires_grad=trainable))
              for k, (w, b) in weights.items()}
    th = Tensor(h, requires_grad=trainable)
    out = T.relational_layer(
        th, [(gt.relations[r], *leaves[r]) for r in rels], leaves.get("self"))
    return out, th, leaves


def reference_adjacency(graph, gt, rel):
    """Row-normalised (n_nodes, n_nodes) mean of one relation in internal
    order, built edge by edge from the graph, and its has-in-edge rows."""
    fam = getattr(graph, f"edges_{rel[:3]}")
    a = np.zeros((gt.n_nodes, gt.n_nodes))
    for (u, v), w in zip(fam.endpoints, fam.weights):
        u, v = gt.rank[u], (gt.rank[v] if rel == "rnr" else v)
        if rel in ("rnr", "elr_e2r", "slr_e2r"):
            a[u, v] += w            # message v -> u
        if rel in ("rnr", "elr_r2e", "slr_r2e"):
            a[v, u] += w            # message u -> v
    has_in = (a != 0).any(axis=1)
    rows = a.sum(axis=1, keepdims=True)
    return np.divide(a, rows, out=np.zeros_like(a), where=rows != 0), has_in


class TestRelationalLayer:
    CASES = fused_layer_cases()

    def test_cases_cover_the_shapes(self):
        by_name = {name: (graph, feats, config)
                   for name, graph, feats, config in self.CASES}
        gt = prepare_graph(*by_name["isolated entity"])
        env = gt.relations["elr_r2e"].agg.has_in_edge
        soc = gt.relations["slr_r2e"].agg.has_in_edge
        assert env[2] == 0.0 and soc[1] == 0.0
        gt = prepare_graph(*by_name["zero in-degree region"])
        assert gt.relations["rnr"].agg.has_in_edge.sum() == gt.n_regions - 1
        gt = prepare_graph(*by_name["1x7 grid"])
        assert gt.relations["rnr"].agg.idx.shape == (7, 2)
        gt = prepare_graph(*by_name["relation subset"])
        assert sorted(gt.relations) == ["elr_r2e", "rnr", "slr_e2r"]

    def test_matches_per_relation_reference(self):
        # Oracle: the unfused rule, one dense mean per relation built
        # straight from the edge lists, plus the masked relation bias.
        for name, graph, feats, config in self.CASES:
            gt, rels, weights, h = layer_inputs(graph, feats, config, 43)
            out, _, _ = run_layer(gt, rels, weights, h)
            want = np.zeros_like(h)
            if config.use_self_loop:
                want += h @ weights["self"][0] + weights["self"][1]
            for rel in rels:
                a, has_in = reference_adjacency(graph, gt, rel)
                w, b = weights[rel]
                want += a @ h @ w + has_in[:, None] * b
            assert np.allclose(out.data, want, atol=1e-12), name

    def test_gradient_matches_finite_differences(self):
        for name, graph, feats, config in self.CASES:
            gt, rels, weights, h = layer_inputs(graph, feats, config, 44)
            target = np.random.default_rng(45).normal(size=h.shape)

            def loss_of(out):
                return T.mean_all(T.square(T.sub(out, Tensor(target))))

            out, th, leaves = run_layer(gt, rels, weights, h, trainable=True)
            loss_of(out).backward()
            arrays = [h] + [a for pair in weights.values() for a in pair]
            grads = [th.grad] + [t.grad for pair in leaves.values()
                                 for t in pair]
            fd = finite_difference(
                lambda: loss_of(run_layer(gt, rels, weights, h)[0]).item(),
                arrays)
            for analytic, numeric in zip(grads, fd):
                assert np.max(np.abs(analytic - numeric)) < 1e-8, name

    def test_permutation_equivariance_exact(self):
        rng = np.random.default_rng(46)
        for name, graph, feats, config in self.CASES:
            state = init_state(config, graph.n_env, graph.n_soc)
            base = hgnn_forward(graph, feats, state)
            for _ in range(3):
                perm = rng.permutation(graph.n_regions)
                graph_p, feats_p = relabel(graph, feats, perm)
                out = hgnn_forward(graph_p, feats_p, state)
                assert np.array_equal(out, base[perm]), name  # bit-for-bit


class TestTrainEndToEnd:
    def test_constant_labels_converge_to_constant(self):
        grid, feats, graph, _, _ = synth_world(10, 10, seed=15)
        labels = constant_labels(grid, 3.7)
        split = make_split(labels, masked_ratio=0.25, seed=0)
        config = HgnnConfig(n_layers=2, hidden_dim=8, seed=1, max_epochs=300,
                            patience=300)
        state, log = train_end_to_end(graph, feats, labels, split, config)
        assert min(row[2] for row in log) < 5e-3
        preds = predict_all(state, graph, feats)
        assert np.max(np.abs(preds - 3.7)) < 0.2

    def test_fixed_seed_bit_identical_logs(self):
        grid, feats, graph, labels, _ = synth_world(6, 6, seed=16)
        split = make_split(labels, masked_ratio=0.5, seed=2)
        config = HgnnConfig(n_layers=2, hidden_dim=8, seed=3, max_epochs=30,
                            patience=30)
        state_a, log_a = train_end_to_end(graph, feats, labels, split, config)
        state_b, log_b = train_end_to_end(graph, feats, labels, split, config)
        assert log_a == log_b
        for name in state_a.params:
            assert np.array_equal(state_a.params[name], state_b.params[name])

    def test_linear_target_high_r2_on_noiseless_world(self):
        # Noiseless world: y is exactly linear in each region's own features,
        # so a single-layer model (dominant self path) should recover it.
        grid, feats, graph, labels, _ = synth_world(
            12, 12, seed=17, noise_sigma=0.0, jump=0.0, smooth_amplitude=0.0)
        split = make_split(labels, masked_ratio=0.3, seed=4)
        config = HgnnConfig(n_layers=1, hidden_dim=32, seed=5,
                            max_epochs=600, patience=150)
        state, _ = train_end_to_end(graph, feats, labels, split, config)
        values = labels.as_dict()
        got = predict(state, graph, feats, split.masked)
        y_true = np.array([values[r] for r in split.masked])
        y_pred = np.array([got[r] for r in split.masked])
        assert r2(y_true, y_pred) >= 0.95

    def test_empty_split_rejected(self):
        grid, feats, graph, labels, _ = synth_world(4, 4, seed=18)
        split = make_split(labels, masked_ratio=0.5, seed=5)
        bad = type(split)(masked=split.masked, train=(),
                          validation=split.validation,
                          masked_ratio=split.masked_ratio, seed=split.seed)
        with pytest.raises(ValueError, match="non-empty"):
            train_end_to_end(graph, feats, labels, bad, HgnnConfig())

    def test_log_rows_are_pre_update_losses(self):
        # Epoch 0 must record the seeded-init model, so a 1-epoch run and a
        # 30-epoch run agree on the first row.
        grid, feats, graph, labels, _ = synth_world(5, 5, seed=19)
        split = make_split(labels, masked_ratio=0.5, seed=6)
        short = HgnnConfig(hidden_dim=8, seed=7, max_epochs=1, patience=1)
        longer = HgnnConfig(hidden_dim=8, seed=7, max_epochs=30, patience=30)
        _, log_short = train_end_to_end(graph, feats, labels, split, short)
        _, log_long = train_end_to_end(graph, feats, labels, split, longer)
        assert log_short[0] == log_long[0]


class TestPredict:
    def test_prediction_covers_requested_regions(self):
        grid, feats, graph, labels, _ = synth_world(5, 5, seed=20)
        split = make_split(labels, masked_ratio=0.5, seed=8)
        config = HgnnConfig(hidden_dim=8, seed=9, max_epochs=10, patience=10)
        state, _ = train_end_to_end(graph, feats, labels, split, config)
        wanted = [(0, 0), (3, 2), (4, 4)]
        got = predict(state, graph, feats, wanted)
        assert sorted(got) == sorted(wanted)
        assert all(np.isfinite(v) for v in got.values())

    def test_untrained_state_rejected(self):
        grid, feats, graph, _, _ = synth_world(4, 4, seed=21)
        state = init_state(HgnnConfig(hidden_dim=8), graph.n_env, graph.n_soc)
        with pytest.raises(ValueError, match="untrained"):
            predict_all(state, graph, feats)

    def test_memorizes_training_regions_on_constant_field(self):
        grid, feats, graph, _, _ = synth_world(5, 5, seed=22)
        labels = constant_labels(grid, -1.25)
        split = make_split(labels, masked_ratio=0.5, seed=10)
        config = HgnnConfig(n_layers=1, hidden_dim=8, seed=11,
                            max_epochs=300, patience=300)
        state, _ = train_end_to_end(graph, feats, labels, split, config)
        got = predict(state, graph, feats, split.train)
        for region in split.train:
            assert got[region] == pytest.approx(-1.25, abs=0.05)


class TestInfoNce:
    def batch_setup(self, seed, hidden_dim=16, batch=6, top_k=4):
        grid, feats, graph, _, _ = synth_world(6, 6, seed=seed)
        config = HgnnConfig(n_layers=2, hidden_dim=hidden_dim, seed=seed)
        state = init_state(config, graph.n_env, graph.n_soc)
        gt = prepare_graph(graph, feats, config)
        positives = [np.sort(gt.rank[p]) if p.size else p
                     for p in positive_sets(graph, feats, top_k)]
        rng = np.random.default_rng(seed)
        anchors_ext = rng.choice(grid.n_regions, size=batch, replace=False)
        anchors_internal = gt.rank[anchors_ext]
        batch_positives = [positives[i] for i in anchors_ext]
        plan = batch_positive_plan(batch_positives)
        return state, config, gt, anchors_internal, plan, batch_positives

    def test_uniform_scores_give_log_batch(self):
        # All-zero parameters make every score 0, the uniform-logit case.
        state, config, gt, anchors, plan, _ = self.batch_setup(seed=23,
                                                               batch=5)
        zeros = {k: np.zeros_like(v) for k, v in state.params.items()}
        loss = infonce_loss(gt, leaves_of(zeros), config, anchors, plan,
                            temperature=0.1)
        assert loss.item() == pytest.approx(math.log(5), abs=1e-12)

    def test_matches_brute_force_summation(self):
        for seed in (24, 25, 26):
            state, config, gt, anchors, plan, pos = self.batch_setup(
                seed=seed)
            leaves = leaves_of(state.params)
            loss = infonce_loss(gt, leaves, config, anchors, plan,
                                temperature=0.1)
            # Oracle: naive direct summation over the batch score matrix.
            h = backbone_forward(gt, leaves_of(state.params), config).data
            a = h[anchors]
            pooled = np.stack([h[rows].mean(axis=0) for rows in pos])
            s = (a @ pooled.T) / 0.1
            want = np.mean([math.log(np.exp(s[i]).sum()) - s[i, i]
                            for i in range(anchors.size)])
            assert loss.item() == pytest.approx(want, abs=1e-10)

    def test_dominant_true_pair_drives_loss_to_zero(self):
        # InfoNCE limit: score(i,i) - score(i,j) -> +inf forces loss -> 0.
        losses = []
        for scale in (1.0, 5.0, 25.0):
            s = Tensor(scale * (2.0 * np.eye(4) - 1.0), requires_grad=True)
            loss = T.mean_all(T.sub(T.log_sum_exp(s), T.diag(s)))
            losses.append(loss.item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-8

    def test_batch_positive_plan_mean_pools(self):
        plan = batch_positive_plan([np.array([0, 2]), np.array([1])])
        assert np.array_equal(plan, [[0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
        h = np.array([[1.0], [5.0], [3.0]])
        assert np.array_equal(plan @ h, [[2.0], [5.0]])


class TestPositiveSets:
    def test_spatial_only_when_top_k_zero(self):
        grid, feats, graph, _, _ = synth_world(4, 4, seed=27)
        sets = positive_sets(graph, feats, top_k=0)
        corner = sets[grid.region_index((0, 0))]
        assert set(corner.tolist()) == {grid.region_index(r)
                                        for r in ((1, 0), (0, 1), (1, 1))}
        inner = sets[grid.region_index((1, 1))]
        assert inner.size == 8

    def test_top_k_adds_most_similar_rows(self):
        grid, feats, graph, _, _ = synth_world(5, 5, seed=28)
        sets0 = positive_sets(graph, feats, top_k=0)
        sets2 = positive_sets(graph, feats, top_k=2)
        raw = feature_matrix(feats)
        norms = np.linalg.norm(raw, axis=1)
        norms[norms == 0] = 1.0
        sims = (raw @ raw.T) / np.outer(norms, norms)
        np.fill_diagonal(sims, -np.inf)
        for i in range(len(feats)):
            extra = set(sets2[i].tolist())
            ranked = np.lexsort((np.arange(len(feats)), -sims[i]))[:2]
            want = set(sets0[i].tolist()) | {int(j) for j in ranked}
            assert extra == want
            assert i not in extra

    def test_anchor_never_in_own_set(self):
        grid, feats, graph, _, _ = synth_world(4, 4, seed=29)
        for i, s in enumerate(positive_sets(graph, feats, top_k=4)):
            assert i not in s.tolist()


class TestPretrain:
    def test_deterministic_embeddings(self):
        grid, feats, graph, _, _ = synth_world(6, 6, seed=30)
        ssl = SslConfig(batch_size=12, epochs=4, seed=1)
        config = HgnnConfig(n_layers=2, hidden_dim=8, seed=1)
        _, emb_a, log_a = pretrain_contrastive(graph, feats, ssl, config)
        _, emb_b, log_b = pretrain_contrastive(graph, feats, ssl, config)
        assert np.array_equal(emb_a, emb_b)
        assert log_a == log_b

    def test_embeddings_shape_and_state_flag(self):
        grid, feats, graph, _, _ = synth_world(6, 6, seed=31)
        ssl = SslConfig(batch_size=9, epochs=3, seed=2)
        config = HgnnConfig(n_layers=1, hidden_dim=8, seed=2)
        state, emb, log = pretrain_contrastive(graph, feats, ssl, config)
        assert emb.shape == (36, 8)
        assert np.all(np.isfinite(emb))
        assert state.trained
        assert len(log) == 3 and all(np.isfinite(v) for _, v in log)

    def test_batch_too_large_rejected(self):
        grid, feats, graph, _, _ = synth_world(4, 4, seed=32)
        with pytest.raises(ValueError, match="batch size"):
            pretrain_contrastive(graph, feats,
                                 SslConfig(batch_size=64, epochs=1))

    def test_isolated_regions_skipped_with_warning(self):
        grid = GridSpec(0.0, 0.0, 4, 1)
        feats = hand_features(grid, seed=33)
        graph = HeteroGraph(n_regions=4, n_env=3, n_soc=2)  # no edges at all
        ssl = SslConfig(batch_size=2, epochs=1, top_k=0, seed=3)
        config = HgnnConfig(n_layers=1, hidden_dim=4, seed=3)
        with pytest.warns(UserWarning, match="no positives"):
            _, emb, log = pretrain_contrastive(graph, feats, ssl, config)
        assert np.all(np.isfinite(emb))
        assert math.isnan(log[0][1])  # every batch skipped


class TestFinetuneHead:
    def embedding_problem(self, seed, n=60, d=12, noise=0.0):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n, d))
        beta = rng.normal(size=d)
        y = e @ beta + noise * rng.standard_normal(n)
        regions = [(i % 10, i // 10) for i in range(n)]
        labels = LabelSet(entries=tuple(
            (r, float(v)) for r, v in zip(regions, y)))
        return e, regions, labels

    def test_backbone_untouched_by_finetune(self):
        grid, feats, graph, labels, _ = synth_world(6, 6, seed=34)
        ssl = SslConfig(batch_size=12, epochs=2, seed=4)
        config = HgnnConfig(n_layers=1, hidden_dim=8, seed=4, max_epochs=40,
                            patience=40)
        state, emb, _ = pretrain_contrastive(graph, feats, ssl, config)
        before = backbone_checksum(state)
        split = make_split(labels, masked_ratio=0.5, seed=11)
        finetune_head(emb, labels, split, config,
                      regions=[f.region for f in feats])
        assert backbone_checksum(state) == before

    def test_constant_labels_converge(self):
        e, regions, _ = self.embedding_problem(seed=35, n=200)
        labels = LabelSet(entries=tuple((r, 2.5) for r in regions))
        split = make_split(labels, masked_ratio=0.3, seed=12)
        config = HgnnConfig(hidden_dim=12, seed=5, max_epochs=800,
                            patience=800)
        head, log = finetune_head(e, labels, split, config, regions)
        assert min(row[2] for row in log) < 1e-2
        preds = predict_from_embeddings(head, e)
        idx = {r: i for i, r in enumerate(regions)}
        train_err = [abs(preds[idx[r]] - 2.5) for r in split.train]
        assert max(train_err) < 0.1

    def test_linear_target_high_r2(self):
        e, regions, labels = self.embedding_problem(seed=36, n=200)
        split = make_split(labels, masked_ratio=0.3, seed=13)
        config = HgnnConfig(hidden_dim=12, seed=6, max_epochs=500,
                            patience=100)
        head, _ = finetune_head(e, labels, split, config, regions)
        preds = predict_from_embeddings(head, e)
        values = labels.as_dict()
        idx = {r: i for i, r in enumerate(regions)}
        y_true = np.array([values[r] for r in split.masked])
        y_pred = np.array([preds[idx[r]] for r in split.masked])
        assert r2(y_true, y_pred) >= 0.9

    def test_first_log_row_is_untrained_head(self):
        e, regions, labels = self.embedding_problem(seed=37)
        split = make_split(labels, masked_ratio=0.4, seed=14)
        config = HgnnConfig(hidden_dim=12, seed=7, max_epochs=20, patience=20)
        head, log = finetune_head(e, labels, split, config, regions)
        # Recompute the untrained-head validation MSE independently.
        from geohg.model import _head_apply
        fresh = init_head(config, d=12)
        values = labels.as_dict()
        idx = {r: i for i, r in enumerate(regions)}
        y_train = np.array([values[r] for r in split.train])
        mean, std = fit_label_transform("zscore", y_train)
        y_val = apply_label_transform(
            "zscore", np.array([values[r] for r in split.validation]),
            mean, std)
        val_rows = e[[idx[r] for r in split.validation]]
        want = float(np.mean((_head_apply(fresh.params, val_rows).ravel()
                              - y_val) ** 2))
        assert log[0][2] == pytest.approx(want, abs=1e-12)


class TestCheckpointsAndIo:
    def test_model_checkpoint_round_trip(self, tmp_path):
        grid, feats, graph, labels, _ = synth_world(5, 5, seed=38)
        split = make_split(labels, masked_ratio=0.5, seed=15)
        config = HgnnConfig(hidden_dim=8, seed=8, max_epochs=10, patience=10)
        state, _ = train_end_to_end(graph, feats, labels, split, config)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, str(path))
        again = load_checkpoint(str(path))
        assert again.config == state.config
        assert again.label_mean == state.label_mean
        assert again.label_std == state.label_std
        for name in state.params:
            assert np.array_equal(again.params[name], state.params[name])
        assert np.array_equal(predict_all(again, graph, feats),
                              predict_all(state, graph, feats))

    def test_wrong_kind_rejected(self, tmp_path):
        config = HgnnConfig(hidden_dim=4)
        head, _ = HeadState_roundtrip_helper(config, tmp_path)
        with pytest.raises(ValueError, match="model checkpoint"):
            load_checkpoint(str(tmp_path / "head.json"))

    def test_head_round_trip(self, tmp_path):
        config = HgnnConfig(hidden_dim=4)
        head, again = HeadState_roundtrip_helper(config, tmp_path)
        for name in head.params:
            assert np.array_equal(again.params[name], head.params[name])

    def test_embeddings_round_trip(self, tmp_path):
        rng = np.random.default_rng(39)
        regions = [(x, y) for y in range(3) for x in range(4)]
        emb = rng.normal(size=(12, 5))
        path = tmp_path / "emb.csv"
        write_embeddings(regions, emb, str(path), header_comments=["d = 5"])
        got_regions, got = load_embeddings(str(path))
        assert got_regions == regions
        assert np.array_equal(got, emb)

    def test_parameter_shapes_checked_against_config(self, tmp_path):
        config = HgnnConfig(n_layers=1, hidden_dim=4, seed=1)
        state = init_state(config, n_env=3, n_soc=2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, str(path))
        good = json.loads(path.read_text())

        def rejected(payload, match):
            path.write_text(json.dumps(payload))
            with pytest.raises(GeoDataError, match=match) as info:
                load_checkpoint(str(path))
            assert str(path) in str(info.value)

        bad = json.loads(json.dumps(good))
        bad["params"]["layer0.rnr.w"] = {"shape": [4, 3], "data": [0.0] * 12}
        rejected(bad, "layer0.rnr.w has shape")
        bad = json.loads(json.dumps(good))
        bad["n_env"] = 4                  # entity_emb now one row short
        rejected(bad, "entity_emb has shape")
        bad = json.loads(json.dumps(good))
        del bad["params"]["head.2.b"]
        rejected(bad, "head.2.b has shape None")
        bad = json.loads(json.dumps(good))
        bad["config"]["n_layers"] = 2     # layer1.* missing
        rejected(bad, "layer1")
        bad = json.loads(json.dumps(good))
        bad["params"]["b_in"]["data"][0] = float("nan")
        rejected(bad, "non-finite values in b_in")
        path.write_text(json.dumps(good))
        assert load_checkpoint(str(path)).params.keys() == state.params.keys()

    def test_head_shapes_checked(self, tmp_path):
        head = init_head(HgnnConfig(hidden_dim=4), d=6)
        path = tmp_path / "head.json"
        save_checkpoint(head, str(path))
        assert load_checkpoint(str(path), kind="head").params["head.0.w"] \
            .shape == (6, 6)
        payload = json.loads(path.read_text())
        payload["params"]["head.1.w"] = {"shape": [6, 4], "data": [0.0] * 24}
        path.write_text(json.dumps(payload))
        with pytest.raises(GeoDataError, match="head.1.w has shape") as info:
            load_checkpoint(str(path), kind="head")
        assert str(path) in str(info.value)

    def test_embeddings_non_finite_rejected(self, tmp_path):
        for bad in ("nan", "inf", "-inf"):
            path = tmp_path / f"emb_{bad}.csv"
            path.write_text(f"x_r,y_r,e_0,e_1\n0,0,1.0,2.0\n1,0,{bad},0.5\n")
            with pytest.raises(GeoDataError, match="non-finite") as info:
                load_embeddings(str(path))
            assert str(path) in str(info.value)

    def test_training_log_round_trip(self, tmp_path):
        log = [(0, 1.5, 2.25), (1, 0.125, 0.75)]
        path = tmp_path / "log.csv"
        save_training_log(log, str(path), header_comments=["seed = 0"])
        lines = [l for l in path.read_text().splitlines()
                 if l and not l.startswith("#")]
        assert lines[0] == "epoch,train_loss,val_loss"
        parsed = [tuple(float(v) for v in line.split(","))
                  for line in lines[1:]]
        assert parsed == [(0.0, 1.5, 2.25), (1.0, 0.125, 0.75)]


def HeadState_roundtrip_helper(config, tmp_path):
    head = init_head(config, d=config.hidden_dim)
    head.trained = True
    path = tmp_path / "head.json"
    save_checkpoint(head, str(path))
    return head, load_checkpoint(str(path), kind="head")
