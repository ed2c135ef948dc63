import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest

import geohg.model
import geohg.tensor as T
from geohg.evaluation import make_split, r2
from geohg.features import FeatureTable
from geohg.geodata import GeoDataError, GridSpec, LabelSet, cell_rows
from geohg.hetgraph import EdgeFamily, HeteroGraph, build_graph
from geohg.model import (CHECKPOINT_VERSION, RELATIONS, HgnnConfig,
                         LabelTransform, SslConfig, TrainConfig,
                         backbone_checksum, backbone_forward,
                         batch_positive_plan, finetune_head, head_forward,
                         hgnn_forward, infonce_loss, init_head, init_state,
                         load_checkpoint, load_embeddings, mse_training_loss,
                         positive_sets, predict_all, prepare_graph,
                         predict_from_embeddings,
                         pretrain_contrastive, row_subset, save_checkpoint,
                         save_training_log, train_end_to_end,
                         write_embeddings)
from geohg.tensor import Tensor

from _worlds import hand_features, relabel, synth_world, table
from test_tensor import (finite_difference, reference_adam_step,
                         reference_stacked_layer)


def leaves_of(params, trainable=True):
    return {name: Tensor(arr, requires_grad=trainable)
            for name, arr in params.items()}


def rnr_only_graph(grid, feats):
    return build_graph(grid, feats, theta_env=1.0, theta_soc=1e9)


def env_rolled(feats, row):
    """The table with one row's land-cover proportions rolled by one."""
    matrix = feats.matrix.copy()
    matrix[row, 2:2 + feats.n_env] = np.roll(feats.env[row], 1)
    return FeatureTable(feats.cells, matrix, feats.poi_counts, feats.n_env)


def constant_labels(grid, value):
    return LabelSet(cells=grid.cells(),
                    values=np.full(grid.n_regions, value))


def regions_of(labels, rows):
    """The (x, y) regions of the given label rows, in that order."""
    return [tuple(cell) for cell in labels.cells[rows].tolist()]


def head_reference(params, x):
    """The head written out on arrays: relu(x W0 + b0), relu(. W1 + b1),
    then . W2 + b2."""
    a = np.maximum(x @ params["head.0.w"] + params["head.0.b"], 0.0)
    a = np.maximum(a @ params["head.1.w"] + params["head.1.b"], 0.0)
    return a @ params["head.2.w"] + params["head.2.b"]


class TestConfigs:
    def test_layer_bounds(self):
        with pytest.raises(ValueError):
            HgnnConfig(n_layers=0)
        with pytest.raises(ValueError):
            HgnnConfig(n_layers=4)

    def test_unknown_transform_and_relation(self):
        with pytest.raises(ValueError):
            TrainConfig(label_transform="boxcox")

    def test_lr_must_be_finite_and_positive(self):
        for lr in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lr"):
                TrainConfig(lr=lr)

    def test_ssl_validation(self):
        for bad in ({"temperature": 0.0}, {"temperature": -0.1},
                    {"temperature": math.nan}, {"temperature": math.inf},
                    {"batch_size": 1}, {"epochs": 0}, {"epochs": -3},
                    {"lr": 0.0}, {"lr": -1.0}, {"lr": math.nan},
                    {"lr": math.inf}):
            with pytest.raises(ValueError):
                SslConfig(**bad)


class TestLabelTransforms:
    def test_zscore_round_trip(self):
        rng = np.random.default_rng(0)
        values = rng.normal(3.0, 2.5, size=50)
        transform = LabelTransform.fit("zscore", values)
        z = transform.apply(values)
        assert abs(z.mean()) < 1e-12 and abs(z.std() - 1.0) < 1e-12
        back = transform.invert(z)
        assert np.allclose(back, values, atol=1e-12)

    def test_log1p_round_trip(self):
        values = np.array([0.0, 1.0, 10.0, 1000.0])
        transform = LabelTransform.fit("log1p+zscore", values)
        back = transform.invert(transform.apply(values))
        assert np.allclose(back, values, rtol=1e-12)

    def test_log1p_rejects_low_values(self):
        with pytest.raises(ValueError, match="> -1"):
            LabelTransform.fit("log1p+zscore", np.array([-2.0, 1.0]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="boxcox"):
            LabelTransform("boxcox", 0.0, 1.0)
        with pytest.raises(ValueError, match="boxcox"):
            LabelTransform.fit("boxcox", np.ones(3))

    def test_constant_labels_keep_unit_scale(self):
        transform = LabelTransform.fit("zscore", np.full(5, 7.0))
        assert transform.mean == 7.0 and transform.std == 1.0


class TestForward:
    def test_zero_edges_single_layer_is_self_transform(self):
        grid = GridSpec(0.0, 0.0, 3, 1)
        feats = hand_features(grid, seed=1)
        graph = HeteroGraph(n_regions=3, n_env=3, n_soc=2)
        config = HgnnConfig(n_layers=1, hidden_dim=6)
        state = init_state(config, 3, 2, seed=2)
        out = hgnn_forward(graph, feats, state)
        p = state.params
        raw = pos_scaled(feats.matrix)
        want = (raw @ p["w_in"] + p["b_in"]) @ p["layer0.self.w"] \
            + p["layer0.self.b"]
        assert np.allclose(out, want, atol=1e-12)

    def test_identical_inputs_symmetric_pair_equal_embeddings(self):
        # Two RNR-connected regions with equal env/soc views and a position-
        # blind input projection must stay exactly interchangeable.
        grid = GridSpec(0.0, 0.0, 2, 1)
        base = hand_features(grid, seed=3)
        rows = base.matrix.copy()
        rows[1, 2:] = rows[0, 2:]
        feats = FeatureTable(base.cells, rows,
                             np.full(2, base.poi_counts[0]), base.n_env)
        graph = rnr_only_graph(grid, feats)
        config = HgnnConfig(n_layers=2, hidden_dim=8)
        state = init_state(config, 3, 2, seed=4)
        state.params["w_in"][:2, :] = 0.0   # ignore e_pos
        out = hgnn_forward(graph, feats, state)
        assert np.array_equal(out[0], out[1])

    def test_hand_computed_single_layer_aggregation(self):
        # Identity weights reduce one layer to h + mean over 8-neighbors.
        grid = GridSpec(0.0, 0.0, 3, 3)
        feats = hand_features(grid, seed=5, n_env=2, n_soc=1)
        graph = rnr_only_graph(grid, feats)
        config = HgnnConfig(n_layers=1, hidden_dim=5)
        state = init_state(config, 2, 1, seed=0)
        eye = np.eye(5)
        for name in list(state.params):
            if name.endswith(".b") or name == "b_in":
                state.params[name] = np.zeros_like(state.params[name])
        state.params["w_in"] = eye.copy()
        state.params["layer0.self.w"] = eye.copy()
        for rel in RELATIONS:
            state.params[f"layer0.{rel}.w"] = eye.copy()
        out = hgnn_forward(graph, feats, state)
        raw = pos_scaled(feats.matrix)
        for i, (x, y) in enumerate(grid.cells().tolist()):
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
        config = HgnnConfig(n_layers=1, hidden_dim=4)
        state = init_state(config, 3, 2, seed=7)
        for name in state.params:
            state.params[name] = np.zeros_like(state.params[name])
        state.params["layer0.elr_e2r.b"] = np.full((1, 4), 2.5)
        out = hgnn_forward(graph, feats, state)
        assert np.array_equal(out[1], np.full(4, 2.5))
        for i in (0, 2, 3):
            assert np.array_equal(out[i], np.zeros(4))

    def test_permutation_equivariance_exact(self):
        grid, feats, graph, _, _ = synth_world(5, 4, seed=8)
        config = HgnnConfig(n_layers=3, hidden_dim=16)
        state = init_state(config, graph.n_env, graph.n_soc, seed=9)
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
        config = HgnnConfig(n_layers=2, hidden_dim=12)
        state = init_state(config, 3, 2, seed=12)
        base = hgnn_forward(graph, feats, state)
        target_row = 0  # region (0, 0)

        far = grid.region_index((5, 5))   # Chebyshev distance 5 > 2 layers
        out_far = hgnn_forward(graph, env_rolled(feats, far), state)
        assert np.array_equal(out_far[target_row], base[target_row])
        near = grid.region_index((1, 1))  # distance 1 <= 2 layers
        out_near = hgnn_forward(graph, env_rolled(feats, near), state)
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
        bumped = env_rolled(feats, b)
        for n_layers, should_change in ((1, False), (2, True)):
            config = HgnnConfig(n_layers=n_layers, hidden_dim=10)
            state = init_state(config, 3, 2, seed=14)
            out_base = hgnn_forward(graph, feats, state)
            out_bump = hgnn_forward(graph, bumped, state)
            changed = not np.array_equal(out_bump[a], out_base[a])
            assert changed == should_change


def fused_layer_cases():
    """(name, graph, features, config, init seed) for the fused-layer
    checks."""
    cases = []
    grid, feats, graph, _, _ = synth_world(5, 4, seed=40)
    graph = HeteroGraph(n_regions=graph.n_regions, n_env=graph.n_env,
                        n_soc=graph.n_soc, edges_rnr=graph.edges_rnr,
                        edges_elr=graph.edges_elr)      # no SLR edges
    cases.append(("relation subset", graph, feats,
                  HgnnConfig(n_layers=2, hidden_dim=4), 2))
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
                  HgnnConfig(n_layers=2, hidden_dim=4), 3))
    # Region 6 loses all its RNR edges and has no entity edge either.
    e = rnr.endpoints
    keep = (e[:, 0] != 6) & (e[:, 1] != 6)
    graph = HeteroGraph(n_regions=n, n_env=3, n_soc=2,
                        edges_rnr=EdgeFamily(e[keep].copy(),
                                             rnr.weights[keep].copy()),
                        edges_elr=elr, edges_slr=slr)
    cases.append(("zero in-degree region", graph, feats,
                  HgnnConfig(n_layers=2, hidden_dim=4), 4))
    cases.append(("three layers", graph, feats,
                  HgnnConfig(n_layers=3, hidden_dim=4), 6))
    grid = GridSpec(0.0, 0.0, 7, 1)
    feats = hand_features(grid, seed=42)
    cases.append(("1x7 grid", build_graph(grid, feats, 0.3, 0.2), feats,
                  HgnnConfig(n_layers=2, hidden_dim=4), 5))
    grid, feats, graph, _, _ = synth_world(5, 4, seed=43)
    cases.append(("one layer", graph, feats,
                  HgnnConfig(n_layers=1, hidden_dim=4), 8))
    return cases


def layer_inputs(graph, feats, config, seed):
    """Graph tensors, relations in use, random (w, b) per relation and
    for "self", and a random h."""
    gt = prepare_graph(graph, feats)
    rng = np.random.default_rng(seed)
    d = config.hidden_dim
    rels = list(gt.relations)
    weights = {r: (rng.normal(size=(d, d)), rng.normal(size=(1, d)))
               for r in ("self", *rels)}
    h = rng.normal(size=(gt.n_nodes, d))
    return gt, rels, weights, h


def run_layer(gt, rels, weights, h, trainable=False,
              layer=T.relational_layer):
    leaves = {k: (Tensor(w, requires_grad=trainable),
                  Tensor(b, requires_grad=trainable))
              for k, (w, b) in weights.items()}
    th = Tensor(h, requires_grad=trainable)
    out = layer(
        th, [(gt.relations[r], *leaves[r]) for r in rels], leaves["self"])
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
        by_name = {name: (graph, feats)
                   for name, graph, feats, _, _ in self.CASES}
        gt = prepare_graph(*by_name["isolated entity"])
        env = gt.relations["elr_r2e"].agg.has_in_edge
        soc = gt.relations["slr_r2e"].agg.has_in_edge
        assert env[2] == 0.0 and soc[1] == 0.0
        gt = prepare_graph(*by_name["zero in-degree region"])
        assert gt.relations["rnr"].agg.has_in_edge.sum() == gt.n_regions - 1
        gt = prepare_graph(*by_name["1x7 grid"])
        assert gt.relations["rnr"].agg.idx.shape == (7, 2)
        gt = prepare_graph(*by_name["relation subset"])
        assert sorted(gt.relations) == ["elr_e2r", "elr_r2e", "rnr"]
        assert {config.n_layers for _, _, _, config, _ in self.CASES} \
            == {1, 2, 3}

    def test_matches_per_relation_reference(self):
        # Oracle: the unfused rule, one dense mean per relation built
        # straight from the edge lists, plus the masked relation bias.
        for name, graph, feats, config, _ in self.CASES:
            gt, rels, weights, h = layer_inputs(graph, feats, config, 43)
            out, _, _ = run_layer(gt, rels, weights, h)
            want = h @ weights["self"][0] + weights["self"][1]
            for rel in rels:
                a, has_in = reference_adjacency(graph, gt, rel)
                w, b = weights[rel]
                want += a @ h @ w + has_in[:, None] * b
            assert np.allclose(out.data, want, atol=1e-12), name

    def test_matches_stacked_layer_with_gradients(self):
        for name, graph, feats, config, _ in self.CASES:
            gt, rels, weights, h = layer_inputs(graph, feats, config, 47)
            target = np.random.default_rng(48).normal(size=h.shape)
            runs = []
            for layer in (T.relational_layer, reference_stacked_layer):
                out, th, leaves = run_layer(gt, rels, weights, h,
                                            trainable=True, layer=layer)
                T.mean_all(T.square(T.sub(out, Tensor(target)))).backward()
                runs.append([out.data, th.grad] + [
                    t.grad for pair in leaves.values() for t in pair])
            for got, want in zip(*runs):
                assert got.shape == want.shape, name
                assert np.max(np.abs(got - want)) <= 1e-12, name

    def test_gradient_matches_finite_differences(self):
        for name, graph, feats, config, _ in self.CASES:
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
        for name, graph, feats, config, seed in self.CASES:
            state = init_state(config, graph.n_env, graph.n_soc, seed)
            base = hgnn_forward(graph, feats, state)
            for _ in range(3):
                perm = rng.permutation(graph.n_regions)
                graph_p, feats_p = relabel(graph, feats, perm)
                out = hgnn_forward(graph_p, feats_p, state)
                assert np.array_equal(out, base[perm]), name  # bit-for-bit

    def test_row_restricted_layer_matches_full_rows(self):
        # The restricted layer against the full one: its output rows, and
        # every gradient under the same upstream g, which the full layer
        # sees scattered into zeros.
        rng = np.random.default_rng(49)
        for name, graph, feats, config, _ in self.CASES:
            gt, rels, weights, h = layer_inputs(graph, feats, config, 50)
            n = gt.n_regions
            no_in_edge = np.flatnonzero(np.any(
                [gt.relations[r].agg.has_in_edge == 0 for r in rels
                 if gt.relations[r].dst == slice(0, n)], axis=0))
            assert no_in_edge.size, name
            subsets = [rng.choice(n, size=1), np.arange(n),
                       np.union1d(rng.choice(n, size=n // 2, replace=False),
                                  no_in_edge[:1])]
            if name == "zero in-degree region":
                subsets.append(np.array([gt.rank[6], gt.rank[0]]))
            full, th_full, leaves_full = run_layer(gt, rels, weights, h,
                                                   trainable=True)
            for rows in subsets:
                subset = row_subset(gt, rows)
                leaves = {k: (Tensor(w, requires_grad=True),
                              Tensor(b, requires_grad=True))
                          for k, (w, b) in weights.items()}
                th = Tensor(h, requires_grad=True)
                kept = [r for r in rels if r in subset.relations]
                assert set(rels) - set(kept) <= {"elr_r2e", "slr_r2e"}, name
                out = T.relational_layer(
                    th, [(subset.relations[r], *leaves[r]) for r in kept],
                    leaves["self"], subset.rows)
                assert out.shape == (subset.rows.size, h.shape[1]), name
                assert np.max(np.abs(out.data - full.data[subset.rows])) \
                    <= 1e-12, name
                g = rng.normal(size=out.shape)
                g_full = np.zeros_like(full.data)
                g_full[subset.rows] = g
                for t in [th_full] + [x for pair in leaves_full.values()
                                      for x in pair]:
                    t.grad = None
                full._backward(g_full)
                out._backward(g)
                assert np.max(np.abs(th.grad - th_full.grad)) <= 1e-12, name
                for key, pair in leaves.items():
                    for got, want in zip(pair, leaves_full[key]):
                        if key not in kept and key != "self":
                            assert got.grad is None, (name, key)
                            assert not want.grad.any(), (name, key)
                        else:
                            assert np.max(np.abs(got.grad - want.grad)) \
                                <= 1e-12, (name, key)


def pos_scaled(matrix):
    """A copy of the feature rows with each position column min-max
    scaled, a constant column to 0."""
    x = matrix.copy()
    for col in (0, 1):
        lo, hi = x[:, col].min(), x[:, col].max()
        x[:, col] = (x[:, col] - lo) / (hi - lo) if hi > lo else 0.0
    return x


def canonical_inputs(feats, gt):
    """The region feature rows in internal order, positions min-max
    scaled."""
    return pos_scaled(feats.matrix[np.argsort(gt.rank)])


def unfolded_backbone(x, gt, leaves, config, subset=None):
    """The backbone without the layer-0 fold: project the region features,
    append the entity embeddings, then relational_layer for every layer,
    the last one on ``subset.rows`` alone when given."""
    h = T.concat_rows(T.add(T.matmul(Tensor(x), leaves["w_in"]),
                            leaves["b_in"]), leaves["entity_emb"])
    for layer in range(config.n_layers):
        last = layer == config.n_layers - 1
        restrict = last and subset is not None
        blocks = subset.relations if restrict else gt.relations
        relations = [(block, leaves[f"layer{layer}.{rel}.w"],
                      leaves[f"layer{layer}.{rel}.b"])
                     for rel, block in blocks.items()]
        self_loop = (leaves[f"layer{layer}.self.w"],
                     leaves[f"layer{layer}.self.b"])
        acc = T.relational_layer(h, relations, self_loop,
                                 subset.rows if restrict else None)
        h = acc if last else T.relu(acc)
    return h


class TestFoldedLayerZero:
    CASES = fused_layer_cases()

    def test_matches_unfolded_backbone_with_gradients(self):
        # Output and every parameter gradient against the unfolded stack,
        # for the full forward and for row subsets of the last layer.
        rng = np.random.default_rng(55)
        for name, graph, feats, config, seed in self.CASES:
            gt = prepare_graph(graph, feats)
            params = {k: rng.normal(scale=0.7, size=v.shape) for k, v in
                      init_state(config, graph.n_env, graph.n_soc, seed)
                      .params.items() if not k.startswith("head.")}
            x = canonical_inputs(feats, gt)
            n = gt.n_regions
            for rows in (None, rng.choice(n, size=1),
                         rng.choice(n, size=n // 2, replace=False)):
                subset = None if rows is None else row_subset(gt, rows)
                runs = []
                for forward in (backbone_forward,
                                lambda *a: unfolded_backbone(x, *a)):
                    leaves = leaves_of(params)
                    out = forward(gt, leaves, config, subset)
                    target = np.random.default_rng(56).normal(size=out.shape)
                    T.mean_all(T.square(T.sub(out, Tensor(target)))) \
                        .backward()
                    runs.append((out, leaves))
                (got, got_leaves), (want, want_leaves) = runs
                where = (name, None if rows is None else rows.size)
                assert got.shape == want.shape, where
                assert np.max(np.abs(got.data - want.data)) <= 1e-12, where
                for key, leaf in want_leaves.items():
                    a, b = got_leaves[key].grad, leaf.grad
                    if a is None or b is None:   # None: no path to the loss
                        assert not np.any(b if a is None else a), where + (key,)
                    else:
                        assert np.max(np.abs(a - b)) <= 1e-12, where + (key,)

    def test_layer_zero_runs_no_relational_layer(self, monkeypatch):
        calls = []
        layer = T.relational_layer
        monkeypatch.setattr(T, "relational_layer",
                            lambda *a: calls.append(1) or layer(*a))
        for name, graph, feats, config, seed in self.CASES:
            gt = prepare_graph(graph, feats)
            state = init_state(config, graph.n_env, graph.n_soc, seed)
            calls.clear()
            backbone_forward(gt, leaves_of(state.params), config)
            assert len(calls) == config.n_layers - 1, name


def test_forward_without_gradients_records_no_tape():
    # With no leaf requiring a gradient, the result keeps no parent links
    # and no backward closure, so no layer's saved arrays outlive it.
    _, feats, graph, _, _ = synth_world(6, 5, seed=8)
    config = HgnnConfig(n_layers=3, hidden_dim=4)
    state = init_state(config, graph.n_env, graph.n_soc, seed=0)
    gt = prepare_graph(graph, feats)
    h = backbone_forward(gt, geohg.model._leaves(state.params,
                                                 requires_grad=False), config)
    assert h._parents == () and h._backward is None
    assert not h.requires_grad
    trained = backbone_forward(gt, geohg.model._leaves(state.params), config)
    assert trained._parents and trained._backward is not None
    assert np.array_equal(h.data, trained.data)


def full_mse_reference(gt, leaves, config, train_internal, targets):
    """The supervised loss with the whole last layer and head."""
    h = backbone_forward(gt, leaves, config)
    preds = head_forward(T.gather_rows(h, np.arange(gt.n_regions)), leaves)
    err = T.sub(T.gather_rows(preds, train_internal),
                Tensor(targets.reshape(-1, 1)))
    return T.mean_all(T.square(err))


def full_infonce_reference(gt, leaves, config, anchors, plan, temperature):
    """InfoNCE with the whole last layer: the plan zero-padded to every
    node."""
    h = backbone_forward(gt, leaves, config)
    pool = np.pad(plan, ((0, 0), (0, gt.n_nodes - plan.shape[1])))
    scores = T.scale(T.matmul_t(T.gather_rows(h, anchors),
                                T.matmul(Tensor(pool), h)), 1.0 / temperature)
    return T.mean_all(T.sub(T.log_sum_exp(scores), T.diag(scores)))


class TestRowSubsetLosses:
    """The losses run their last layer and head on a row subset; values and
    gradients must match the full forward."""

    def setup(self, seed):
        grid, feats, graph, _, _ = synth_world(6, 6, seed=seed)
        config = HgnnConfig(n_layers=2, hidden_dim=8)
        state = init_state(config, graph.n_env, graph.n_soc, seed=seed)
        # Random parameters everywhere, biases included.
        rng = np.random.default_rng(seed)
        params = {k: rng.normal(scale=0.5, size=v.shape)
                  for k, v in state.params.items()}
        return graph, feats, config, prepare_graph(graph, feats), \
            params, rng

    @staticmethod
    def assert_same(got_loss, got_leaves, want_loss, want_leaves):
        assert abs(got_loss.item() - want_loss.item()) <= 1e-12
        for name, want in want_leaves.items():
            got = got_leaves[name].grad
            want = want.grad
            if got is None or want is None:     # None: no path to the loss
                assert not np.any(want if got is None else got), name
            else:
                assert np.max(np.abs(got - want)) <= 1e-12, name

    def test_mse_matches_full_forward(self):
        for seed in (51, 52):
            graph, feats, config, gt, params, rng = self.setup(seed)
            train = rng.choice(gt.n_regions, size=9, replace=False)
            extra = rng.choice(gt.n_regions, size=5, replace=False)
            y = rng.normal(size=train.size)
            want_leaves = leaves_of(params)
            want = full_mse_reference(gt, want_leaves, config, train, y)
            want.backward()
            for subset in (None, row_subset(gt, np.union1d(train, extra))):
                got_leaves = leaves_of(params)
                got, preds = mse_training_loss(gt, got_leaves, config, train,
                                               y, subset)
                got.backward()
                rows = np.unique(train) if subset is None else subset.rows
                assert preds.shape == (rows.size, 1)
                self.assert_same(got, got_leaves, want, want_leaves)

    def test_infonce_matches_full_forward(self):
        for seed in (53, 54):
            graph, feats, config, gt, params, rng = self.setup(seed)
            positives = [np.sort(gt.rank[p]) if p.size else p
                         for p in positive_sets(graph, feats, 2)]
            batch = rng.choice(gt.n_regions, size=7, replace=False)
            anchors = gt.rank[batch]
            plan = batch_positive_plan([positives[i] for i in batch])
            want_leaves = leaves_of(params)
            want = full_infonce_reference(gt, want_leaves, config, anchors,
                                          plan, 0.1)
            want.backward()
            got_leaves = leaves_of(params)
            got = infonce_loss(gt, got_leaves, config, anchors, plan, 0.1)
            got.backward()
            self.assert_same(got, got_leaves, want, want_leaves)


def reference_fit(params, lr, n_epochs, epoch_steps, what, patience=None):
    """The per-parameter Adam loop: each parameter has its own moments and
    step count, is replaced by a pure update, and is skipped in a step where
    it has no gradient. Otherwise the same loop as model._fit."""
    params = dict(params)
    adam = {name: (np.zeros(arr.shape), np.zeros(arr.shape), 0)
            for name, arr in params.items()}
    best_val, best, wait = np.inf, dict(params), 0
    log = []
    for epoch in range(n_epochs):
        for objective in epoch_steps(epoch):
            leaves = leaves_of(params)
            loss, val_loss = objective(leaves)
            log.append((epoch, loss.item(), val_loss))
            if patience is not None:
                if val_loss < best_val:
                    best_val, best, wait = val_loss, dict(params), 0
                else:
                    wait += 1
                    if wait >= patience:
                        return best, log
            loss.backward()
            for name, leaf in leaves.items():
                if leaf.grad is not None:
                    m, v, step = adam[name]
                    params[name], m, v = reference_adam_step(
                        params[name], leaf.grad, m, v, step + 1, lr)
                    adam[name] = (m, v, step + 1)
    return (best if patience is not None else params), log


class TestFit:
    """model._fit, one Adam update over a flat vector, against the
    per-parameter loop; the loss never reaches "unused"."""

    @staticmethod
    def params():
        rng = np.random.default_rng(3)
        return {"a": rng.normal(size=(2, 3)),
                "b": np.array([[0.0, -0.0, 0.5]]),
                "unused": np.array([-0.0, 1.5, 0.0, -2.0]),
                "c": rng.normal(size=(3, 1))}

    @staticmethod
    def objective(val_losses):
        rng = np.random.default_rng(4)
        x, y = Tensor(rng.normal(size=(5, 2))), Tensor(rng.normal(size=(5, 1)))
        scripted = iter(val_losses)

        def objective(leaves):
            h = T.relu(T.add(T.matmul(x, leaves["a"]), leaves["b"]))
            err = T.sub(T.matmul(h, leaves["c"]), y)
            return T.mean_all(T.square(err)), next(scripted)
        return objective

    def run_both(self, val_losses, steps_per_epoch, n_epochs, patience):
        runs = []
        for fit in (geohg.model._fit, reference_fit):
            objective = self.objective(val_losses)
            params = self.params()
            runs.append(fit(params, 0.05, n_epochs,
                            lambda epoch: (objective,) * steps_per_epoch,
                            "test", patience=patience))
            for name, arr in self.params().items():   # input left as it was
                assert params[name].tobytes() == arr.tobytes(), name
        (got, got_log), (want, want_log) = runs
        assert got_log == want_log
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].shape == arr.shape
            assert got[name].tobytes() == arr.tobytes(), name
        assert got["unused"].tobytes() == self.params()["unused"].tobytes()
        return got, got_log

    def test_matches_per_parameter_loop_bitwise(self):
        got, log = self.run_both([0.0] * 8, steps_per_epoch=2, n_epochs=4,
                                 patience=None)
        assert [epoch for epoch, *_ in log] == [0, 0, 1, 1, 2, 2, 3, 3]
        assert not np.array_equal(got["a"], self.params()["a"])

    @pytest.mark.parametrize("n_epochs, n_rows", [(10, 6), (5, 5)])
    def test_patience_restores_the_best_step(self, n_epochs, n_rows):
        # The best validation loss is the third row's: the parameters after
        # two updates come back, whether three rows with no strict gain stop
        # training or the epochs run out first.
        got, log = self.run_both([5.0, 4.0, 3.0, 3.5, 3.0, 4.0, 9.0],
                                 steps_per_epoch=1, n_epochs=n_epochs,
                                 patience=3)
        assert len(log) == n_rows
        after_two, _ = reference_fit(self.params(), 0.05, 2,
                                     lambda epoch: (self.objective([0.0]),),
                                     "test")
        for name, arr in after_two.items():
            assert got[name].tobytes() == arr.tobytes(), name


class TestTrainEndToEnd:
    def test_constant_labels_converge_to_constant(self):
        grid, feats, graph, _, _ = synth_world(10, 10, seed=15)
        labels = constant_labels(grid, 3.7)
        split = make_split(labels, masked_ratio=0.25, seed=0)
        config = HgnnConfig(n_layers=2, hidden_dim=8)
        train = TrainConfig(max_epochs=300, patience=300)
        state, log = train_end_to_end(graph, feats, labels, split, config,
                                      train, seed=1)
        assert min(row[2] for row in log) < 5e-3
        preds = predict_all(state, graph, feats)
        assert np.max(np.abs(preds - 3.7)) < 0.2

    def test_fixed_seed_bit_identical_logs(self):
        grid, feats, graph, labels, _ = synth_world(6, 6, seed=16)
        split = make_split(labels, masked_ratio=0.5, seed=2)
        config = HgnnConfig(n_layers=2, hidden_dim=8)
        train = TrainConfig(max_epochs=30, patience=30)
        state_a, log_a = train_end_to_end(graph, feats, labels, split, config,
                                          train, seed=3)
        state_b, log_b = train_end_to_end(graph, feats, labels, split, config,
                                          train, seed=3)
        assert log_a == log_b
        for name in state_a.params:
            assert np.array_equal(state_a.params[name], state_b.params[name])

    def test_prepared_graph_passed_in_gives_the_same_results(self):
        grid, feats, graph, labels, _ = synth_world(6, 6, seed=16)
        split = make_split(labels, masked_ratio=0.5, seed=2)
        config = HgnnConfig(n_layers=2, hidden_dim=8)
        train = TrainConfig(max_epochs=20, patience=20)
        state_a, log_a = train_end_to_end(graph, feats, labels, split, config,
                                          train, seed=3)
        gt = prepare_graph(graph, feats)
        state_b, log_b = train_end_to_end(graph, feats, labels, split, config,
                                          train, seed=3, gt=gt)
        assert log_a == log_b
        for name in state_a.params:
            assert np.array_equal(state_a.params[name], state_b.params[name])
        assert np.array_equal(predict_all(state_b, graph, feats, gt),
                              predict_all(state_a, graph, feats))

    def test_last_layer_r2e_parameters_untouched(self):
        # Nothing reads the entity rows of the last layer, so its
        # region->entity relations get no update.
        grid, feats, graph, labels, _ = synth_world(6, 6, seed=16)
        split = make_split(labels, masked_ratio=0.5, seed=2)
        config = HgnnConfig(n_layers=2, hidden_dim=8)
        init = init_state(config, graph.n_env, graph.n_soc, seed=3).params
        state, _ = train_end_to_end(graph, feats, labels, split, config,
                                    TrainConfig(max_epochs=10, patience=10),
                                    seed=3)
        assert set(state.params) == set(init)
        for rel in ("elr_r2e", "slr_r2e"):
            for part in ("w", "b"):
                name = f"layer1.{rel}.{part}"
                assert state.params[name].tobytes() == init[name].tobytes()
            assert not np.array_equal(state.params[f"layer0.{rel}.w"],
                                      init[f"layer0.{rel}.w"])

    def test_linear_target_high_r2_on_noiseless_world(self):
        # Noiseless world: y is exactly linear in each region's own features,
        # so a single-layer model (dominant self path) should recover it.
        grid, feats, graph, labels, _ = synth_world(
            12, 12, seed=17, noise_sigma=0.0, jump=0.0, smooth_amplitude=0.0)
        split = make_split(labels, masked_ratio=0.3, seed=4)
        config = HgnnConfig(n_layers=1, hidden_dim=32)
        train = TrainConfig(max_epochs=600, patience=150)
        state, _ = train_end_to_end(graph, feats, labels, split, config,
                                    train, seed=5)
        masked = regions_of(labels, split.masked)
        y_pred = predict_all(state, graph, feats)[cell_rows(feats.cells, masked)]
        y_true = labels.values[split.masked]
        assert r2(y_true, y_pred) >= 0.95

    def test_empty_split_rejected(self):
        grid, feats, graph, labels, _ = synth_world(4, 4, seed=18)
        split = make_split(labels, masked_ratio=0.5, seed=5)
        bad = type(split)(masked=split.masked,
                          train=np.array([], dtype=np.int64),
                          validation=split.validation)
        with pytest.raises(ValueError, match="non-empty"):
            train_end_to_end(graph, feats, labels, bad, HgnnConfig(),
                             TrainConfig(), seed=0)

    def test_log_rows_are_pre_update_losses(self):
        # Epoch 0 must record the seeded-init model, so a 1-epoch run and a
        # 30-epoch run agree on the first row.
        grid, feats, graph, labels, _ = synth_world(5, 5, seed=19)
        split = make_split(labels, masked_ratio=0.5, seed=6)
        config = HgnnConfig(hidden_dim=8)
        short = TrainConfig(max_epochs=1, patience=1)
        longer = TrainConfig(max_epochs=30, patience=30)
        _, log_short = train_end_to_end(graph, feats, labels, split, config,
                                        short, seed=7)
        _, log_long = train_end_to_end(graph, feats, labels, split, config,
                                       longer, seed=7)
        assert log_short[0] == log_long[0]


class TestPredict:
    def test_prediction_covers_requested_regions(self):
        grid, feats, graph, labels, _ = synth_world(5, 5, seed=20)
        split = make_split(labels, masked_ratio=0.5, seed=8)
        state, _ = train_end_to_end(graph, feats, labels, split,
                                    HgnnConfig(hidden_dim=8),
                                    TrainConfig(max_epochs=10, patience=10),
                                    seed=9)
        wanted = [(0, 0), (3, 2), (4, 4)]
        rows = cell_rows(feats.cells, wanted)
        assert feats.cells[rows].tolist() == [list(r) for r in wanted]
        assert np.isfinite(predict_all(state, graph, feats)[rows]).all()

    def test_untrained_state_rejected(self):
        grid, feats, graph, _, _ = synth_world(4, 4, seed=21)
        state = init_state(HgnnConfig(hidden_dim=8), graph.n_env, graph.n_soc,
                           seed=0)
        with pytest.raises(ValueError, match="untrained"):
            predict_all(state, graph, feats)

    def test_pretrained_state_rejected(self):
        # Pretraining fits no label transform, so its head predicts nothing.
        grid, feats, graph, _, _ = synth_world(4, 4, seed=21)
        state, _, _ = pretrain_contrastive(
            graph, feats, SslConfig(batch_size=8, epochs=1),
            HgnnConfig(n_layers=1, hidden_dim=4), seed=0)
        with pytest.raises(ValueError, match="pretrained backbone"):
            predict_all(state, graph, feats)

    def test_memorizes_training_regions_on_constant_field(self):
        grid, feats, graph, _, _ = synth_world(5, 5, seed=22)
        labels = constant_labels(grid, -1.25)
        split = make_split(labels, masked_ratio=0.5, seed=10)
        config = HgnnConfig(n_layers=1, hidden_dim=8)
        train = TrainConfig(max_epochs=300, patience=300)
        state, _ = train_end_to_end(graph, feats, labels, split, config,
                                    train, seed=11)
        train_regions = regions_of(labels, split.train)
        got = predict_all(state, graph, feats)[cell_rows(feats.cells,
                                                         train_regions)]
        for value in got:
            assert value == pytest.approx(-1.25, abs=0.05)


class TestInfoNce:
    def batch_setup(self, seed, hidden_dim=16, batch=6, top_k=4):
        grid, feats, graph, _, _ = synth_world(6, 6, seed=seed)
        config = HgnnConfig(n_layers=2, hidden_dim=hidden_dim)
        state = init_state(config, graph.n_env, graph.n_soc, seed=seed)
        gt = prepare_graph(graph, feats)
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
        raw = feats.matrix
        norms = np.linalg.norm(raw, axis=1)
        norms[norms == 0] = 1.0
        sims = (raw @ raw.T) / np.outer(norms, norms)
        np.fill_diagonal(sims, -np.inf)
        for i in range(grid.n_regions):
            extra = set(sets2[i].tolist())
            ranked = np.lexsort((np.arange(grid.n_regions), -sims[i]))[:2]
            want = set(sets0[i].tolist()) | {int(j) for j in ranked}
            assert extra == want
            assert i not in extra

    @pytest.mark.parametrize("block", [7, 256])
    def test_blocked_matches_dense_with_exact_ties(self, monkeypatch, block):
        # Small-integer rows and power-of-two multiples of them: the dot
        # products are exact, so many cosines tie exactly, and both sides
        # compute each similarity by the same expression.
        monkeypatch.setattr(geohg.model, "SIMILARITY_BLOCK", block)
        grid = GridSpec(0.0, 0.0, 20, 15)
        rng = np.random.default_rng(30)
        base = rng.integers(0, 4, size=(9, 7)).astype(np.float64)
        base[0] = 0.0                                   # a zero-norm row
        raw = np.array([base[rng.integers(0, 9)]
                        * 2.0 ** int(rng.integers(-2, 3))
                        for _ in range(grid.n_regions)])
        feats = table(grid.cells(), raw[:, 2:5], raw[:, 5:],
                      pos=raw[:, :2])
        graph = rnr_only_graph(grid, hand_features(grid, seed=31))
        n = grid.n_regions
        norms = np.sqrt((raw ** 2).sum(axis=1))
        norms[norms == 0.0] = 1.0
        sims = (raw @ raw.T) / np.outer(norms, norms)
        np.fill_diagonal(sims, -np.inf)
        spatial = positive_sets(graph, feats, top_k=0)
        for top_k in (1, 5, n + 3):
            got = positive_sets(graph, feats, top_k)
            for i in range(n):
                ranked = np.lexsort((np.arange(n), -sims[i]))
                want = set(spatial[i].tolist()) | set(
                    ranked[:min(top_k, n - 1)].tolist())
                want.discard(i)
                assert np.array_equal(got[i], sorted(want)), (top_k, i)

    def test_anchor_never_in_own_set(self):
        grid, feats, graph, _, _ = synth_world(4, 4, seed=29)
        for i, s in enumerate(positive_sets(graph, feats, top_k=4)):
            assert i not in s.tolist()


class TestPretrain:
    def test_deterministic_embeddings(self):
        grid, feats, graph, _, _ = synth_world(6, 6, seed=30)
        ssl = SslConfig(batch_size=12, epochs=4)
        config = HgnnConfig(n_layers=2, hidden_dim=8)
        _, emb_a, log_a = pretrain_contrastive(graph, feats, ssl, config,
                                               seed=1)
        _, emb_b, log_b = pretrain_contrastive(graph, feats, ssl, config,
                                               seed=1)
        assert np.array_equal(emb_a, emb_b)
        assert log_a == log_b

    def test_embeddings_shape_and_state_flag(self):
        grid, feats, graph, _, _ = synth_world(6, 6, seed=31, theta_env=0.3,
                                               theta_soc=0.7)
        ssl = SslConfig(batch_size=9, epochs=3)
        config = HgnnConfig(n_layers=1, hidden_dim=8)
        state, emb, log = pretrain_contrastive(graph, feats, ssl, config,
                                               seed=2)
        assert emb.shape == (36, 8)
        assert np.all(np.isfinite(emb))
        assert state.labels is None     # the head is not trained
        assert state.thresholds == (0.3, 0.7)
        assert len(log) == 3 and all(np.isfinite(v) for _, v in log)

    def test_unreached_parameters_keep_their_init(self, monkeypatch):
        # The head and the last layer's region->entity relations have no
        # path to the InfoNCE loss: their gradient is 0 in every Adam step,
        # so they keep their init bit for bit.
        grid, feats, graph, _, _ = synth_world(6, 6, seed=34)
        ssl = SslConfig(batch_size=9, epochs=2)
        config = HgnnConfig(n_layers=2, hidden_dim=8)
        calls = {"adam": 0, "loss": 0}
        adam, loss = T.adam_step, geohg.model.infonce_loss

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(T, "adam_step", counted("adam", adam))
        monkeypatch.setattr(geohg.model, "infonce_loss",
                            counted("loss", loss))
        init = init_state(config, graph.n_env, graph.n_soc, seed=4).params
        state, _, _ = pretrain_contrastive(graph, feats, ssl, config, seed=4)
        unreached = [k for k in init if k.startswith("head.")] + [
            f"layer1.{rel}.{part}" for rel in ("elr_r2e", "slr_r2e")
            for part in ("w", "b")]
        assert len(unreached) == 10
        for name in unreached:
            assert state.params[name].tobytes() == init[name].tobytes(), name
        for name in set(init) - set(unreached):
            assert not np.array_equal(state.params[name], init[name]), name
        assert calls["loss"] == 2 * (36 // 9)
        assert calls["adam"] == calls["loss"]

    def test_batch_too_large_rejected(self):
        grid, feats, graph, _, _ = synth_world(4, 4, seed=32)
        with pytest.raises(ValueError, match="batch size"):
            pretrain_contrastive(graph, feats,
                                 SslConfig(batch_size=64, epochs=1),
                                 HgnnConfig(), seed=0)

    def test_isolated_regions_skipped_with_warning(self):
        grid = GridSpec(0.0, 0.0, 4, 1)
        feats = hand_features(grid, seed=33)
        graph = HeteroGraph(n_regions=4, n_env=3, n_soc=2)  # no edges at all
        ssl = SslConfig(batch_size=2, epochs=1, top_k=0)
        config = HgnnConfig(n_layers=1, hidden_dim=4)
        with pytest.warns(UserWarning, match="no positives"):
            _, emb, log = pretrain_contrastive(graph, feats, ssl, config,
                                               seed=3)
        assert np.all(np.isfinite(emb))
        assert math.isnan(log[0][1])  # every batch skipped


class TestFinetuneHead:
    def embedding_problem(self, seed, n=60, d=12, noise=0.0):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=(n, d))
        beta = rng.normal(size=d)
        y = e @ beta + noise * rng.standard_normal(n)
        regions = [(i % 10, i // 10) for i in range(n)]
        labels = LabelSet(cells=regions, values=y)
        return e, regions, labels

    def test_backbone_untouched_by_finetune(self):
        grid, feats, graph, labels, _ = synth_world(6, 6, seed=34)
        ssl = SslConfig(batch_size=12, epochs=2)
        config = HgnnConfig(n_layers=1, hidden_dim=8)
        state, emb, _ = pretrain_contrastive(graph, feats, ssl, config, seed=4)
        before = backbone_checksum(state)
        split = make_split(labels, masked_ratio=0.5, seed=11)
        finetune_head(emb, labels, split,
                      TrainConfig(max_epochs=40, patience=40),
                      cells=feats.cells, seed=4)
        assert backbone_checksum(state) == before

    def test_constant_labels_converge(self):
        e, regions, _ = self.embedding_problem(seed=35, n=200)
        labels = LabelSet(cells=regions, values=np.full(len(regions), 2.5))
        split = make_split(labels, masked_ratio=0.3, seed=12)
        train = TrainConfig(max_epochs=800, patience=800)
        head, log = finetune_head(e, labels, split, train, regions, seed=5)
        assert min(row[2] for row in log) < 1e-2
        preds = predict_from_embeddings(head, e)
        idx = {r: i for i, r in enumerate(regions)}
        train_err = [abs(preds[idx[r]] - 2.5)
                     for r in regions_of(labels, split.train)]
        assert max(train_err) < 0.1

    def test_linear_target_high_r2(self):
        e, regions, labels = self.embedding_problem(seed=36, n=200)
        split = make_split(labels, masked_ratio=0.3, seed=13)
        train = TrainConfig(max_epochs=500, patience=100)
        head, _ = finetune_head(e, labels, split, train, regions, seed=6)
        preds = predict_from_embeddings(head, e)
        idx = {r: i for i, r in enumerate(regions)}
        y_true = labels.values[split.masked]
        y_pred = np.array([preds[idx[r]]
                           for r in regions_of(labels, split.masked)])
        assert r2(y_true, y_pred) >= 0.9

    def test_first_log_row_is_untrained_head(self):
        e, regions, labels = self.embedding_problem(seed=37)
        split = make_split(labels, masked_ratio=0.4, seed=14)
        train = TrainConfig(max_epochs=20, patience=20)
        head, log = finetune_head(e, labels, split, train, regions, seed=7)
        # Recompute the untrained-head validation MSE independently.
        fresh = init_head(d=12, seed=7)
        idx = {r: i for i, r in enumerate(regions)}
        y_train = labels.values[split.train]
        y_val = LabelTransform.fit("zscore", y_train).apply(
            labels.values[split.validation])
        val_rows = e[[idx[r] for r in regions_of(labels, split.validation)]]
        want = float(np.mean((head_reference(fresh.params, val_rows).ravel()
                              - y_val) ** 2))
        assert log[0][2] == pytest.approx(want, abs=1e-12)

    def test_split_region_without_an_embedding_rejected(self):
        e, regions, labels = self.embedding_problem(seed=39)
        split = make_split(labels, masked_ratio=0.4, seed=16)
        region = regions_of(labels, split.train[:1])[0]
        kept = [i for i, r in enumerate(regions) if r != region]
        with pytest.raises(GeoDataError,
                           match=re.escape(f"split region {region}")):
            finetune_head(e[kept], labels, split,
                          TrainConfig(max_epochs=2, patience=2),
                          [regions[i] for i in kept], seed=0)

    def test_row_order_of_the_embeddings_is_irrelevant(self):
        # Rows and their cells shuffled by one permutation: the lookup
        # finds the same embedding rows, so head and log are bit-identical.
        e, regions, labels = self.embedding_problem(seed=40)
        split = make_split(labels, masked_ratio=0.4, seed=17)
        train = TrainConfig(max_epochs=15, patience=15)
        cells = np.array(regions)
        perm = np.random.default_rng(41).permutation(len(cells))
        head, log = finetune_head(e, labels, split, train, cells, seed=9)
        again, log_again = finetune_head(e[perm], labels, split, train,
                                         cells[perm], seed=9)
        assert log_again == log
        assert again.labels == head.labels
        for name, arr in head.params.items():
            assert again.params[name].tobytes() == arr.tobytes(), name

    def test_predictions_match_reference_head_bitwise(self):
        e, regions, labels = self.embedding_problem(seed=38)
        split = make_split(labels, masked_ratio=0.4, seed=15)
        train = TrainConfig(max_epochs=20, patience=20)
        head, _ = finetune_head(e, labels, split, train, regions, seed=8)
        assert head.labels.kind == "zscore"
        want = head.labels.invert(head_reference(head.params, e).ravel())
        assert predict_from_embeddings(head, e).tobytes() == want.tobytes()


class TestCheckpointsAndIo:
    def test_model_checkpoint_round_trip(self, tmp_path):
        grid, feats, graph, labels, _ = synth_world(5, 5, seed=38,
                                                    theta_env=0.4,
                                                    theta_soc=1.2)
        split = make_split(labels, masked_ratio=0.5, seed=15)
        state, _ = train_end_to_end(graph, feats, labels, split,
                                    HgnnConfig(hidden_dim=8),
                                    TrainConfig(max_epochs=10, patience=10),
                                    seed=8)
        assert state.thresholds == (0.4, 1.2)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, str(path))
        saved = json.loads(path.read_text())["config"]
        assert sorted(saved) == sorted(f.name for f in fields(HgnnConfig))
        again = load_checkpoint(str(path))
        assert again.config == state.config
        assert again.thresholds == (0.4, 1.2)
        assert again.labels == state.labels
        for name in state.params:
            assert np.array_equal(again.params[name], state.params[name])
        assert np.array_equal(predict_all(again, graph, feats),
                              predict_all(state, graph, feats))

    def test_save_of_load_rewrites_the_file_byte_for_byte(self, tmp_path):
        # A trained model, a pretrained backbone and a head: loading keeps
        # every stored value. A model stores only its architecture as
        # config, a head no config at all, and only trained states carry a
        # label transform.
        grid, feats, graph, labels, _ = synth_world(6, 6, seed=39,
                                                    theta_env=0.4,
                                                    theta_soc=1.2)
        split = make_split(labels, masked_ratio=0.5, seed=16)
        config = HgnnConfig(n_layers=2, hidden_dim=8)
        train = TrainConfig(max_epochs=5, patience=5)
        model, _ = train_end_to_end(graph, feats, labels, split, config,
                                    train, seed=9)
        backbone, emb, _ = pretrain_contrastive(
            graph, feats, SslConfig(batch_size=12, epochs=1), config, seed=9)
        head, _ = finetune_head(emb, labels, split, train, feats.cells,
                                seed=9)
        for name, state, kind in (("model", model, "model"),
                                  ("backbone", backbone, "model"),
                                  ("head", head, "head")):
            path = tmp_path / f"{name}.json"
            save_checkpoint(state, str(path))
            payload = json.loads(path.read_text())
            if kind == "model":
                assert sorted(payload["config"]) \
                    == sorted(f.name for f in fields(HgnnConfig))
            else:
                assert "config" not in payload
            assert (payload["labels"] is None) == (name == "backbone"), name
            again = tmp_path / f"{name}-again.json"
            save_checkpoint(load_checkpoint(str(path), kind), str(again))
            assert again.read_bytes() == path.read_bytes(), name

    def test_wrong_kind_rejected(self, tmp_path):
        head, _ = HeadState_roundtrip_helper(4, tmp_path)
        with pytest.raises(ValueError, match="model checkpoint"):
            load_checkpoint(str(tmp_path / "head.json"))

    def test_head_round_trip(self, tmp_path):
        head, again = HeadState_roundtrip_helper(4, tmp_path)
        assert again.labels == head.labels
        for name in head.params:
            assert np.array_equal(again.params[name], head.params[name])

    def test_embeddings_round_trip(self, tmp_path):
        rng = np.random.default_rng(39)
        cells = np.array([(x, y) for y in range(3) for x in range(4)])
        emb = rng.normal(size=(12, 5))
        path = tmp_path / "emb.csv"
        write_embeddings(cells, emb, str(path), header_comments=["d = 5"])
        got_cells, got = load_embeddings(str(path))
        assert np.array_equal(got_cells, cells)
        assert np.array_equal(got, emb)

    def test_write_of_load_rewrites_the_body_byte_for_byte(self, tmp_path):
        # File order, not (y, x) order, and repr floats survive the trip.
        path, again = tmp_path / "emb.csv", tmp_path / "again.csv"
        body = ("x_r,y_r,e_0,e_1\n3,1,0.1,-2.5e-17\n0,0,1e+300,7.0\n"
                "-2,5,0.0,-0.0\n")
        path.write_text("# d = 2\n" + body)
        cells, emb = load_embeddings(str(path))
        assert cells.dtype == np.int64
        write_embeddings(cells, emb, str(again))
        assert again.read_text() == body

    def test_parameter_shapes_checked_against_config(self, tmp_path):
        config = HgnnConfig(n_layers=1, hidden_dim=4)
        state = init_state(config, n_env=3, n_soc=2, seed=1)
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
        for thresholds in ([0.6], None):
            bad = json.loads(json.dumps(good))
            bad["thresholds"] = thresholds
            rejected(bad, "malformed checkpoint")
        bad = json.loads(json.dumps(good))
        del bad["thresholds"]
        rejected(bad, "malformed checkpoint")
        bad = json.loads(json.dumps(good))
        for version in (1, 2, 3):   # before thresholds; old config; one
                                    # config for every stage
            bad["version"] = version
            rejected(bad, f"not a version-{CHECKPOINT_VERSION} model "
                          f"checkpoint")
        path.write_text(json.dumps(good))
        assert load_checkpoint(str(path)).params.keys() == state.params.keys()

    def test_head_shapes_checked(self, tmp_path):
        head = init_head(d=6, seed=0)
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

    def test_embeddings_repeated_region_rejected(self, tmp_path):
        # A repeated region would have two embedding rows, so the file
        # has no one meaning for it.
        path = tmp_path / "emb.csv"
        path.write_text("# d = 2\nx_r,y_r,e_0,e_1\n0,0,1.0,2.0\n1,0,0.5,0.5\n"
                        "\n0,0,3.0,4.0\n")
        with pytest.raises(GeoDataError,
                           match=r"line 6: region \(0, 0\) repeats line 3") as info:
            load_embeddings(str(path))
        assert str(path) in str(info.value)

    def test_embeddings_header_must_be_exact(self, tmp_path):
        for header in ("x_r,y_r,value", "x_r,y_r", "x_r,y_r,e_1",
                       "x_r,y_r,e_0,e_2", "x_r,y_r,e_0,value"):
            path = tmp_path / "emb.csv"
            width = header.count(",") - 1
            path.write_text(header + "\n" + "0,0" + ",1.0" * width + "\n")
            with pytest.raises(GeoDataError, match="not an embeddings CSV"):
                load_embeddings(str(path))

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


def HeadState_roundtrip_helper(d, tmp_path):
    head = init_head(d, seed=0)
    head.labels = LabelTransform("zscore", 0.0, 1.0)
    path = tmp_path / "head.json"
    save_checkpoint(head, str(path))
    return head, load_checkpoint(str(path), kind="head")
