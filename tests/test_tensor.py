import math

import numpy as np
import pytest

import geohg.tensor as T
from geohg.tensor import (DenseMean, NumericError, PaddedGather,
                          RelationBlock, Tensor, adam_step, glorot_uniform,
                          relational_layer, smallest_k)


def mirrored(u, v):
    """Both directions of the undirected edges (u[e], v[e])."""
    u, v = np.asarray(u), np.asarray(v)
    return np.concatenate([u, v]), np.concatenate([v, u])


def undirected_means(u, v, n):
    """The mean over the undirected edges (u, v) in both aggregation shapes:
    the padded gather, and the dense block of both directions on unit
    weights. They must compute the same mean."""
    src, dst = mirrored(u, v)
    return (PaddedGather.build(u, v, n),
            DenseMean.build(src, dst, np.ones(src.size), n_in=n, n_out=n))


def symmetric_mean_matrix(u, v, n):
    """Oracle: the dense row-normalized symmetric adjacency D^-1 A."""
    a = np.zeros((n, n))
    np.add.at(a, mirrored(u, v), 1.0)
    deg = a.sum(axis=1, keepdims=True)
    return np.divide(a, deg, out=np.zeros_like(a), where=deg != 0)


def random_undirected(rng, n, m):
    """m distinct edges among rows 0..n-2, no self loops; row n-1 is
    isolated."""
    iu, iv = np.triu_indices(n - 1, k=1)
    pick = rng.choice(iu.size, size=m, replace=False)
    return iu[pick], iv[pick]


def finite_difference(f, params, step=1e-5):
    """Central finite differences of scalar f over a list of parameter arrays."""
    grads = []
    for p in params:
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            hi = f()
            p[idx] = orig - step
            lo = f()
            p[idx] = orig
            g[idx] = (hi - lo) / (2 * step)
        grads.append(g)
    return grads


class TestForwardOps:
    def test_identity_matmul(self):
        a = np.random.default_rng(0).normal(size=(4, 4))
        out = T.matmul(Tensor(np.eye(4)), Tensor(a))
        assert np.array_equal(out.data, a)

    def test_relu_values(self):
        out = T.relu(Tensor([[-1.0, 0.0, 2.0]]))
        assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])

    def test_relu_bitwise_equal_to_where_on_special_values(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        big = np.finfo(np.float64).max
        special = np.array([np.nan, -np.nan, 0.0, -0.0, tiny, -tiny,
                            2.2250738585072014e-308, -2.2250738585072014e-308,
                            np.inf, -np.inf, 1.0, -1.0, big, -big])
        rng = np.random.default_rng(4)
        for n in (1, 3, 14, 17, 64, 1001):
            a = rng.choice(special, size=(n, 3))
            for view in (a, a[:, 1], a.T):
                got = T.relu(Tensor(view)).data
                want = np.where(view > 0, view, 0.0)
                assert np.array_equal(got.view(np.uint64),
                                      want.view(np.uint64)), n

    def test_relu_gradient_masks_non_positive_inputs(self):
        a = Tensor(np.array([[np.nan, -0.0, 0.0, 1e-320, -2.0, 3.0]]),
                   requires_grad=True)
        T.mean_all(T.scale(T.relu(a), 6.0)).backward()
        assert np.array_equal(a.grad, [[0.0, 0.0, 0.0, 1.0, 0.0, 1.0]])

    def test_log_sum_exp_overflow_safe(self):
        out = T.log_sum_exp(Tensor([[1000.0, 1000.0]]))
        assert out.data[0] == pytest.approx(1000.0 + math.log(2), abs=1e-12)

    def test_log_sum_exp_matches_naive_in_safe_range(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(5, 7))
        out = T.log_sum_exp(Tensor(a))
        want = np.log(np.exp(a).sum(axis=1))
        assert np.allclose(out.data, want, atol=1e-12)

    def test_matmul_t_equals_transpose_product(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        out = T.matmul_t(Tensor(a), Tensor(b))
        assert np.allclose(out.data, a @ b.T, atol=0)

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(NumericError):
            T.relu(t).backward()


class TestBackward:
    def test_quadratic_gradient(self):
        # d(mean(x^2))/dx = 2x / n
        x = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        loss = T.mean_all(T.square(x))
        loss.backward()
        assert np.allclose(x.grad, [[2 / 3, 4 / 3, 2.0]], rtol=1e-15)

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 5))
        y = rng.normal(size=(6, 1))
        w1 = rng.normal(size=(5, 8)) * 0.5
        b1 = rng.normal(size=(1, 8)) * 0.1
        w2 = rng.normal(size=(8, 1)) * 0.5

        def forward():
            h = T.relu(T.add(T.matmul(Tensor(x), Tensor(w1)), Tensor(b1)))
            pred = T.matmul(h, Tensor(w2))
            return T.mean_all(T.square(T.sub(pred, Tensor(y)))).item()

        tw1 = Tensor(w1, requires_grad=True)
        tb1 = Tensor(b1, requires_grad=True)
        tw2 = Tensor(w2, requires_grad=True)
        h = T.relu(T.add(T.matmul(Tensor(x), tw1), tb1))
        loss = T.mean_all(T.square(T.sub(T.matmul(h, tw2), Tensor(y))))
        loss.backward()

        fd = finite_difference(forward, [w1, b1, w2])
        for analytic, numeric in zip([tw1.grad, tb1.grad, tw2.grad], fd):
            denom = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-4

    def test_zero_input_bias_gradient_is_output_error(self):
        # With x = 0 the prediction is the bias alone, so dL/db for
        # L = mean((b - y)^2) is exactly 2(b - y)/n.
        y = np.array([[1.0], [3.0]])
        b = Tensor(np.array([[0.5]]), requires_grad=True)
        x = Tensor(np.zeros((2, 1)))
        pred = T.add(x, b)
        loss = T.mean_all(T.square(T.sub(pred, Tensor(y))))
        loss.backward()
        want = (2.0 * (0.5 - y) / 2).sum()
        assert b.grad[0, 0] == pytest.approx(want, abs=1e-15)

    def test_parameters_off_loss_path_get_no_gradient(self):
        used = Tensor(np.ones((2, 2)), requires_grad=True)
        unused = Tensor(np.ones((2, 2)), requires_grad=True)
        loss = T.mean_all(used)
        loss.backward()
        assert used.grad is not None
        assert unused.grad is None

    def test_diamond_graph_accumulates_both_paths(self):
        x = Tensor(np.array([[2.0]]), requires_grad=True)
        loss = T.mean_all(T.add(T.square(x), T.scale(x, 3.0)))
        loss.backward()
        assert x.grad[0, 0] == pytest.approx(2 * 2.0 + 3.0, abs=1e-15)

    def test_concat_rows_splits_the_gradient(self):
        rng = np.random.default_rng(5)
        parts = [Tensor(rng.normal(size=(k, 3)), requires_grad=k != 2)
                 for k in (1, 2, 0, 4)]
        out = T.concat_rows(*parts)
        assert np.array_equal(out.data,
                              np.concatenate([p.data for p in parts]))
        g = rng.normal(size=out.shape)
        out._backward(g)
        assert np.array_equal(parts[0].grad, g[:1])
        assert parts[1].grad is None
        assert np.array_equal(parts[2].grad, g[3:3])
        assert np.array_equal(parts[3].grad, g[3:])

    def test_gather_rows_gradient_scatters(self):
        h = Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
        idx = np.array([0, 2, 2])
        loss = T.mean_all(T.gather_rows(h, idx))
        loss.backward()
        want = np.zeros((4, 3))
        want[0] = 1.0
        want[2] = 2.0
        assert np.allclose(h.grad, want / 9, rtol=1e-15)

    def test_log_sum_exp_gradient_is_softmax(self):
        a = Tensor(np.array([[1.0, 2.0, 3.0]]), requires_grad=True)
        T.mean_all(T.log_sum_exp(a)).backward()
        e = np.exp([1.0, 2.0, 3.0])
        assert np.allclose(a.grad, e / e.sum(), atol=1e-12)


class TestSegmentMean:
    """The dense block's weighted directed means, and the padded gather's
    mean over undirected edges, which the dense block of both directions
    must match."""

    def test_plain_mean_per_destination(self):
        h = np.array([[1.0], [3.0], [10.0]])
        agg = DenseMean.build(src=[0, 1, 2], dst=[0, 0, 1],
                              weights=[1.0, 1.0, 1.0], n_in=3, n_out=3)
        assert np.array_equal(agg.apply(h), [[2.0], [10.0], [0.0]])
        h = np.array([[1.0], [3.0], [10.0], [7.0]])
        for agg in undirected_means(u=[0, 0], v=[1, 2], n=4):
            assert np.array_equal(agg.apply(h), [[6.5], [1.0], [1.0], [0.0]])

    def test_weighted_mean(self):
        h = np.array([[2.0], [6.0]])
        agg = DenseMean.build(src=[0, 1], dst=[0, 0], weights=[3.0, 1.0],
                              n_in=2, n_out=1)
        assert agg.apply(h)[0, 0] == pytest.approx((3 * 2 + 1 * 6) / 4,
                                                   abs=1e-15)

    def test_matches_dense_normalized_adjacency(self):
        # Oracle: dense row-normalized weighted adjacency matrix product,
        # and its transpose for the backward pass.
        rng = np.random.default_rng(5)
        n_in, n_out, d, m = 7, 5, 3, 20
        src = rng.integers(0, n_in, size=m)
        dst = rng.integers(0, n_out, size=m)
        weights = rng.uniform(0.1, 2.0, size=m)
        h = rng.normal(size=(n_in, d))
        g = rng.normal(size=(n_out, d))
        for w in (np.ones(m), weights):
            dense = np.zeros((n_out, n_in))
            for s_, t, wi in zip(src, dst, w):
                dense[t, s_] += wi
            row_sums = dense.sum(axis=1, keepdims=True)
            dense = np.divide(dense, row_sums, out=np.zeros_like(dense),
                              where=row_sums != 0)
            agg = DenseMean.build(src, dst, w, n_in=n_in, n_out=n_out)
            assert np.allclose(agg.apply(h), dense @ h, atol=1e-12)
            assert np.allclose(agg.apply_t(g), dense.T @ g, atol=1e-12)

    def test_padded_apply_matches_symmetric_adjacency(self):
        rng = np.random.default_rng(8)
        n = 9
        u, v = random_undirected(rng, n, 14)
        x = rng.normal(size=(n, 3))
        agg = PaddedGather.build(u, v, n)
        assert np.allclose(agg.apply(x), symmetric_mean_matrix(u, v, n) @ x,
                           rtol=0, atol=1e-12)
        assert np.array_equal(agg.apply(x)[n - 1], np.zeros(3))

    def test_padded_apply_t_matches_symmetric_adjacency_transposed(self):
        # D^-1 A is not symmetric on uneven degrees, so this checks that
        # each slot carries its own row's 1/degree.
        rng = np.random.default_rng(9)
        n = 9
        u, v = random_undirected(rng, n, 14)
        g = rng.normal(size=(n, 3))
        agg = PaddedGather.build(u, v, n)
        a = symmetric_mean_matrix(u, v, n)
        assert not np.allclose(a, a.T)
        assert np.allclose(agg.apply_t(g), a.T @ g, rtol=0, atol=1e-12)
        assert np.array_equal(agg.apply_t(g)[n - 1], np.zeros(3))

    def test_gradient_matches_finite_differences(self):
        # A one-relation layer with identity weight is the bare aggregation.
        rng = np.random.default_rng(6)
        n, d = 5, 2
        src = np.array([0, 1, 2, 3, 4, 0])
        dst = np.array([1, 1, 3, 3, 3, 4])
        weights = rng.uniform(0.5, 1.5, size=6)
        h = rng.normal(size=(n, d))
        target = rng.normal(size=(n, d))
        aggs = [DenseMean.build(src, dst, w, n_in=n, n_out=n)
                for w in (np.ones(6), weights)]
        aggs += undirected_means(u=[0, 1, 1, 2], v=[1, 2, 3, 3], n=n)
        for agg in aggs:
            block = RelationBlock(agg, slice(0, n), slice(0, n))

            def layer(x):
                return relational_layer(
                    x, [(block, Tensor(np.eye(d)), Tensor(np.zeros((1, d))))],
                    (Tensor(np.zeros((d, d))), Tensor(np.zeros((1, d)))))

            def forward():
                out = layer(Tensor(h))
                return T.mean_all(T.square(T.sub(out, Tensor(target)))).item()

            th = Tensor(h, requires_grad=True)
            out = layer(th)
            assert np.allclose(out.data, block.agg.apply(h), atol=1e-15)
            T.mean_all(T.square(T.sub(out, Tensor(target)))).backward()
            fd = finite_difference(forward, [h])[0]
            assert np.max(np.abs(th.grad - fd)) < 1e-8

    def test_duplicate_edges_accumulate(self):
        h = np.array([[1.0], [5.0]])
        for w in (np.ones(3), np.array([1.0, 1.0, 2.0])):
            agg = DenseMean.build(src=[0, 0, 1], dst=[0, 0, 0], weights=w,
                                  n_in=2, n_out=1)
            want = (w[0] + w[1] + 5 * w[2]) / w.sum()
            assert agg.apply(h)[0, 0] == pytest.approx(want, abs=1e-15)

    def test_empty_plan_gives_zeros(self):
        for agg in (DenseMean.build(np.zeros(0), np.zeros(0), np.zeros(0),
                                    n_in=3, n_out=3),
                    PaddedGather.build(np.zeros(0), np.zeros(0), 3)):
            block = RelationBlock(agg, slice(0, 3), slice(0, 3))
            h = Tensor(np.ones((3, 2)), requires_grad=True)
            out = relational_layer(
                h, [(block, Tensor(np.eye(2)), Tensor(np.ones((1, 2))))],
                (Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2)))))
            assert np.array_equal(out.data, np.zeros((3, 2)))
            T.mean_all(out).backward()
            assert np.array_equal(h.grad, np.zeros((3, 2)))

    def test_has_in_edge_mask(self):
        agg = DenseMean.build(src=[0, 1], dst=[2, 2], weights=[1.0, 1.0],
                              n_in=2, n_out=4)
        assert np.array_equal(agg.has_in_edge, [0.0, 0.0, 1.0, 0.0])
        for agg in undirected_means(u=[2], v=[1], n=4):
            assert np.array_equal(agg.has_in_edge, [0.0, 1.0, 1.0, 0.0])

    def test_edge_input_order_does_not_change_result(self):
        rng = np.random.default_rng(7)
        src = rng.integers(0, 6, size=15)
        dst = rng.integers(0, 6, size=15)
        weights = rng.uniform(0.1, 1.0, size=15)
        h = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 4))
        perm = rng.permutation(15)
        flip = rng.random(15) < 0.5     # an undirected edge's ends swap
        pairs = []
        for w in (np.ones(15), weights):
            pairs.append((DenseMean.build(src, dst, w, n_in=6, n_out=6),
                          DenseMean.build(src[perm], dst[perm], w[perm],
                                          n_in=6, n_out=6)))
        u, v = src[perm], dst[perm]
        pairs.append((PaddedGather.build(src, dst, 6),
                      PaddedGather.build(np.where(flip, v, u),
                                         np.where(flip, u, v), 6)))
        for a, b in pairs:
            # bit-identical, frozen order
            assert np.array_equal(a.apply(h), b.apply(h))
            assert np.array_equal(a.apply_t(g), b.apply_t(g))

    def test_padded_table_width_is_max_in_degree(self):
        # A 1x4 path: degrees 1, 2, 2, 1, so K = 2 and the end rows pad.
        agg = PaddedGather.build(u=[0, 1, 2], v=[1, 2, 3], n=4)
        assert np.array_equal(agg.idx, [[1, 4], [0, 2], [1, 3], [2, 4]])
        assert np.array_equal(agg.inv_deg, [1.0, 0.5, 0.5, 1.0])


def reference_stacked_layer(h, relations, self_loop):
    """The layer as one stacked product: [h | A_1 h | ... | 1 | m_1 | ...]
    @ W_stack in one GEMM, with the stacked gradient split back into the
    self-loop and per-relation (w, b) leaves. relational_layer must agree
    with it."""
    pairs = [self_loop] + [(w, b) for _, w, b in relations]
    params = [w for w, _ in pairs] + [b for _, b in pairs]
    d = h.data.shape[1]
    nd = len(pairs) * d
    x = np.zeros((h.data.shape[0], nd + len(pairs)))
    x[:, :d] = h.data
    x[:, nd] = 1.0
    for j, (rel, _, _) in enumerate(relations, start=1):
        col = j * d
        x[rel.dst, col:col + d] = rel.agg.apply(h.data[rel.src])
        x[rel.dst, nd + j] = rel.agg.has_in_edge
    w_stack = np.concatenate([np.zeros((0, d))] + [t.data for t in params])

    def bwd(g):
        if any(t.requires_grad for t in params):
            gw = x.T @ g
            ends = np.cumsum([t.data.shape[0] for t in params])
            for t, g_t in zip(params, np.split(gw, ends[:-1])):
                if t.requires_grad:
                    t._accumulate(g_t)
        if h.requires_grad:
            gx = g @ w_stack[:nd].T
            gh = gx[:, :d].copy()
            for j, (rel, _, _) in enumerate(relations, start=1):
                col = j * d
                gh[rel.src] += rel.agg.apply_t(gx[rel.dst, col:col + d])
            h._accumulate(gh)

    return Tensor(x @ w_stack, _parents=(h, *params), _backward=bwd)


def unchunked_gather_sum(idx, w, x):
    padded = np.concatenate([x, np.zeros((1, x.shape[1]))])
    return np.einsum("nk,nkd->nd", w, padded[idx])


def slot_weights(agg, u, v, n):
    """The (n, K) per-slot weight tables of the forward and of the backward
    through the table, on unit weights: the 1/degree of the slot's own row,
    then of the row the slot names, and 0 in a pad slot. The gather, which
    scales rows instead of slots, must match them bit for bit."""
    deg = np.bincount(np.concatenate([u, v]), minlength=n).astype(np.float64)
    with np.errstate(divide="ignore"):
        inv = np.append(1.0 / deg, 0.0)
    return np.where(agg.idx != n, inv[:n, None], 0.0), inv[agg.idx]


def with_signed_zeros(rng, shape):
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.2] = -0.0
    return a


class TestChunkedGather:
    @pytest.mark.parametrize("n", [T.GATHER_CHUNK - 1, T.GATHER_CHUNK,
                                   T.GATHER_CHUNK + 1,
                                   2 * T.GATHER_CHUNK + 1])
    def test_bitwise_equal_to_unchunked(self, n):
        rng = np.random.default_rng(n)
        m = 3 * n
        u = rng.integers(0, n, size=m)
        v = rng.integers(0, n, size=m)
        agg = PaddedGather.build(u, v, n)
        w, w_t = slot_weights(agg, u, v, n)
        x = with_signed_zeros(rng, (n, 6))
        g = with_signed_zeros(rng, (n, 6))
        assert np.array_equal(agg.apply(x).view(np.uint64),
                              unchunked_gather_sum(agg.idx, w, x)
                              .view(np.uint64))
        assert np.array_equal(agg.apply_t(g).view(np.uint64),
                              unchunked_gather_sum(agg.idx, w_t, g)
                              .view(np.uint64))


class TestRowRestriction:
    @pytest.mark.parametrize("n", [9, 2 * T.GATHER_CHUNK + 1])
    def test_padded_rows_match_full_table_bitwise(self, n):
        # apply on the kept rows is the full apply's rows; apply_t of a
        # gradient on the kept rows is the full apply_t of that gradient
        # scattered into zeros.
        rng = np.random.default_rng(n + 1)
        m = 3 * n
        u = rng.integers(0, n - 1, size=m)
        v = rng.integers(0, n - 1, size=m)          # row n-1 is isolated
        agg = PaddedGather.build(u, v, n)
        w, w_t = slot_weights(agg, u, v, n)
        x = with_signed_zeros(rng, (n, 6))
        for keep in (np.array([n - 1]), np.arange(n),
                     np.sort(rng.choice(n, size=n // 3, replace=False))):
            sub = agg.rows(keep)
            g = with_signed_zeros(rng, (keep.size, 6))
            g_full = np.zeros((n, 6))
            g_full[keep] = g
            got = sub.apply(x)
            assert np.array_equal(got, agg.apply(x)[keep])
            assert np.array_equal(
                got.view(np.uint64),
                unchunked_gather_sum(agg.idx[keep], w[keep], x).view(np.uint64))
            got = sub.apply_t(g)
            assert np.array_equal(got, agg.apply_t(g_full))
            assert np.array_equal(
                got.view(np.uint64),
                unchunked_gather_sum(agg.idx, w_t, g_full).view(np.uint64))
            assert np.array_equal(sub.has_in_edge, agg.has_in_edge[keep])

    def test_dense_rows_slice_the_block(self):
        rng = np.random.default_rng(3)
        agg = DenseMean.build(rng.integers(0, 4, size=12),
                              rng.integers(0, 9, size=12),
                              rng.uniform(0.1, 2.0, size=12), n_in=4, n_out=9)
        keep = np.array([1, 4, 8])
        sub = agg.rows(keep)
        assert np.array_equal(sub.mat, agg.mat[keep])
        assert np.array_equal(sub.has_in_edge, agg.has_in_edge[keep])


class TestFirstGradient:
    def test_equals_zeros_plus_g_bitwise(self):
        g = np.array([[-0.0, 0.0, -1.5], [np.inf, -0.0, 2.0 ** -1074]])
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t._accumulate(g)
        want = np.zeros_like(g) + g
        assert t.grad.tobytes() == want.tobytes()
        assert not np.signbit(t.grad[0, 0])

    def test_is_a_copy(self):
        g = np.ones((2, 2))
        t = Tensor(np.zeros((2, 2)), requires_grad=True)
        t._accumulate(g)
        t._accumulate(g)
        assert np.array_equal(g, np.ones((2, 2)))
        assert np.array_equal(t.grad, np.full((2, 2), 2.0))

    def test_shared_gradient_reaches_both_parents_unchanged(self):
        # add() hands the same g to both parents; the diamond must not let
        # one parent's accumulation leak into the other's.
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        s = T.add(a, b)
        T.mean_all(T.add(s, a)).backward()
        assert np.array_equal(a.grad, np.full((2, 2), 0.5))
        assert np.array_equal(b.grad, np.full((2, 2), 0.25))


def reference_adam_step(param, grad, m, v, step, lr):
    """adam_step for one parameter, pure, with its own moments and step
    count: the same operations in the same order. Returns (param, m, v)."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = b1 * m + (1.0 - b1) * grad
    v = b2 * v + (1.0 - b2) * grad * grad
    m_hat = m / (1.0 - b1 ** step)
    v_hat = v / (1.0 - b2 ** step)
    return param - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestAdam:
    SHAPES = ((3, 4), (1, 4), (5,), (2, 3, 2), (1, 1))

    def moments(self, n):
        return np.zeros(n), np.zeros(n)

    def test_zero_gradient_keeps_param(self):
        # A block whose gradient is always 0 keeps its bits, -0.0 included,
        # while the rest of the vector moves; its moments stay 0.
        rng = np.random.default_rng(0)
        frozen = np.array([1.0, -2.0, -0.0, 0.0, 5e-324, -5e-324])
        param = np.concatenate([rng.normal(size=4), frozen])
        start = param.copy()
        m, v = self.moments(param.size)
        for step in range(1, 6):
            grad = np.concatenate([rng.normal(size=4), np.zeros(frozen.size)])
            adam_step(param, grad, m, v, step, lr=0.1)
        assert np.array_equal(bits(param[4:]), bits(frozen))
        assert np.all(param[:4] != start[:4])
        assert np.array_equal(bits(m[4:]), bits(np.zeros(frozen.size)))
        assert np.array_equal(bits(v[4:]), bits(np.zeros(frozen.size)))

    def test_first_step_magnitude_is_lr(self):
        # With constant gradient g, bias correction makes m_hat = g and
        # v_hat = g^2, so the first update is exactly lr * sign(g) up to eps.
        param = np.array([0.0])
        adam_step(param, np.array([7.0]), *self.moments(1), step=1, lr=0.002)
        assert param[0] == pytest.approx(-0.002, rel=1e-6)

    def test_two_steps_match_reference_formulas(self):
        # Oracle: independent scalar re-derivation of two updates.
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g1, g2 = 0.3, -0.7
        p = 1.0
        m = v = 0.0
        for t, g in ((1, g1), (2, g2)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)

        param = np.array([1.0])
        moments = self.moments(1)
        adam_step(param, np.array([g1]), *moments, step=1, lr=lr)
        adam_step(param, np.array([g2]), *moments, step=2, lr=lr)
        assert param[0] == pytest.approx(p, abs=1e-15)

    def test_flat_vector_matches_per_block_reference_bitwise(self):
        # Blocks of mixed shapes, one of them never reached (the reference
        # skips it, as the per-parameter loop did); gradients mix exact
        # zeros, -0.0 and values across many magnitudes.
        rng = np.random.default_rng(1)
        blocks = [rng.normal(size=s) * 10.0 ** rng.integers(-3, 3, size=s)
                  for s in self.SHAPES]
        blocks[3].flat[::3] = -0.0
        unreached = 3
        flat = np.concatenate([b.ravel() for b in blocks])
        m, v = self.moments(flat.size)
        ref = [(b.copy(), np.zeros(b.shape), np.zeros(b.shape))
               for b in blocks]
        for step in range(1, 8):
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 4, size=s)
                     for s in self.SHAPES]
            grads[unreached] = np.zeros(self.SHAPES[unreached])
            for g in grads[:unreached]:
                g.flat[::4] = 0.0
                g.flat[1::5] = -0.0
            adam_step(flat, np.concatenate([g.ravel() for g in grads]), m, v,
                      step, lr=0.003)
            for i, g in enumerate(grads):
                if i != unreached:
                    p, rm, rv = ref[i]
                    ref[i] = reference_adam_step(p, g, rm, rv, step, 0.003)
        for got, want in ((flat, 0), (m, 1), (v, 2)):
            assert np.array_equal(
                bits(got), bits(np.concatenate([r[want].ravel() for r in ref])))

    def test_shape_mismatch_rejected(self):
        n = np.zeros(2)
        for args in ((np.zeros(3), n, n, n), (n, np.zeros(3), n, n),
                     (n, n, np.zeros(3), n), (n, n, n, np.zeros((2, 1)))):
            args = [a.copy() for a in args]
            with pytest.raises(NumericError, match="shape mismatch"):
                adam_step(*args, step=1, lr=0.1)

    def test_negative_step_rejected(self):
        for step in (0, -1):
            param = np.ones(2)
            with pytest.raises(NumericError, match="step"):
                adam_step(param, np.ones(2), *self.moments(2), step=step,
                          lr=0.1)
            assert np.array_equal(param, np.ones(2))

    @pytest.mark.parametrize("g", [np.nan, np.inf, -np.inf])
    def test_non_finite_update_rejected(self, g):
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericError, match="Adam update"):
            adam_step(np.ones(3), np.array([0.5, g, 0.0]), *self.moments(3),
                      step=1, lr=0.1)


class TestGlorot:
    def test_bounds_and_determinism(self):
        a = math.sqrt(6.0 / (30 + 50))
        draws = glorot_uniform(np.random.default_rng(8), 30, 50)
        assert draws.shape == (30, 50)
        assert np.all(np.abs(draws) <= a)
        again = glorot_uniform(np.random.default_rng(8), 30, 50)
        assert np.array_equal(draws, again)


class TestSmallestK:
    """The first k of each row in strict (value, index) order, by index."""

    def test_matches_lexsort_on_heavy_ties(self):
        rng = np.random.default_rng(12)
        a = rng.integers(0, 6, size=(40, 30)).astype(np.float64)
        a[0] = 2.0                                  # one value throughout
        a[1, ::2] = -np.inf
        for k in (1, 2, 5, 17, 29):
            got = smallest_k(a, k)
            assert got.shape == (40, k)
            for row, values in zip(got, a):
                want = np.lexsort((np.arange(30), values))[:k]
                assert np.array_equal(row, np.sort(want)), k

    def test_shapes_and_edges_of_k(self):
        a = np.array([3.0, 1.0, 2.0, 1.0])
        assert smallest_k(a, 2).tolist() == [1, 3]
        assert smallest_k(a, 3).tolist() == [1, 2, 3]
        assert smallest_k(a, 4).tolist() == [0, 1, 2, 3]
        assert smallest_k(a, 9).tolist() == [0, 1, 2, 3]
        assert smallest_k(a, 0).shape == (0,)
        stacked = np.stack([np.stack([a, a[::-1]])] * 3)      # (3, 2, 4)
        got = smallest_k(stacked, 2)
        assert got.shape == (3, 2, 2)
        assert got[:, 0].tolist() == [[1, 3]] * 3
        assert got[:, 1].tolist() == [[0, 2]] * 3

