import math

import numpy as np
import pytest

import geohg.tensor as T
from geohg.tensor import (AdamState, DenseMean, NumericError, PaddedGather,
                          RelationBlock, Tensor, adam_init, adam_step,
                          glorot_uniform, lu_solve, relational_layer)

# Both aggregation shapes must compute the same weighted mean.
BUILDERS = (PaddedGather.build, DenseMean.build)


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
    """Weighted means per destination, in both aggregation shapes."""

    def test_plain_mean_per_destination(self):
        h = np.array([[1.0], [3.0], [10.0]])
        for build in BUILDERS:
            agg = build(src=[0, 1, 2], dst=[0, 0, 1], weights=[1.0, 1.0, 1.0],
                        n_in=3, n_out=3)
            assert np.array_equal(agg.apply(h), [[2.0], [10.0], [0.0]])

    def test_weighted_mean(self):
        h = np.array([[2.0], [6.0]])
        for build in BUILDERS:
            agg = build(src=[0, 1], dst=[0, 0], weights=[3.0, 1.0], n_in=2,
                        n_out=1)
            assert agg.apply(h)[0, 0] == pytest.approx((3 * 2 + 1 * 6) / 4,
                                                       abs=1e-15)

    def test_matches_dense_normalized_adjacency(self):
        # Oracle: dense row-normalized weighted adjacency matrix product,
        # and its transpose for the backward pass.
        rng = np.random.default_rng(5)
        n_in, n_out, d, m = 7, 5, 3, 20
        src = rng.integers(0, n_in, size=m)
        dst = rng.integers(0, n_out, size=m)
        w = rng.uniform(0.1, 2.0, size=m)
        h = rng.normal(size=(n_in, d))
        g = rng.normal(size=(n_out, d))
        dense = np.zeros((n_out, n_in))
        for s_, t, wi in zip(src, dst, w):
            dense[t, s_] += wi
        row_sums = dense.sum(axis=1, keepdims=True)
        dense = np.divide(dense, row_sums, out=np.zeros_like(dense),
                          where=row_sums != 0)
        for build in BUILDERS:
            agg = build(src, dst, w, n_in=n_in, n_out=n_out)
            assert np.allclose(agg.apply(h), dense @ h, atol=1e-12)
            assert np.allclose(agg.apply_t(g), dense.T @ g, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        # A one-relation layer with identity weight is the bare aggregation.
        rng = np.random.default_rng(6)
        n, d = 5, 2
        src = np.array([0, 1, 2, 3, 4, 0])
        dst = np.array([1, 1, 3, 3, 3, 4])
        w = rng.uniform(0.5, 1.5, size=6)
        h = rng.normal(size=(n, d))
        target = rng.normal(size=(n, d))
        for build in BUILDERS:
            block = RelationBlock(build(src, dst, w, n_in=n, n_out=n),
                                  slice(0, n), slice(0, n))

            def layer(x):
                return relational_layer(
                    x, [(block, Tensor(np.eye(d)), Tensor(np.zeros((1, d))))])

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
        for build in BUILDERS:
            agg = build(src=[0, 0, 1], dst=[0, 0, 0], weights=[1.0, 1.0, 2.0],
                        n_in=2, n_out=1)
            assert agg.apply(h)[0, 0] == pytest.approx((1 + 1 + 10) / 4,
                                                       abs=1e-15)

    def test_empty_plan_gives_zeros(self):
        for build in BUILDERS:
            agg = build(np.zeros(0), np.zeros(0), np.zeros(0), n_in=3, n_out=3)
            block = RelationBlock(agg, slice(0, 3), slice(0, 3))
            h = Tensor(np.ones((3, 2)), requires_grad=True)
            out = relational_layer(
                h, [(block, Tensor(np.eye(2)), Tensor(np.ones((1, 2))))])
            assert np.array_equal(out.data, np.zeros((3, 2)))
            T.mean_all(out).backward()
            assert np.array_equal(h.grad, np.zeros((3, 2)))

    def test_has_in_edge_mask(self):
        for build in BUILDERS:
            agg = build(src=[0, 1], dst=[2, 2], weights=[1.0, 1.0], n_in=2,
                        n_out=4)
            assert np.array_equal(agg.has_in_edge, [0.0, 0.0, 1.0, 0.0])

    def test_edge_input_order_does_not_change_result(self):
        rng = np.random.default_rng(7)
        src = rng.integers(0, 6, size=15)
        dst = rng.integers(0, 6, size=15)
        w = rng.uniform(0.1, 1.0, size=15)
        h = rng.normal(size=(6, 4))
        g = rng.normal(size=(6, 4))
        perm = rng.permutation(15)
        for build in BUILDERS:
            a = build(src, dst, w, n_in=6, n_out=6)
            b = build(src[perm], dst[perm], w[perm], n_in=6, n_out=6)
            # bit-identical, frozen order
            assert np.array_equal(a.apply(h), b.apply(h))
            assert np.array_equal(a.apply_t(g), b.apply_t(g))

    def test_padded_table_width_is_max_in_degree(self):
        # A 1x4 path: in-degrees 1, 2, 2, 1, so K = 2 and the end rows pad.
        src, dst = [0, 1, 1, 2, 2, 3], [1, 0, 2, 1, 3, 2]
        agg = PaddedGather.build(src, dst, np.ones(6), n_in=4, n_out=4)
        assert agg.idx.shape == (4, 2) and agg.idx_t.shape == (4, 2)
        assert np.array_equal(agg.idx, [[1, 4], [0, 2], [1, 3], [2, 4]])
        assert np.array_equal(agg.w, [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5],
                                      [1.0, 0.0]])


class TestAdam:
    def test_zero_gradient_keeps_param(self):
        param = np.array([1.0, -2.0])
        state = adam_init(param.shape, lr=0.1)
        new_param, new_state = adam_step(param, np.zeros(2), state)
        assert np.array_equal(new_param, param)
        assert new_state.step == 1

    def test_first_step_magnitude_is_lr(self):
        # With constant gradient g, bias correction makes m_hat = g and
        # v_hat = g^2, so the first update is exactly lr * sign(g) up to eps.
        param = np.array([0.0])
        state = adam_init((1,), lr=0.002)
        new_param, _ = adam_step(param, np.array([7.0]), state)
        assert new_param[0] == pytest.approx(-0.002, rel=1e-6)

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
        state = adam_init((1,), lr=lr)
        param, state = adam_step(param, np.array([g1]), state)
        param, state = adam_step(param, np.array([g2]), state)
        assert param[0] == pytest.approx(p, abs=1e-15)
        assert state.step == 2

    def test_shape_mismatch_rejected(self):
        state = adam_init((2,), lr=0.1)
        with pytest.raises(NumericError):
            adam_step(np.zeros(3), np.zeros(3), state)

    def test_state_is_immutable_value(self):
        state = adam_init((1,), lr=0.1)
        adam_step(np.array([1.0]), np.array([1.0]), state)
        assert state.step == 0 and np.all(state.m == 0.0)

    def test_negative_step_rejected(self):
        with pytest.raises(NumericError):
            AdamState(m=np.zeros(1), v=np.zeros(1), step=-1, lr=0.1)


class TestGlorot:
    def test_bounds_and_determinism(self):
        a = math.sqrt(6.0 / (30 + 50))
        draws = glorot_uniform(np.random.default_rng(8), 30, 50)
        assert draws.shape == (30, 50)
        assert np.all(np.abs(draws) <= a)
        again = glorot_uniform(np.random.default_rng(8), 30, 50)
        assert np.array_equal(draws, again)


class TestLuSolve:
    def test_matches_numpy_solve(self):
        # Oracle: dense solve from the linear-algebra library.
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n)) + n * np.eye(n)
            b = rng.normal(size=n)
            assert np.allclose(lu_solve(a, b), np.linalg.solve(a, b),
                               atol=1e-9)

    def test_multiple_right_hand_sides(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(5, 5)) + 5 * np.eye(5)
        b = rng.normal(size=(5, 3))
        assert np.allclose(lu_solve(a, b), np.linalg.solve(a, b), atol=1e-9)

    def test_pivoting_handles_zero_leading_entry(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([2.0, 3.0])
        assert np.allclose(lu_solve(a, b), [3.0, 2.0], atol=1e-12)

    def test_singular_matrix_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(NumericError, match="singular"):
            lu_solve(a, np.array([1.0, 1.0]))

    def test_zero_matrix_raises(self):
        with pytest.raises(NumericError):
            lu_solve(np.zeros((3, 3)), np.ones(3))

    def test_does_not_mutate_inputs(self):
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        b = np.array([1.0, 2.0])
        a0, b0 = a.copy(), b.copy()
        lu_solve(a, b)
        assert np.array_equal(a, a0) and np.array_equal(b, b0)
