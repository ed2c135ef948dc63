import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from geohg import baselines
from geohg.baselines import (CHUNK, IDW_CHUNK, IDW_K, IDW_POWER,
                             VARIOGRAM_BINS, VariogramModel, _neighbours,
                             _singular, _uk_systems, _uk_weights,
                             empirical_variogram, fit_variogram, idw_predict,
                             idw_predict_batch, uk_predict, uk_predict_batch,
                             uk_weights)
from geohg.geodata import first_rows
from geohg.tensor import smallest_k


def grid_samples(values_fn, n_cols=10, n_rows=10):
    return [((x, y), float(values_fn(x, y)))
            for y in range(n_rows) for x in range(n_cols)]


def random_samples(n, seed, span=20):
    rng = np.random.default_rng(seed)
    seen = set()
    out = []
    while len(out) < n:
        region = (int(rng.integers(0, span)), int(rng.integers(0, span)))
        if region in seen:
            continue
        seen.add(region)
        out.append((region, float(rng.normal())))
    return out


class TestIdw:
    def test_exact_at_sample_location(self):
        samples = [((0, 0), 1.0), ((3, 4), 9.0), ((7, 1), -2.0)]
        assert idw_predict(samples, (3, 4)) == 9.0

    def test_midpoint_of_two_equidistant_samples(self):
        samples = [((0, 0), 0.0), ((4, 0), 10.0)]
        assert idw_predict(samples, (2, 0)) == pytest.approx(5.0, abs=1e-12)

    def test_matches_brute_force_weights(self):
        # Oracle: direct weight-sum computation over all five samples.
        samples = random_samples(5, seed=0)
        target = (9, 9)
        power = 2.0
        num = den = 0.0
        for (x, y), v in samples:
            d = math.hypot(x - target[0], y - target[1])
            w = d ** -power
            num += w * v
            den += w
        got = idw_predict(samples, target, power=power, k_neighbors=5)
        assert got == pytest.approx(num / den, abs=1e-12)

    def test_prediction_within_neighbor_range(self):
        samples = random_samples(40, seed=1)
        rng = np.random.default_rng(2)
        values = [v for _, v in samples]
        for _ in range(20):
            target = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            got = idw_predict(samples, target)
            assert min(values) - 1e-12 <= got <= max(values) + 1e-12

    def test_k_limits_neighborhood(self):
        # With k=1 the prediction is exactly the nearest sample's value.
        samples = [((0, 0), 5.0), ((10, 10), -5.0)]
        assert idw_predict(samples, (1, 1), k_neighbors=1) == 5.0

    def test_translation_invariance(self):
        samples = random_samples(15, seed=3)
        target = (4, 7)
        shifted = [((x + 13, y + 5), v) for (x, y), v in samples]
        a = idw_predict(samples, target)
        b = idw_predict(shifted, (target[0] + 13, target[1] + 5))
        assert a == pytest.approx(b, abs=1e-12)

    def test_large_finite_power_keeps_the_nearest(self):
        # Each weight is taken relative to the nearest distance, so the
        # weight sum stays 1 even where every d ** -power underflows.
        samples = [((0, 0), 1.0), ((3, 0), 5.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = idw_predict(samples, (1, 1), power=3000.0, k_neighbors=2)
        assert got == 1.0

    def test_invalid_power_rejected(self):
        for power in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                idw_predict([((0, 0), 1.0)], (1, 1), power=power)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            idw_predict([], (0, 0))


def float_distances(p, q):
    """Euclidean distances between integer point arrays p and q of shape
    (..., 2), broadcast, computed in float64."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    return np.sqrt((p[..., 0] - q[..., 0]) ** 2 + (p[..., 1] - q[..., 1]) ** 2)


def shuffled_lattice(rng):
    # Shuffled 12x12 integer lattice: distances from a lattice point repeat
    # four and eight times, so most k-th slots are ties.
    return np.array([(x, y) for y in range(12)
                     for x in range(12)])[rng.permutation(144)]


class TestNearest:
    """Neighbour selection in strict (distance, index) order."""

    def test_matches_full_sort_on_tie_heavy_lattice(self):
        n_tied = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = shuffled_lattice(rng)
            target = rng.integers(0, 12, size=(1, 2))
            dists = float_distances(pts, target)
            order = np.lexsort((np.arange(dists.size), dists))
            for k in (1, 4, 5, 8, 9, 16, 64, 143, 144, 200):
                got_d, got = _neighbours(pts, target, k)
                assert np.array_equal(got[0], order[:k]), (seed, k)
                assert np.array_equal(got_d[0], dists[order[:k]]), (seed, k)
                n_tied += k < dists.size and \
                    dists[order[k - 1]] == dists[order[k]]
        assert n_tied > 50   # the lattice really exercises the tie rule

    def test_blocks_of_chunk_rows_match_lexsort(self):
        # One 2-D block of CHUNK targets on the shuffled lattice, as a
        # chunk reaches the selection, at the edges of k.
        rng = np.random.default_rng(21)
        pts = shuffled_lattice(rng)
        targets = rng.integers(-2, 14, size=(CHUNK, 2))
        dists = float_distances(pts[None, :, :], targets[:, None, :])
        n = len(pts)
        for k in (1, n - 1, n, n + 1):
            got_d, got = _neighbours(pts, targets, k)
            assert got.shape == got_d.shape == (CHUNK, min(k, n))
            for row, row_d, d in zip(got, got_d, dists):
                order = np.lexsort((np.arange(n), d))[:k]
                assert np.array_equal(row, order), k
                assert np.array_equal(row_d, d[order]), k

    def test_idw_prediction_uses_lower_index_on_tie(self):
        # Four samples at distance 1; with k=2 the first two in list order win.
        samples = [((2, 1), 1.0), ((1, 2), 2.0), ((0, 1), 30.0),
                   ((1, 0), 40.0)]
        assert idw_predict(samples, (1, 1), k_neighbors=2) == 1.5


class TestVariogramModel:
    def test_zero_distance_is_zero(self):
        model = VariogramModel(nugget=0.5, sill=2.0, effective_range=10.0)
        assert model.semivariance(np.array([0.0]))[0] == 0.0

    def test_nondecreasing_in_distance(self):
        model = VariogramModel(nugget=0.1, sill=1.5, effective_range=8.0)
        h = np.linspace(0.01, 40, 200)
        g = model.semivariance(h)
        assert np.all(np.diff(g) >= -1e-15)

    def test_effective_range_hits_95_percent(self):
        model = VariogramModel(nugget=0.0, sill=2.0, effective_range=7.0)
        g = model.semivariance(np.array([7.0]))[0]
        assert g == pytest.approx(2.0 * (1 - math.exp(-3.0)), abs=1e-12)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            VariogramModel(nugget=-0.1, sill=1.0, effective_range=1.0)
        with pytest.raises(ValueError):
            VariogramModel(nugget=0.0, sill=0.0, effective_range=1.0)
        for bad in (math.nan, math.inf):
            for params in ((bad, 1.0, 3.0), (0.0, bad, 3.0), (0.0, 1.0, bad)):
                with pytest.raises(ValueError):
                    VariogramModel(*params)

    @pytest.mark.parametrize("kind", ["gaussian", "spherical", "Exponential",
                                      ""])
    def test_kinds_other_than_exponential_rejected(self, kind):
        # semivariance is always the exponential curve, so any other kind
        # would silently give exponential values.
        with pytest.raises(ValueError, match="unsupported variogram kind"):
            VariogramModel(nugget=0.0, sill=1.0, effective_range=5.0,
                           kind=kind)
        model = VariogramModel(nugget=0.0, sill=1.0, effective_range=5.0,
                               kind="exponential")
        assert model.kind == "exponential"


class TestEmpiricalVariogram:
    def test_doubling_values_quadruples_semivariance(self):
        samples = random_samples(30, seed=4)
        doubled = [(r, 2.0 * v) for r, v in samples]
        h1, g1 = empirical_variogram(samples)
        h2, g2 = empirical_variogram(doubled)
        assert np.allclose(h1, h2, atol=0)
        assert np.allclose(g2, 4.0 * g1, atol=1e-12)

    def test_matches_brute_force_binning(self):
        # Oracle: direct O(n^2) pair loop with the same bin edges.
        samples = random_samples(12, seed=5)
        h, g = empirical_variogram(samples, n_bins=6)
        pairs = []
        for i in range(len(samples)):
            for j in range(i + 1, len(samples)):
                (xi, yi), vi = samples[i]
                (xj, yj), vj = samples[j]
                d = math.hypot(xi - xj, yi - yj)
                pairs.append((d, 0.5 * (vi - vj) ** 2))
        cutoff = max(d for d, _ in pairs) / 2.0
        edges = np.linspace(0.0, cutoff, 7)
        want_h, want_g = [], []
        for b in range(6):
            in_bin = [(d, s) for d, s in pairs if edges[b] < d <= edges[b + 1]]
            if in_bin:
                want_h.append(np.mean([d for d, _ in in_bin]))
                want_g.append(np.mean([s for _, s in in_bin]))
        assert np.allclose(h, want_h, atol=1e-12)
        assert np.allclose(g, want_g, atol=1e-12)

    @staticmethod
    def binned(dist, semiv):
        edges = np.linspace(0.0, dist.max() / 2.0, VARIOGRAM_BINS + 1)
        want_h, want_g = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            in_bin = (dist > lo) & (dist <= hi)
            if in_bin.any():
                want_h.append(dist[in_bin].mean())
                want_g.append(semiv[in_bin].mean())
        return want_h, want_g

    def test_matches_dense_formulation(self):
        # Two oracles, each giving the pairs i < j in row-major order: the
        # n x n difference tensor cut to the upper triangle afterwards, and
        # the gathers over np.triu_indices. Sizes at the edges of the row
        # blocks, each but n = 2 with two samples at one location. The bin
        # sums run block by block, so the means may differ from the
        # oracles' in the last bits, but the non-empty bins are the same.
        for n in (2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1, 150):
            samples = random_samples(n, seed=13 + n, span=40)
            if n > 2:
                samples[-1] = (samples[0][0], samples[-1][1])
            coords = np.array([r for r, _ in samples], dtype=np.float64)
            values = np.array([v for _, v in samples])
            iu = np.triu_indices(n, k=1)
            diff = coords[:, None, :] - coords[None, :, :]
            dense = (np.sqrt((diff ** 2).sum(axis=2))[iu],
                     (0.5 * (values[:, None] - values[None, :]) ** 2)[iu])
            i, j = iu
            x, y = coords.T
            gathered = (np.sqrt((x[i] - x[j]) ** 2 + (y[i] - y[j]) ** 2),
                        0.5 * (values[i] - values[j]) ** 2)
            h, g = empirical_variogram(samples)
            for dist, semiv in (dense, gathered):
                want_h, want_g = self.binned(dist, semiv)
                assert len(h) == len(want_h) and len(g) == len(want_g), n
                assert np.allclose(h, want_h, rtol=1e-14, atol=0), n
                assert np.allclose(g, want_g, rtol=1e-14, atol=0), n

    @staticmethod
    def searched(monkeypatch, samples, n_bins):
        # The variogram, and the sizes of the arrays searchsorted bins: the
        # d2 table's top + 1 entries, or each block's pairs without one.
        sizes = []
        searchsorted = np.searchsorted

        def recorded(a, v, *args, **kwargs):
            sizes.append(np.size(v))
            return searchsorted(a, v, *args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", recorded)
        try:
            return empirical_variogram(samples, n_bins), sizes
        finally:
            monkeypatch.undo()

    def test_bin_membership_is_exact(self, monkeypatch):
        # Samples on one line, the largest distance 8 * scale, so with 4
        # bins the cutoff is 4 * scale and the edges are exact. A pair at an
        # edge lands in the lower bin, the cutoff included; pairs at
        # distance 0 (the first two samples) or beyond the cutoff in none.
        # Each sample taken `copies` times repeats every pair copies**2
        # times and leaves every bin mean as it is. With 4 samples the d2
        # table (65 entries) outgrows the block (16 pairs), so each pair is
        # searched; with 12 it does not, and the table is read. At scale
        # 10^6 d2 reaches 6.4e13, and each pair is searched again.
        for scale, copies, table in ((1, 1, False), (1, 3, True),
                                     (10 ** 6, 3, False)):
            def at(cells):
                return [((x * scale, y * scale), v) for (x, y), v in cells
                        for _ in range(copies)]

            samples = at([((0, 0), 0.0), ((0, 0), 2.0), ((2, 0), 1.0),
                          ((8, 0), 5.0)])
            (h, g), sizes = self.searched(monkeypatch, samples, 4)
            assert sizes == [65 if table else len(samples) ** 2]
            # (1, 2]: the pairs at distance 2, semivariance 0.5 each.
            assert h.tolist() == [2.0 * scale] and g.tolist() == [0.5]
            samples += at([((4, 0), 3.0)])
            h, g = empirical_variogram(samples, n_bins=4)
            # (1, 2] gains (2, 0)-(4, 0); (3, 4] takes the pairs at 4.
            assert h.tolist() == [2.0 * scale, 4.0 * scale]
            assert g.tolist() == [(0.5 + 0.5 + 2.0) / 3,
                                  (4.5 + 0.5 + 2.0) / 3]
            # (2, 1) adds pairs at 1, in (0, 1], and at sqrt(5), just past
            # the edge 2, in (2, 3].
            h, g = empirical_variogram(samples + at([((2, 1), 1.0)]), 4)
            assert h[[0, 1, 3]].tolist() == [scale, 2.0 * scale, 4.0 * scale]
            assert h[2] == pytest.approx(math.sqrt(5.0) * scale, rel=1e-15)

    @staticmethod
    def peak(samples):
        tracemalloc.start()
        try:
            empirical_variogram(samples)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_one_block_of_pairs(self):
        # 4096 distinct cells of a 128 x 128 lattice: the 8.4 million pairs
        # would take 134 MB as distance and semivariance arrays.
        rng = np.random.default_rng(34)
        cells = rng.choice(128 * 128, size=4096, replace=False)
        samples = [((int(c % 128), int(c // 128)), float(v))
                   for c, v in zip(cells, rng.normal(size=4096))]
        assert self.peak(samples) < 10 << 20

    def test_memory_does_not_grow_with_the_span(self):
        # Samples about 10^6 cells apart: nothing is sized by the d2 range.
        rng = np.random.default_rng(35)
        cells = (np.array([(x, y) for y in range(5) for x in range(5)])
                 * 1_000_000 + rng.integers(-9, 10, size=(25, 2)))
        samples = [((int(x), int(y)), float(v))
                   for (x, y), v in zip(cells, rng.normal(size=25))]
        coords = np.array([r for r, _ in samples], dtype=np.float64)
        values = np.array([v for _, v in samples])
        iu = np.triu_indices(25, k=1)
        diff = coords[:, None, :] - coords[None, :, :]
        want_h, want_g = self.binned(
            np.sqrt((diff ** 2).sum(axis=2))[iu],
            (0.5 * (values[:, None] - values[None, :]) ** 2)[iu])
        h, g = empirical_variogram(samples)
        assert len(h) == len(want_h) > 1 and h.max() > 10 ** 6
        assert np.allclose(h, want_h, rtol=1e-14, atol=0)
        assert np.allclose(g, want_g, rtol=1e-14, atol=0)
        assert self.peak(samples) < 1 << 20

    def test_all_samples_at_one_location_rejected(self):
        with pytest.raises(ValueError, match="one location"):
            empirical_variogram([((3, 4), 1.0), ((3, 4), 2.0), ((3, 4), 0.5)])


class TestFitVariogram:
    def test_needs_ten_samples(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_variogram(random_samples(9, seed=6))

    def test_constant_field_falls_back(self):
        samples = grid_samples(lambda x, y: 3.25, 5, 4)
        model = fit_variogram(samples)
        assert model.nugget == 0.0
        assert model.sill == 1e-6
        # Kriging under the fallback still reproduces the constant.
        assert uk_predict(samples, (2, 2), model) == pytest.approx(3.25,
                                                                   abs=1e-9)

    def test_recovers_range_of_known_process(self):
        # Simulation oracle: draw from a Gaussian process with exponential
        # covariance; the fitted effective range should land within 30%.
        rng = np.random.default_rng(7)
        true_range = 8.0
        sill = 2.0
        pts = [(x, y) for y in range(0, 24, 2) for x in range(0, 24, 2)]
        coords = np.array(pts, dtype=float)
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        cov = sill * np.exp(-3.0 * dist / true_range)
        chol = np.linalg.cholesky(cov + 1e-10 * np.eye(len(pts)))
        field = chol @ rng.standard_normal(len(pts))
        samples = [(r, float(v)) for r, v in zip(pts, field)]
        model = fit_variogram(samples)
        assert abs(model.effective_range - true_range) / true_range <= 0.3

    def test_parameters_satisfy_invariants(self):
        for seed in range(4):
            model = fit_variogram(random_samples(60, seed=seed))
            assert model.nugget >= 0
            assert model.sill > 0
            assert model.effective_range > 0


class TestUniversalKriging:
    def flat_model(self):
        return VariogramModel(nugget=0.0, sill=1.0, effective_range=6.0)

    def test_exact_at_sample_with_zero_nugget(self):
        samples = random_samples(25, seed=8)
        model = self.flat_model()
        for region, value in samples[:10]:
            assert uk_predict(samples, region, model) == pytest.approx(
                value, abs=1e-6)

    def test_reproduces_planar_field(self):
        # Drift basis (1, x, y) must capture any plane exactly.
        a, b, c = 2.0, 0.7, -0.4
        samples = grid_samples(lambda x, y: a + b * x + c * y, 8, 8)
        model = self.flat_model()
        rng = np.random.default_rng(9)
        for _ in range(25):
            t = (int(rng.integers(0, 16)), int(rng.integers(0, 16)))
            want = a + b * t[0] + c * t[1]
            assert uk_predict(samples, t, model, k_neighbors=30) == \
                pytest.approx(want, abs=1e-6)

    def test_weights_satisfy_unbiasedness(self):
        samples = random_samples(30, seed=10)
        model = self.flat_model()
        target = (12, 3)
        lam, idx = uk_weights(samples, target, model, k_neighbors=20)
        coords = np.array([list(r) for r, _ in samples], dtype=float)[idx]
        assert lam.sum() == pytest.approx(1.0, abs=1e-9)
        assert (lam @ coords[:, 0]) == pytest.approx(target[0], abs=1e-8)
        assert (lam @ coords[:, 1]) == pytest.approx(target[1], abs=1e-8)

    def test_three_neighbor_system_matches_dense_solve(self):
        # Oracle: assemble the augmented system independently and solve with
        # the linear-algebra library.
        samples = [((0, 0), 1.0), ((4, 0), 2.0), ((0, 4), 3.0), ((4, 4), 0.5)]
        model = VariogramModel(nugget=0.2, sill=1.3, effective_range=5.0)
        target = (1, 2)
        lam, idx = uk_weights(samples, target, model, k_neighbors=4)
        pts = np.array([list(r) for r, _ in samples], dtype=float)[idx]
        n = len(pts)
        diff = pts[:, None, :] - pts[None, :, :]
        gamma = model.semivariance(np.sqrt((diff ** 2).sum(axis=2)))
        drift = np.column_stack([np.ones(n), pts])
        a = np.zeros((n + 3, n + 3))
        a[:n, :n] = gamma
        a[:n, n:] = drift
        a[n:, :n] = drift.T
        td = np.sqrt(((pts - np.array(target, dtype=float)) ** 2).sum(axis=1))
        b = np.concatenate([model.semivariance(td), [1.0, target[0], target[1]]])
        want = np.linalg.solve(a, b)[:n]
        assert np.allclose(lam, want, atol=1e-9)

    def test_translation_invariance(self):
        samples = random_samples(25, seed=11)
        model = self.flat_model()
        target = (7, 7)
        shifted = [((x + 100, y - 40), v) for (x, y), v in samples]
        a = uk_predict(samples, target, model)
        b = uk_predict(shifted, (107, -33), model)
        assert a == pytest.approx(b, abs=1e-8)

    def test_singular_system_falls_back_to_idw(self):
        # Collinear neighbors make the drift block rank-deficient.
        samples = [((x, 0), float(x)) for x in range(6)]
        model = self.flat_model()
        calls = []
        with pytest.warns(UserWarning, match="falling back"):
            got = uk_predict(samples, (2, 5), model, k_neighbors=6,
                             on_fallback=calls.append)
        assert calls == [(2, 5)]
        assert got == idw_predict(samples, (2, 5))

    def test_sample_location_is_exact_and_one_hot(self):
        samples = random_samples(40, seed=18)
        model = fit_variogram(samples)
        regions = [r for r, _ in samples]
        values = [v for _, v in samples]
        got = uk_predict_batch(samples, regions, model, 16)
        assert got.tolist() == values        # bitwise, not approximately
        for i, (region, value) in enumerate(samples[:10]):
            assert uk_predict(samples, region, model, 16) == value
            lam, idx = uk_weights(samples, region, model, 16)
            assert idx[0] == i
            assert lam.tolist() == [1.0] + [0.0] * 15

    def test_sample_with_collinear_neighbours_does_not_fall_back(self):
        # Off the line the system is singular; on a sample no system is
        # solved, so there is nothing to fall back from.
        samples = [((x, 0), 0.5 * x) for x in range(6)]
        model = self.flat_model()
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert uk_predict(samples, (2, 0), model, 6,
                              on_fallback=calls.append) == 1.0
            got = uk_predict_batch(samples, [(3, 0), (2, 5), (5, 0)], model,
                                   6, on_fallback=calls.append)
        assert calls == [(2, 5)]
        assert got[0] == 1.5 and got[2] == 2.5

    def test_repeated_location_takes_the_lower_index(self):
        # Two samples share (1, 1); the first in list order wins, as in IDW.
        others = [s for s in random_samples(12, seed=19) if s[0] != (1, 1)]
        samples = others[:3] + [((1, 1), 7.0)] + others[3:] + [((1, 1), -7.0)]
        model = self.flat_model()
        calls = []
        assert uk_predict_batch(samples, [(1, 1)], model, 8,
                                on_fallback=calls.append)[0] == 7.0
        assert calls == []
        assert idw_predict(samples, (1, 1)) == 7.0

    def test_skipped_solve_would_give_one_hot_weights(self):
        # The rule replaces a real solve: for every sample, the system that
        # would have been solved, built by the same code and solved by the
        # same solver, is not flagged and has weights within 1e-12 of
        # one-hot.
        samples = random_samples(80, seed=20, span=30)
        model = fit_variogram(samples)
        coords = np.array([r for r, _ in samples])
        for k in (8, 30):
            dists, near = _neighbours(coords, coords, k)
            assert np.array_equal(near[:, 0], np.arange(len(samples)))
            assert not _singular(coords[near],
                                 first_rows(coords)[near]).any()
            a, b = _uk_systems(coords[near], coords, dists, model)
            sol = np.linalg.solve(a, b)[..., 0]
            one_hot = np.zeros((len(samples), k))
            one_hot[:, 0] = 1.0
            assert np.abs(sol[:, :k] - one_hot).max() < 1e-12

    def test_shared_location_among_neighbours_falls_back(self):
        # Two samples share (5, 5). The k nearest of (5, 6) and (6, 5)
        # include both, which makes their systems singular. The rule must
        # flag them: LAPACK need not meet an exact zero pivot on such a
        # system, and may return finite but meaningless weights instead.
        others = [s for s in random_samples(40, seed=24, span=20)
                  if max(abs(s[0][0] - 5), abs(s[0][1] - 5)) > 1]
        samples = others[:3] + [((5, 5), 1.0)] + others[3:] + [((5, 5), -1.0)]
        targets = [(15, 15), (5, 6), (18, 2), (1, 17), (6, 5), (16, 9)]
        model = fit_variogram(samples)
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = uk_predict_batch(samples, targets, model, 8,
                                   on_fallback=calls.append)
        assert calls == [(5, 6), (6, 5)]
        for i in (1, 4):
            assert got[i] == idw_predict(samples, targets[i])
        solved = [0, 2, 3, 5]
        assert np.array_equal(
            got[solved],
            uk_predict_batch(samples, [targets[i] for i in solved], model, 8))

    def test_singular_flag_matches_matrix_rank(self):
        # Oracle: a system is singular exactly when its matrix has rank
        # below k + 3. Small integer point sets, some forced onto a line
        # and some with a repeated point, cover both clauses of the rule.
        rng = np.random.default_rng(25)
        model = VariogramModel(nugget=0.1, sill=1.0, effective_range=5.0)
        m = 300
        for k in range(1, 9):
            pts = rng.integers(0, 5, size=(m, k, 2))
            steps = rng.integers(-2, 3, size=(m, 1, 2))
            line = pts[:, :1] + rng.integers(-3, 4, size=(m, k, 1)) * steps
            pts[::3] = line[::3]
            pts[1::5, -1] = pts[1::5, 0]
            targets = rng.integers(0, 5, size=(m, 2)) + 0.5
            ids = first_rows(pts.reshape(-1, 2)).reshape(m, k)
            singular = _singular(pts, ids)
            a, _ = _uk_systems(pts, targets,
                               float_distances(pts, targets[:, None, :]),
                               model)
            rank = np.linalg.matrix_rank(a)
            assert np.array_equal(singular, rank < k + 3), k
            assert singular.all() if k <= 2 else 0 < singular.sum() < m

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 4"):
            uk_weights([((0, 0), 1.0)], (1, 1), self.flat_model())

    def test_beats_idw_on_strong_trend(self):
        # A pure linear ramp sampled sparsely: UK extrapolates the drift,
        # IDW regresses to the local mean. Check UK's clear advantage.
        rng = np.random.default_rng(12)
        samples = []
        seen = set()
        while len(samples) < 30:
            region = (int(rng.integers(0, 20)), int(rng.integers(0, 20)))
            if region in seen:
                continue
            seen.add(region)
            samples.append((region, 3.0 + 0.9 * region[0] - 0.2 * region[1]))
        model = fit_variogram(samples)
        err_uk = err_idw = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for x in range(20):
                for y in range(20):
                    if (x, y) in seen:
                        continue
                    want = 3.0 + 0.9 * x - 0.2 * y
                    err_uk += (uk_predict(samples, (x, y), model) - want) ** 2
                    err_idw += (idw_predict(samples, (x, y)) - want) ** 2
        assert err_uk < 0.25 * err_idw


class TestBatched:
    """All targets of a call at once, chunk by chunk, against the one-target
    wrappers: the same predictions, bit for bit."""

    COUNTS = (1, CHUNK - 1, CHUNK, CHUNK + 1, IDW_CHUNK - 1, IDW_CHUNK,
              IDW_CHUNK + 1)

    @staticmethod
    def worlds():
        # A shuffled 12x12 lattice, where most k-th neighbour slots are
        # distance ties, and a random world; targets cover both and beyond.
        rng = np.random.default_rng(14)
        lattice = [((x, y), float(rng.normal()))
                   for y in range(12) for x in range(12)]
        lattice = [lattice[i] for i in rng.permutation(len(lattice))]
        for samples, span in ((lattice, 12), (random_samples(90, 15, 30), 30)):
            grid = [(x, y) for y in range(-3, span + 3)
                    for x in range(-3, span + 3)]
            targets = [grid[i] for i in rng.permutation(len(grid))]
            assert len(targets) > max(TestBatched.COUNTS)
            yield samples, targets

    def test_idw_batch_matches_wrapper(self):
        for samples, targets in self.worlds():
            for power, k in ((2.0, 16), (1.5, 5), (2.0, 200)):
                want = [idw_predict(samples, t, power, k)
                        for t in targets[:max(self.COUNTS)]]
                for n in self.COUNTS:
                    got = idw_predict_batch(samples, targets[:n], power, k)
                    assert got.shape == (n,)
                    assert np.array_equal(got, want[:n]), (n, power, k)

    def test_uk_batch_matches_wrapper(self):
        for samples, targets in self.worlds():
            model = fit_variogram(samples)
            values = np.array([v for _, v in samples])
            for k in (8, 30):
                want = [uk_predict(samples, t, model, k)
                        for t in targets[:max(self.COUNTS)]]
                for t, w in zip(targets[:10], want):
                    lam, idx = uk_weights(samples, t, model, k)
                    assert w == lam @ values[idx]
                for n in self.COUNTS:
                    got = uk_predict_batch(samples, targets[:n], model, k)
                    assert np.array_equal(got, want[:n]), (n, k)

    @staticmethod
    def planted_singular():
        # A row of samples on y = 0 and a 4x4 block far above it. The six
        # nearest samples of (4, 1) all lie on the row, so its drift block
        # is rank-deficient; every block target has a full-rank system.
        samples = [((x, 0), 0.3 * x) for x in range(10)]
        samples += [((x, y), float(x * y % 5)) for y in range(30, 34)
                    for x in range(4)]
        block = [(x, y) for y in range(29, 35) for x in range(-1, 5)]
        targets = block[:20] + [(4, 1)] + block[20:]
        return samples, targets, 20

    def test_planted_singular_target_alone_falls_back(self):
        samples, targets, bad = self.planted_singular()
        model = VariogramModel(nugget=0.0, sill=1.0, effective_range=6.0)
        calls = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # the batch itself never warns
            got = uk_predict_batch(samples, targets, model, 6,
                                   on_fallback=calls.append)
        assert calls == [targets[bad]]
        assert got[bad] == idw_predict(samples, targets[bad])
        others = targets[:bad] + targets[bad + 1:]
        assert np.array_equal(np.delete(got, bad),
                              uk_predict_batch(samples, others, model, 6))
        with pytest.warns(UserWarning, match="falling back"):
            assert uk_predict(samples, targets[bad], model, 6) == got[bad]

    def test_singular_batch_raises_no_runtime_warning(self):
        # A singular system is flagged before the stacked solve and never
        # reaches it; nothing may warn on the way.
        samples, targets, bad = self.planted_singular()
        model = VariogramModel(nugget=0.0, sill=1.0, effective_range=6.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            uk_predict_batch(samples, targets, model, 6)
            uk_predict_batch(samples, [(4, 1)] * 3, model, 6)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_sill_scale_moves_no_weight_until_the_solve_overflows(self):
        # Scaling Gamma by c scales mu by c and leaves lambda as it is, so a
        # huge sill is no reason to fall back. Near the float64 limit the
        # solve overflows, and the non-finite solutions fall back to IDW.
        samples = random_samples(40, seed=26)
        targets = [(3, 3), (10, 10), (21, 5), (7, 19)]
        unit = uk_predict_batch(samples, targets,
                                VariogramModel(0.0, 1.0, 4.0), 16)
        for sill, fallbacks in ((1e300, []), (1.7e308, targets)):
            calls = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = uk_predict_batch(samples, targets,
                                       VariogramModel(0.0, sill, 4.0), 16,
                                       on_fallback=calls.append)
            assert calls == fallbacks
            want = ([idw_predict(samples, t) for t in targets] if fallbacks
                    else unit)
            assert np.abs(got - want).max() < 1e-12

    def test_only_off_sample_targets_are_solved(self, monkeypatch):
        samples = random_samples(60, seed=22, span=25)
        model = fit_variogram(samples)
        on = [r for r, _ in samples[:12]]
        taken = set(r for r, _ in samples)
        off = [(x, y) for y in range(25) for x in range(25)
               if (x, y) not in taken][:12]
        # At CHUNK 4: two chunks of samples only, then two with none, then
        # two mixed ones.
        targets = on[:8] + off[:8] + [on[8], off[8], on[9], off[9],
                                      off[10], on[10], off[11], on[11]]
        want = uk_predict_batch(samples, targets, model, 16)
        solved = []
        solve = np.linalg.solve

        def counted(a, b):
            solved.append(len(a))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        monkeypatch.setattr(baselines, "CHUNK", 4)
        monkeypatch.setattr(baselines, "IDW_CHUNK", 4)
        # One worker, so the blocks reach the solve in order.
        monkeypatch.setattr(baselines, "_usable_cpus", lambda: 1)
        got = uk_predict_batch(samples, targets, model, 16)
        assert solved == [0, 0, 4, 4, 2, 2]
        assert np.array_equal(got, want)
        assert got[:8].tolist() == [v for _, v in samples[:8]]

    @staticmethod
    def blocks_of_four(monkeypatch):
        """Split every IDW and kriging call into blocks of 4 targets."""
        monkeypatch.setattr(baselines, "CHUNK", 4)
        monkeypatch.setattr(baselines, "IDW_CHUNK", 4)

    @classmethod
    def on_workers(cls, monkeypatch, workers):
        """Run the blocks of 4 targets on `workers` threads, and record
        the threads that select neighbours."""
        cls.blocks_of_four(monkeypatch)
        monkeypatch.setattr(baselines, "_usable_cpus", lambda: workers)
        threads = set()

        def recorded(*args):
            threads.add(threading.get_ident())
            return _neighbours(*args)

        monkeypatch.setattr(baselines, "_neighbours", recorded)
        return threads

    def test_worker_count_changes_no_bit(self, monkeypatch):
        # On the lattice at k = 3, many systems have three collinear
        # neighbours and fall back to IDW, in several blocks. More workers
        # than cores, switching threads as often as the interpreter can: a
        # block writing outside its rows would show.
        samples, targets = next(self.worlds())
        targets = targets[:60]
        model = fit_variogram(samples)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                threads = self.on_workers(monkeypatch, workers)
                calls = []
                runs.append((idw_predict_batch(samples, targets, 2.0, 5),
                             uk_predict_batch(samples, targets, model, 3,
                                              on_fallback=calls.append),
                             uk_predict_batch(samples, targets, model, 30),
                             calls))
                assert (threading.get_ident() in threads) == (workers == 1)
                assert len(threads) <= workers
        finally:
            sys.setswitchinterval(interval)
        failed = [targets.index(t) for t in runs[0][3]]
        assert failed == sorted(failed)
        assert len({i // 4 for i in failed}) >= 3
        for idw, uk3, uk30, calls in runs[1:]:
            assert np.array_equal(idw, runs[0][0])
            assert np.array_equal(uk3, runs[0][1])
            assert np.array_equal(uk30, runs[0][2])
            assert calls == runs[0][3]

    def test_worker_warnings_and_errstate_reach_the_caller(self, monkeypatch):
        # Samples near the float64 limit on the even lattice points: the
        # four nearest of an odd point weigh 2 in all, so its IDW weighted
        # sum overflows.
        samples = [((x, y), 1.7e308) for y in range(0, 10, 2)
                   for x in range(0, 10, 2)]
        targets = [(x, y) for y in range(1, 9, 2) for x in range(1, 9, 2)]
        for workers in (1, 3):
            self.on_workers(monkeypatch, workers)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(RuntimeWarning, match="overflow"):
                    idw_predict_batch(samples, targets, 2.0, 4)
            with np.errstate(over="raise"):
                with pytest.raises(FloatingPointError):
                    idw_predict_batch(samples, targets, 2.0, 4)
            with np.errstate(over="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error")
                got = idw_predict_batch(samples, targets, 2.0, 4)
            assert np.isinf(got).all()

    def test_no_thread_outlives_a_call(self, monkeypatch):
        samples = random_samples(60, seed=27, span=25)
        model = fit_variogram(samples)
        targets = [(x, y) for y in range(25) for x in range(25)]
        self.on_workers(monkeypatch, 3)
        before = threading.active_count()
        uk_predict_batch(samples, targets, model, 16)
        idw_predict_batch(samples, targets)
        assert threading.active_count() == before

    def test_empty_target_list(self):
        samples = random_samples(20, seed=16)
        model = fit_variogram(samples)
        assert idw_predict_batch(samples, []).shape == (0,)
        assert uk_predict_batch(samples, [], model).shape == (0,)

    def test_uk_k_below_one_rejected(self):
        samples = random_samples(20, seed=17)
        with pytest.raises(ValueError, match="k_neighbors"):
            uk_predict_batch(samples, [(1, 1)], fit_variogram(samples), 0)


def float_neighbours(coords, targets, k):
    """The float selection the integer keys replaced: float64 distances,
    tensor.smallest_k, then a stable sort of the k chosen distances."""
    dists = float_distances(coords[None, :, :], targets[:, None, :])
    idx = smallest_k(dists, k)
    order = np.argsort(np.take_along_axis(dists, idx, axis=1), axis=1,
                       kind="stable")
    idx = np.take_along_axis(idx, order, axis=1)
    return np.take_along_axis(dists, idx, axis=1), idx


def float_idw(coords, values, targets, power, k):
    dists, idx = float_neighbours(coords, targets, k)
    near = values[idx]
    pred = near[:, 0].copy()
    miss = dists[:, 0] != 0.0
    d = dists[miss]
    w = (d / d[:, :1]) ** -power
    pred[miss] = (w * near[miss]).sum(axis=1) / w.sum(axis=1)
    return pred


def float_uk_weights(coords, targets, model, k):
    """Kriging weights, indices and solved flags with Gamma and the
    singularity tests taken on float64 pair distances."""
    dists, near = float_neighbours(coords, targets, k)
    n = near.shape[1]
    lam = np.zeros((len(targets), n))
    ok = np.ones(len(targets), dtype=bool)
    at = dists[:, 0] == 0.0
    lam[at, 0] = 1.0
    off = np.flatnonzero(~at)
    pts = coords[near[off]].astype(np.float64)
    pair = float_distances(pts[:, :, None], pts[:, None, :])
    offset = pts - pts[:, :1]
    far = np.abs(offset).sum(axis=2).argmax(axis=1)
    f = offset[np.arange(len(pts)), far]
    cross = offset[..., 0] * f[:, None, 1] - offset[..., 1] * f[:, None, 0]
    singular = ((np.count_nonzero(pair == 0.0, axis=(1, 2)) > n)
                | (cross == 0.0).all(axis=1))
    a = np.zeros((len(pts), n + 3, n + 3))
    a[:, :n, :n] = model.semivariance(pair)
    a[:, :n, n] = 1.0
    a[:, :n, n + 1:] = pts
    a[:, n, :n] = 1.0
    a[:, n + 1:, :n] = pts.transpose(0, 2, 1)
    b = np.empty((len(pts), n + 3))
    b[:, :n] = model.semivariance(dists[off])
    b[:, n] = 1.0
    b[:, n + 1:] = targets[off]
    solved = off[~singular]
    sol = np.linalg.solve(a[~singular], b[~singular, :, None])[..., 0]
    ok[off[singular]] = False
    ok[solved] = np.isfinite(sol).all(axis=1)
    lam[solved] = sol[:, :n]
    return lam, near, ok


class TestFloatFormulation:
    """The integer squared distances against a copy of the float64
    formulation they replaced: every prediction, weight, index and
    fallback the same bit for bit."""

    @staticmethod
    def worlds():
        # The shuffled lattice, where most k-th slots are ties, a random
        # world and a sparse one; targets cover each and beyond, with
        # every sample location among them.
        rng = np.random.default_rng(28)
        lattice = [((int(x), int(y)), float(rng.normal()))
                   for x, y in shuffled_lattice(rng)]
        for samples, span in ((lattice, 12), (random_samples(90, 29, 30), 30),
                              (random_samples(70, 30, 400), 400)):
            step = max(1, span // 24)
            grid = [(x, y) for y in range(-3, span + 3, step)
                    for x in range(-3, span + 3, step)]
            targets = [r for r, _ in samples[:40]] + [
                grid[i] for i in rng.permutation(len(grid))[:100]]
            yield samples, targets

    def test_predictions_weights_and_fallbacks_match(self, monkeypatch):
        TestBatched.blocks_of_four(monkeypatch)
        n_fallbacks = 0
        for samples, targets in self.worlds():
            coords = np.array([r for r, _ in samples])
            values = np.array([v for _, v in samples])
            t = np.array(targets)
            model = fit_variogram(samples)
            for k in (1, 3, 16, 64, len(samples)):
                want_idw = float_idw(coords, values, t, IDW_POWER, k)
                lam, idx, ok = float_uk_weights(coords, t, model, k)
                want_uk = np.matmul(lam[:, None, :],
                                    values[idx][:, :, None])[:, 0, 0]
                failed = np.flatnonzero(~ok)
                want_uk[failed] = float_idw(coords, values, t[failed],
                                            IDW_POWER, IDW_K)
                n_fallbacks += failed.size
                for workers in (1, 3):
                    monkeypatch.setattr(baselines, "_usable_cpus",
                                        lambda w=workers: w)
                    assert np.array_equal(
                        idw_predict_batch(samples, targets, IDW_POWER, k),
                        want_idw), (k, workers)
                    got = _uk_weights(coords, t, model, k)
                    for g, w in zip(got, (lam, idx, ok)):
                        assert np.array_equal(g, w), (k, workers)
                    calls = []
                    assert np.array_equal(
                        uk_predict_batch(samples, targets, model, k,
                                         on_fallback=calls.append),
                        want_uk), (k, workers)
                    assert calls == [targets[i] for i in failed]
        assert n_fallbacks > 100    # the fallback path is exercised too


class TestSharedLocations:
    """The singularity flags from sorted location ids and the line test,
    against the rule they replace, an off-diagonal zero among a system's
    pairwise d2, and against the rank of the system itself."""

    MODEL = VariogramModel(nugget=0.3, sill=1.0, effective_range=6.0)

    @staticmethod
    def oracle(pts):
        # Two neighbours at one cell, or a drift [1, x, y] of rank below 3.
        m, k = pts.shape[:2]
        d2 = ((pts[:, :, None] - pts[:, None, :]) ** 2).sum(axis=3)
        drift = np.concatenate([np.ones((m, k, 1)), pts], axis=2)
        return ((np.count_nonzero(d2 == 0, axis=(1, 2)) > k)
                | (np.linalg.matrix_rank(drift) < 3))

    @staticmethod
    def worlds():
        # A random world with one sample per cell, the same world with
        # samples moved onto others' cells, and a lattice row with a
        # repeated cell, where every system of k >= 3 lies on a line.
        rng = np.random.default_rng(37)
        distinct = random_samples(70, 38, span=24)
        shared = list(distinct)
        for i, j in rng.choice(70, size=(6, 2), replace=False):
            shared[i] = (shared[j][0], shared[i][1])
        row = [((x, 5), float(x % 3)) for x in range(12)] + [((4, 5), 9.0)]
        grid = [(x, y) for y in range(-2, 27, 2) for x in range(-2, 27, 2)]
        targets = [r for r, _ in distinct[:20]] + [
            grid[i] for i in rng.permutation(len(grid))[:110]]
        yield distinct, targets, False
        yield shared, targets, True
        yield row, [(x, y) for y in (4, 5, 7) for x in range(-1, 14)], True

    def test_flags_match_the_pairwise_rule_and_rank(self, monkeypatch):
        TestBatched.blocks_of_four(monkeypatch)
        blocks = {"all": 0, "none": 0}
        for samples, targets, repeats in self.worlds():
            coords = np.array([r for r, _ in samples])
            t = np.array(targets)
            ids = first_rows(coords)
            assert (ids != np.arange(len(coords))).any() == repeats
            for k in (3, 16, 64, len(samples)):
                dists, near = _neighbours(coords, t, k)
                off = np.flatnonzero(dists[:, 0] != 0.0)
                pts = coords[near[off]]
                want = self.oracle(pts)
                assert np.array_equal(_singular(pts, ids[near[off]]), want), k
                a, _ = _uk_systems(pts, t[off], dists[off], self.MODEL)
                assert np.array_equal(
                    np.linalg.matrix_rank(a) < pts.shape[1] + 3, want), k
                flagged = np.zeros(len(t), dtype=bool)
                flagged[off] = want
                for workers in (1, 3):
                    monkeypatch.setattr(baselines, "_usable_cpus",
                                        lambda w=workers: w)
                    _, _, ok = _uk_weights(coords, t, self.MODEL, k)
                    assert np.array_equal(ok, ~flagged), (k, workers)
                    calls = []
                    uk_predict_batch(samples, targets, self.MODEL, k,
                                     on_fallback=calls.append)
                    assert calls == [targets[i] for i in
                                     np.flatnonzero(flagged)], (k, workers)
                # The blocks of 4 targets that blocks_of_four sets.
                for lo in range(0, len(t), 4):
                    mine = want[(off >= lo) & (off < lo + 4)]
                    if mine.size:
                        blocks["all"] += mine.all()
                        blocks["none"] += not mine.any()
        assert blocks["all"] > 10 and blocks["none"] > 10


class TestSemivarianceTable:
    """Gamma from the per-block table, or directly where the block's
    largest squared distance outgrows its pairs: the same bits."""

    @staticmethod
    def systems(monkeypatch, coords, targets, k):
        # The block's systems, and the shapes semivariance was called on.
        model = VariogramModel(nugget=0.1, sill=1.3, effective_range=7.0)
        shapes = []
        semivariance = VariogramModel.semivariance

        def recorded(self, h):
            shapes.append(np.shape(h))
            return semivariance(self, h)

        monkeypatch.setattr(VariogramModel, "semivariance", recorded)
        dists, near = _neighbours(coords, targets, k)
        pts = coords[near]
        a, _ = _uk_systems(pts, targets, dists, model)
        monkeypatch.undo()
        d2 = ((pts[:, :, None] - pts[:, None, :]) ** 2).sum(axis=3)
        want = model.semivariance(np.sqrt(d2))
        assert np.array_equal(a[:, :k, :k], want)
        assert not _singular(pts, first_rows(coords)[near]).any()
        return d2, shapes

    def test_dense_block_reads_the_table(self, monkeypatch):
        rng = np.random.default_rng(31)
        coords = shuffled_lattice(rng)
        targets = rng.integers(0, 12, size=(CHUNK, 2)) + [[20, 0]]
        d2, shapes = self.systems(monkeypatch, coords, targets, 16)
        assert d2.max() < d2.size
        assert shapes[0] == (d2.max() + 1,)

    def test_sparse_block_takes_no_table(self, monkeypatch):
        # Samples about 10^6 cells apart: a table up to the largest squared
        # distance would hold some 10^12 entries.
        rng = np.random.default_rng(32)
        coords = (np.array([(x, y) for y in range(5) for x in range(5)])
                  * 1_000_000 + rng.integers(-9, 10, size=(25, 2)))
        targets = coords[:4] + [[500_000, 300_000]]
        tracemalloc.start()
        try:
            d2, shapes = self.systems(monkeypatch, coords, targets, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d2.max() > 10 ** 12
        assert shapes[0] == d2.shape
        assert peak < 1 << 20


class TestInputChecks:
    def test_non_finite_or_fractional_cells_rejected(self):
        samples = [((0, 0), 1.0), ((3, 1), 2.0), ((1, 4), 3.0), ((5, 5), 0.0)]
        model = VariogramModel(nugget=0.0, sill=1.0, effective_range=5.0)
        for bad in ((math.nan, 1), (1, math.inf), (0.5, 2), (2, -0.25)):
            with pytest.raises(ValueError, match="target coordinates"):
                idw_predict(samples, bad)
            with pytest.raises(ValueError, match="target coordinates"):
                uk_predict_batch(samples, [(1, 1), bad], model)
            with pytest.raises(ValueError, match="sample coordinates"):
                idw_predict(samples + [(bad, 1.0)], (1, 1))
            with pytest.raises(ValueError, match="sample coordinates"):
                empirical_variogram(samples + [(bad, 1.0)])
        # Integer-valued floats and numpy integers are cells.
        assert idw_predict(samples, (3.0, np.int64(1))) == 2.0

    def test_span_beyond_int64_keys_rejected(self):
        # With two samples the key d2 * 2 + index must fit int64, so the
        # largest squared distance may be 2**62 - 1 at most.
        samples = [((0, 0), 1.0), ((0, 1), 3.0)]
        edge = 2 ** 31 - 1                   # d2 = edge**2 + 1 < 2**62
        assert idw_predict(samples, (edge, 0), k_neighbors=1) == 1.0
        for bad in ((edge + 1, 0), (-edge - 1, 1), (2 ** 63, 2 ** 63),
                    (2 ** 70, 0)):
            with pytest.raises(ValueError):
                idw_predict(samples, bad)
        with pytest.raises(ValueError, match="span"):
            empirical_variogram([((0, 0), 1.0), ((2 ** 31, 2 ** 31), 2.0)])

    def test_non_integer_k_rejected(self):
        samples = random_samples(20, seed=33)
        model = fit_variogram(samples)
        for k in (1.5, 2.0, "4"):
            with pytest.raises(ValueError, match="k_neighbors"):
                idw_predict_batch(samples, [(1, 1)], 2.0, k)
            with pytest.raises(ValueError, match="k_neighbors"):
                uk_predict_batch(samples, [(1, 1)], model, k)
        assert idw_predict(samples, (1, 1), k_neighbors=np.int64(3)) == \
            idw_predict(samples, (1, 1), k_neighbors=3)

    def test_bool_k_rejected(self):
        # bool subclasses int, but True is no neighbour count.
        samples = random_samples(20, seed=36)
        model = fit_variogram(samples)
        for k in (True, False, np.True_):
            with pytest.raises(ValueError, match="k_neighbors"):
                idw_predict(samples, (1, 1), k_neighbors=k)
            with pytest.raises(ValueError, match="k_neighbors"):
                uk_predict_batch(samples, [(1, 1)], model, k)

    def test_one_sample_variogram_rejected(self):
        with pytest.raises(ValueError, match="at least 2 samples"):
            empirical_variogram([((0, 0), 1.0)])
