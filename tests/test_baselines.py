import math
import warnings

import numpy as np
import pytest

from geohg.baselines import (VariogramModel, _nearest, empirical_variogram,
                             fit_variogram, idw_predict, uk_predict,
                             uk_weights)


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

    def test_invalid_power_rejected(self):
        with pytest.raises(ValueError):
            idw_predict([((0, 0), 1.0)], (1, 1), power=0.0)

    def test_no_samples_rejected(self):
        with pytest.raises(ValueError):
            idw_predict([], (0, 0))


class TestNearest:
    """Neighbour selection in strict (distance, index) order."""

    @staticmethod
    def lattice_dists(seed):
        # Shuffled integer lattice: distances from a lattice point repeat
        # four and eight times, so most k-th slots are ties.
        rng = np.random.default_rng(seed)
        pts = np.array([(x, y) for y in range(12) for x in range(12)],
                       dtype=np.float64)[rng.permutation(144)]
        target = rng.integers(0, 12, size=2).astype(np.float64)
        return np.sqrt(((pts - target) ** 2).sum(axis=1))

    def test_matches_full_sort_on_tie_heavy_lattice(self):
        n_tied = 0
        for seed in range(20):
            dists = self.lattice_dists(seed)
            order = np.lexsort((np.arange(dists.size), dists))
            for k in (1, 4, 5, 8, 9, 16, 64, 143, 144, 200):
                got = _nearest(dists, k)
                assert np.array_equal(got, order[:k]), (seed, k)
                n_tied += k < dists.size and \
                    dists[order[k - 1]] == dists[order[k]]
        assert n_tied > 50   # the lattice really exercises the tie rule

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
