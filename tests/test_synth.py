import math

import numpy as np
import pytest

from geohg import synth
from geohg.features import featurize_all
from geohg.geodata import (GeoDataError, GridSpec, PoiTable,
                           region_of, save_labels, save_landcover, save_pois)
from geohg.synth import (VORONOI_BLOCK, SynthConfig, barrier_side, generate,
                         poisson_sample)


def loop_generate(config):
    """The draw-by-draw generator the block draws must reproduce: one
    rng.choice per region, one sequential Poisson search per (region,
    category) with a positive rate, then two scalar uniforms per POI."""
    res = config.resolved()
    rng = np.random.default_rng(config.seed)
    grid = GridSpec(config.origin_lon, config.origin_lat, config.n_cols,
                    config.n_rows, config.cell_km)
    n = grid.n_regions
    patch_xy = rng.random((config.n_patches, 2)) * [config.n_cols,
                                                    config.n_rows]
    patch_arch = rng.integers(0, config.n_archetypes, size=config.n_patches)
    centers = np.array([(x + 0.5, y + 0.5) for x, y in grid.cells().tolist()])
    d2 = ((centers[:, None, :] - patch_xy[None, :, :]) ** 2).sum(axis=2)
    archetype = patch_arch[np.argmin(d2, axis=1)]
    p = config.pixels_per_cell
    classes = np.zeros((grid.n_rows * p, grid.n_cols * p), dtype=np.int64)
    for idx, (x, y) in enumerate(grid.cells().tolist()):
        classes[y * p:(y + 1) * p, x * p:(x + 1) * p] = rng.choice(
            config.n_classes, size=(p, p), p=res.class_mix[archetype[idx]])
    km_lon, km_lat = grid.km_per_degree()
    lons, lats, cats = [], [], []
    for idx, (x, y) in enumerate(grid.cells().tolist()):
        for k in range(config.n_categories):
            lam = res.poi_rates[archetype[idx], k]
            count = 0
            if lam > 0:
                u = rng.random()
                prob = cum = math.exp(-lam)
                while u > cum:
                    count += 1
                    prob *= lam / count
                    cum += prob
            for _ in range(count):
                u, w_ = rng.random(), rng.random()
                lons.append(config.origin_lon + (x + u) * config.cell_km / km_lon)
                lats.append(config.origin_lat + (y + w_) * config.cell_km / km_lat)
                cats.append(k)
    smooth = synth._smooth_field(rng, centers, config.smooth_amplitude,
                                 config.smooth_waves,
                                 float(max(config.n_cols, config.n_rows)))
    pts = sorted(res.barrier, key=lambda pt: pt[1])
    side = [1 if cx > float(np.interp(cy, [pt[1] for pt in pts],
                                      [pt[0] for pt in pts])) else 0
            for cx, cy in centers]
    noise = (rng.standard_normal(n) * config.noise_sigma
             if config.noise_sigma > 0 else np.zeros(n))
    pois = PoiTable(lon=lons, lat=lats, category=cats)
    return classes, pois, archetype, smooth, side, noise


def small_config(**overrides):
    defaults = dict(n_cols=8, n_rows=8, pixels_per_cell=3, n_patches=10,
                    seed=42)
    defaults.update(overrides)
    return SynthConfig(**defaults)


class TestConfigValidation:
    def test_degenerate_grid_rejected(self):
        with pytest.raises(GeoDataError):
            SynthConfig(n_cols=1, n_rows=8)

    def test_negative_noise_rejected(self):
        with pytest.raises(GeoDataError):
            SynthConfig(noise_sigma=-0.1)

    def test_bad_class_mix_rejected(self):
        cfg = SynthConfig(class_mix=np.ones((4, 11)))  # rows do not sum to 1
        with pytest.raises(GeoDataError):
            cfg.resolved()

    def test_short_barrier_rejected(self):
        cfg = SynthConfig(barrier=((1.0, 1.0),))
        with pytest.raises(GeoDataError):
            cfg.resolved()

    def test_no_class_rejected(self):
        with pytest.raises(GeoDataError, match="land-cover class"):
            SynthConfig(n_classes=0)

    def test_no_pixel_rejected(self):
        with pytest.raises(GeoDataError, match="pixel per cell"):
            SynthConfig(pixels_per_cell=0)

    def test_negative_category_count_rejected(self):
        with pytest.raises(GeoDataError, match="category count"):
            SynthConfig(n_categories=-1)

    @pytest.mark.parametrize("field", ["noise_sigma", "jump",
                                       "smooth_amplitude"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, field, value):
        with pytest.raises(GeoDataError, match="must be finite"):
            SynthConfig(**{field: value})

    def test_row_sum_held_to_rng_choice_tolerance(self):
        # rng.choice rejects a row further than sqrt(eps) from 1; the block
        # draw would renormalise it silently, so resolved() must reject it.
        mix = np.full((1, 11), 1.0 / 11)
        mix[0, 0] += 1e-6
        with pytest.raises(GeoDataError, match="class_mix"):
            SynthConfig(n_archetypes=1, class_mix=mix).resolved()
        mix[0, 0] -= 1e-6 - 1e-9          # within tolerance: accepted
        SynthConfig(n_archetypes=1, class_mix=mix).resolved()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rate_or_mix_rejected(self, bad):
        rates = np.ones((4, 6))
        rates[1, 2] = bad
        with pytest.raises(GeoDataError, match="poi_rates"):
            SynthConfig(poi_rates=rates).resolved()
        mix = np.full((4, 11), 1.0 / 11)
        mix[2, 3] = bad
        with pytest.raises(GeoDataError, match="class_mix"):
            SynthConfig(class_mix=mix).resolved()


class TestPoissonSample:
    def test_zero_rate_gives_zero(self):
        assert poisson_sample(np.random.default_rng(0), 0.0) == 0

    def test_negative_rate_rejected(self):
        with pytest.raises(GeoDataError):
            poisson_sample(np.random.default_rng(0), -1.0)

    def test_mean_and_variance_match_distribution(self):
        # Seeded statistical check: sample mean within 4 standard errors.
        rng = np.random.default_rng(1)
        lam, n = 3.5, 4000
        draws = [poisson_sample(rng, lam) for _ in range(n)]
        se = math.sqrt(lam / n)
        assert abs(np.mean(draws) - lam) < 4 * se
        assert abs(np.var(draws) - lam) < 0.5

    def test_matches_inversion_cdf(self):
        # Oracle: replay the same uniform and invert the CDF independently.
        lam = 2.1
        draw = poisson_sample(np.random.default_rng(7), lam)
        u = np.random.default_rng(7).random()
        cum, p, k = math.exp(-lam), math.exp(-lam), 0
        while u > cum:
            k += 1
            p *= lam / k
            cum += p
        assert draw == k


class TestBarrierSide:
    def test_vertical_line(self):
        barrier = ((4.0, 0.0), (4.0, 8.0))
        assert barrier_side(5.0, 3.0, barrier) == 1
        assert barrier_side(3.0, 3.0, barrier) == 0
        assert barrier_side(4.0, 3.0, barrier) == 0  # on-line goes west

    def test_slanted_line_interpolates(self):
        barrier = ((0.0, 0.0), (8.0, 8.0))  # x = y
        assert barrier_side(5.0, 4.0, barrier) == 1
        assert barrier_side(3.0, 4.0, barrier) == 0

    def test_clamps_outside_span(self):
        barrier = ((4.0, 2.0), (4.0, 6.0))
        assert barrier_side(5.0, 0.0, barrier) == 1
        assert barrier_side(3.0, 99.0, barrier) == 0


class TestGenerate:
    def test_shapes_and_coverage(self):
        lc, pois, labels, ledger = generate(small_config())
        assert lc.grid.n_regions == 64
        assert len(labels) == 64
        assert lc.classes.shape == (24, 24)
        assert ledger["poi_count_total"] == len(pois)
        assert len(ledger["archetype_of_region"]) == 64

    def test_same_seed_identical_files(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        for out in (a_dir, b_dir):
            out.mkdir()
            lc, pois, labels, _ = generate(small_config())
            save_landcover(lc, str(out / "lc.txt"))
            save_pois(pois, str(out / "pois.csv"))
            save_labels(labels, str(out / "labels.csv"))
        for name in ("lc.txt", "pois.csv", "labels.csv"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_different_seeds_differ(self):
        _, _, labels_a, _ = generate(small_config(seed=1))
        _, _, labels_b, _ = generate(small_config(seed=2))
        assert np.array_equal(labels_a.cells, labels_b.cells)
        assert not np.array_equal(labels_a.values, labels_b.values)

    def test_ledger_recomposes_labels_exactly(self):
        _, _, labels, ledger = generate(small_config(seed=5))
        comp = ledger["components"]
        y = (np.array(comp["env_term"]) + np.array(comp["soc_term"])
             + np.array(comp["smooth"]) + np.array(comp["jump_term"])
             + np.array(comp["noise"]))
        emitted = labels.values
        assert np.max(np.abs(y - emitted)) < 1e-12

    def test_noiseless_flat_world_is_linear_in_features(self):
        # With smooth = jump = noise = 0, y is exactly w.e_env + v.e_soc of
        # the realized features, so recomputing from emitted artifacts gives
        # an exact match (and a linear model would be exact in-sample).
        cfg = small_config(noise_sigma=0.0, jump=0.0, smooth_amplitude=0.0,
                           seed=9)
        lc, pois, labels, ledger = generate(cfg)
        feats = featurize_all(lc.grid, lc, pois,
                              n_categories=cfg.n_categories, warn=False)
        w = np.array(ledger["env_weights"])
        v = np.array(ledger["soc_weights"])
        y = feats.env @ w + feats.soc @ v
        emitted = labels.values
        assert np.max(np.abs(y - emitted)) < 1e-12

    def test_jump_separates_barrier_straddling_neighbors(self):
        # Horizontally adjacent cells on opposite barrier sides should differ
        # by the jump up to the continuous terms; with sigma small and jump
        # large the gap stays visible with margin jump - 2*sigma.
        cfg = small_config(n_cols=12, n_rows=12, jump=4.0, noise_sigma=0.1,
                           smooth_amplitude=0.2, seed=3,
                           barrier=((6.0, 0.0), (6.0, 12.0)))
        _, _, labels, ledger = generate(cfg)
        comp = ledger["components"]
        side = np.array(ledger["barrier_side"])
        # Non-feature part of y isolates the discontinuity from env/soc terms.
        base = (np.array(comp["smooth"]) + np.array(comp["jump_term"])
                + np.array(comp["noise"]))
        n_cols = cfg.n_cols
        gaps = []
        for idx in range(side.size):
            x, y_ = idx % n_cols, idx // n_cols
            if x + 1 < n_cols:
                j = idx + 1
                if side[idx] != side[j]:
                    gaps.append(abs(base[j] - base[idx]))
        assert gaps, "expected straddling pairs"
        margin = cfg.jump - 2 * cfg.noise_sigma
        assert np.mean([g >= margin - 2 * cfg.smooth_amplitude for g in gaps]) > 0.9

    def test_poi_rates_respected_within_three_sigma(self):
        # Per archetype, total POI count is Poisson with a known mean.
        cfg = small_config(n_cols=10, n_rows=10, seed=11)
        _, pois, _, ledger = generate(cfg)
        res = cfg.resolved()
        archetype = np.array(ledger["archetype_of_region"])
        grid = GridSpec(cfg.origin_lon, cfg.origin_lat, cfg.n_cols, cfg.n_rows,
                        cfg.cell_km)
        counts = np.zeros(cfg.n_archetypes)
        for lon, lat in zip(pois.lon.tolist(), pois.lat.tolist()):
            region = region_of(lon, lat, grid)
            assert region is not None
            counts[archetype[grid.region_index(region)]] += 1
        for a in range(cfg.n_archetypes):
            n_cells = int((archetype == a).sum())
            if n_cells == 0:
                continue
            mean = n_cells * res.poi_rates[a].sum()
            sigma = math.sqrt(mean) if mean > 0 else 0.0
            assert abs(counts[a] - mean) <= 3 * sigma + 1e-9

    def test_archetypes_follow_voronoi_partition(self):
        assert 24 * 24 > VORONOI_BLOCK     # the second world spans blocks
        for cfg in (small_config(seed=13),
                    small_config(n_cols=24, n_rows=24, pixels_per_cell=1,
                                 n_patches=40, seed=14)):
            _, _, _, ledger = generate(cfg)
            centers = np.array([(x + 0.5, y + 0.5)
                                for y in range(cfg.n_rows)
                                for x in range(cfg.n_cols)])
            patch_xy = np.array(ledger["patch_centers"])
            patch_arch = np.array(ledger["patch_archetypes"])
            d2 = ((centers[:, None, :] - patch_xy[None, :, :]) ** 2).sum(axis=2)
            want = patch_arch[np.argmin(d2, axis=1)]
            assert np.array_equal(want,
                                  np.array(ledger["archetype_of_region"]))

    def test_custom_weights_used(self):
        w = np.zeros(11)
        v = np.zeros(6)
        cfg = small_config(env_weights=w, soc_weights=v, noise_sigma=0.0,
                           jump=0.0, smooth_amplitude=0.0)
        _, _, labels, _ = generate(cfg)
        assert all(val == 0.0 for val in labels.values.tolist())


class TestBlockDrawsMatchLoop:
    """generate draws in blocks; a draw-by-draw loop must give the same
    world to the bit, and leave the rng where the block draws leave it
    (the noise comes last)."""

    ZERO_MIX = np.array([[0.0, 0.5, 0.0, 0.5],
                         [1.0, 0.0, 0.0, 0.0],
                         [0.25, 0.25, 0.25, 0.25]])
    ZERO_RATES = np.array([[0.0, 0.0, 0.0],
                           [1.5, 0.0, 4.0],
                           [0.3, 0.02, 0.0]])

    @pytest.mark.parametrize("overrides", [
        dict(n_cols=11, n_rows=6, seed=1),
        dict(pixels_per_cell=1, seed=2),
        dict(pixels_per_cell=5, seed=3),
        dict(n_archetypes=1, n_patches=3, seed=4),
        dict(n_archetypes=3, n_classes=4, n_categories=3,
             class_mix=ZERO_MIX, poi_rates=ZERO_RATES, seed=5),
        dict(n_categories=0, seed=6),
        dict(noise_sigma=0.0, seed=7),
        dict(n_cols=20, n_rows=17, n_patches=30, origin_lon=12.5,
             origin_lat=41.9, cell_km=0.5, seed=8),
    ])
    @pytest.mark.parametrize("chunk", [synth.POI_CHUNK, 1, 7])
    def test_world_is_bit_identical(self, overrides, chunk, monkeypatch):
        # Tiny chunks put count and placement draws across chunk ends.
        monkeypatch.setattr(synth, "POI_CHUNK", chunk)
        cfg = small_config(**overrides)
        lc, pois, labels, ledger = generate(cfg)
        classes, want_pois, archetype, smooth, side, noise = \
            loop_generate(cfg)
        assert np.array_equal(lc.classes, classes)
        for name in ("lon", "lat", "category"):
            assert np.array_equal(getattr(pois, name), getattr(want_pois, name))
        assert ledger["archetype_of_region"] == archetype.tolist()
        assert ledger["poi_count_total"] == len(want_pois)
        comp = ledger["components"]
        assert comp["smooth"] == smooth.tolist()
        assert ledger["barrier_side"] == side
        assert comp["noise"] == noise.tolist()

        # Labels and the other ledger fields from the loop world's raster and
        # POIs, as generate composes them.
        res = cfg.resolved()
        feats = featurize_all(lc.grid, lc, want_pois,
                              n_categories=cfg.n_categories, warn=False)
        env = [float(res.env_weights @ row) for row in feats.env]
        soc = [float(res.soc_weights @ row) for row in feats.soc]
        assert comp["env_term"] == env
        assert comp["soc_term"] == soc
        jump = [cfg.jump * float(s) for s in side]
        assert comp["jump_term"] == jump
        y = (np.array(env) + np.array(soc) + smooth + np.array(jump)
             + noise).tolist()
        assert ledger["labels"] == y
        assert labels.cells.tolist() == lc.grid.cells().tolist()
        assert labels.values.tolist() == y

    def test_unreachable_rate_raises_at_once(self):
        # exp(-1000) underflows to 0: the sequential search never ends (it
        # gave up after 10 M steps); the table has one entry and says so.
        assert synth._poisson_table(1000.0) == [0.0]
        rates = np.full((4, 6), 1.0)
        rates[:, 2] = 1000.0
        with pytest.raises(GeoDataError, match="did not terminate"):
            generate(small_config(poi_rates=rates))
        with pytest.raises(GeoDataError, match="did not terminate"):
            poisson_sample(np.random.default_rng(0), 1000.0)
