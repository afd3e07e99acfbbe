import dataclasses
import math

import numpy as np
import pytest

from irs_gbsm.clusters import (
    ClusterPair,
    ClusterSet,
    VisibilityTensor,
    evolve_visibility,
    expected_cluster_count,
    lag1_autocorrelation,
    realize_subchannel,
    realize_subchannels,
)
from irs_gbsm.geometry import (
    RotationAngles,
    TerminalLayout,
    rotation_matrices,
)
from irs_gbsm.rng import rng_stream
from tests.cir_oracle import los_distance
from tests.conftest import generate_cluster_pairs, make_config
from tests.field_oracle import reference_single_pair

TX = np.zeros(3)
RX = np.array([100.0, 0.0, 0.0])


def cluster_params(**over):
    cfg = make_config(clusters=over)
    return cfg.clusters


class TestGeneration:
    def test_zero_sigma_collapses_to_center(self):
        params = cluster_params(sigma_xyz_m=[0.0, 0.0, 0.0])
        clusters = generate_cluster_pairs(params, TX, RX, rng_stream(1, "g"), count=4)
        assert np.allclose(clusters.scatter_a, clusters.center_a[:, None, :], atol=1e-12)
        assert np.allclose(clusters.scatter_z, clusters.center_z[:, None, :], atol=1e-12)
        d = (np.linalg.norm(clusters.scatter_a - TX, axis=2)
             + np.linalg.norm(clusters.scatter_z - RX, axis=2))
        assert np.ptp(d, axis=1).max() < 1e-9  # all rays of a cluster share one delay

    def test_scatterer_covariance_matches_density(self):
        # moment check: rotate GCS offsets back into the cluster frame and
        # compare the sample covariance with diag(sigma^2)
        sigma = (2.0, 1.0, 0.5)
        params = cluster_params(sigma_xyz_m=list(sigma), rays_per_cluster=100)
        clusters = generate_cluster_pairs(params, TX, RX, rng_stream(2, "g"), count=1000)
        offsets = clusters.scatter_a - clusters.center_a[:, None, :]
        # a GCS row vector p is p @ R in the cluster frame
        local = (offsets @ rotation_matrices(*clusters.angles_a.T)).reshape(-1, 3)
        cov = np.cov(local.T)
        assert np.allclose(np.diag(cov), np.square(sigma), rtol=0.02)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 0.02 * max(sigma) ** 2

    def test_virtual_delay_exponential_mean(self):
        params = cluster_params(virtual_delay_mean_ns=250.0)
        clusters = generate_cluster_pairs(params, TX, RX, rng_stream(3, "g"), count=100_000)
        assert np.mean(clusters.virtual_delay) == pytest.approx(250e-9, rel=0.02)

    def test_velocities_are_planar(self):
        params = cluster_params(speed_a_mps=3.0, speed_z_mps=4.0)
        clusters = generate_cluster_pairs(params, TX, RX, rng_stream(5, "g"), count=50)
        assert (clusters.vel_a[:, 2] == 0.0).all() and (clusters.vel_z[:, 2] == 0.0).all()
        assert np.allclose(np.linalg.norm(clusters.vel_a, axis=1), 3.0, rtol=0, atol=1e-12)
        assert np.allclose(np.linalg.norm(clusters.vel_z, axis=1), 4.0, rtol=0, atol=1e-12)

    def test_center_distance_floor(self):
        params = cluster_params(center_distance_min_m=5.0)
        clusters = generate_cluster_pairs(params, TX, RX, rng_stream(6, "g"), count=300)
        assert np.linalg.norm(clusters.center_a - TX, axis=1).min() >= 5.0
        assert np.linalg.norm(clusters.center_z - RX, axis=1).min() >= 5.0

    def test_negative_sigma_rejected(self):
        params = dataclasses.replace(cluster_params(), sigma_xyz_m=(-1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            generate_cluster_pairs(params, TX, RX, rng_stream(7, "g"), count=2)

    def test_poisson_count_when_unspecified(self):
        params = cluster_params(birth_rate=80.0, death_rate=4.0)
        counts = [len(generate_cluster_pairs(params, TX, RX, rng_stream(8, "g", k)))
                  for k in range(800)]
        assert np.mean(counts) == pytest.approx(20.0, rel=0.05)


IRS_LAYOUT = TerminalLayout.planar(8, 8, 2.5e-3, 2.5e-3, 0.0, np.pi / 3, np.pi / 2, np.pi / 6)


def initial_count(tensor):
    """The chain's initial cluster count: the clusters element 1 sees."""
    return np.count_nonzero(tensor.flat < tensor.n_clusters)


class TestVisibilityEvolution:
    def test_tiny_spacing_keeps_everything_visible(self):
        layout = TerminalLayout.planar(6, 6, 1e-12, 1e-12, 0.0, 0.0, np.pi / 2, 0.0)
        params = cluster_params(birth_rate=80.0, death_rate=4.0)
        tensor = evolve_visibility(layout, params, rng_stream(10, "e"))
        assert tensor.n_clusters == initial_count(tensor)
        assert tensor.grid.all()

    def test_initial_count_mean(self):
        params = cluster_params(birth_rate=80.0, death_rate=4.0)
        n0 = [initial_count(evolve_visibility(IRS_LAYOUT, params, rng_stream(11, "e", k)))
              for k in range(2000)]
        assert np.mean(n0) == pytest.approx(20.0, rel=0.05)

    def test_steady_state_mean_visible(self):
        params = cluster_params(birth_rate=80.0, death_rate=4.0,
                                correlation_factor_m=10.0)
        total = 0.0
        runs = 10_000
        for k in range(runs):
            total += evolve_visibility(IRS_LAYOUT, params, rng_stream(12, "e", k)).mean_visible()
        assert total / runs == pytest.approx(20.0, rel=0.05)

    def test_contiguous_runs_not_iid(self):
        params = cluster_params(birth_rate=80.0, death_rate=4.0,
                                correlation_factor_m=10.0)
        layout = TerminalLayout.planar(48, 48, 2.585e-3, 2.585e-3,
                                       0.0, np.pi / 3, np.pi / 2, np.pi / 6)
        tensor = evolve_visibility(layout, params, rng_stream(13, "e"))
        assert lag1_autocorrelation(tensor) > 0.5

    def test_reproducible(self):
        params = cluster_params()
        a = evolve_visibility(IRS_LAYOUT, params, rng_stream(14, "e"))
        b = evolve_visibility(IRS_LAYOUT, params, rng_stream(14, "e"))
        assert np.array_equal(a.grid, b.grid)

    @pytest.mark.parametrize("layout", [
        TerminalLayout.planar(16, 16, 2.585e-3, 2.585e-3, 0.0, np.pi / 3, np.pi / 2, np.pi / 6),
        TerminalLayout.linear("BS", 128, 2.5e-3, 0.0, 0.0),
    ], ids=["irs16x16", "linear_bs"])
    def test_expected_cluster_count_is_the_chain_mean(self, layout):
        params = cluster_params(birth_rate=80.0, death_rate=4.0, correlation_factor_m=10.0)
        counts = [evolve_visibility(layout, params, rng_stream(16, "e", k)).n_clusters
                  for k in range(200)]
        want = expected_cluster_count(layout, params)
        assert want > 2 * params.mean_count  # births along the array, not only lambda
        assert abs(np.mean(counts) - want) < 3 * np.std(counts, ddof=1) / np.sqrt(200)

    def test_linear_array_shape(self):
        layout = TerminalLayout.linear("BS", 16, 2.5e-3, 0.0, 0.0)
        tensor = evolve_visibility(layout, cluster_params(), rng_stream(15, "e"))
        assert tensor.grid.shape[:2] == (16, 1)
        assert tensor.matrix.shape[0] == 16

    def test_sequential_chain_gives_single_runs(self):
        # a cluster, once dead along a chain, never returns: per (cluster,
        # row) the visibility along y is one contiguous run, and likewise
        # along x in the first column
        params = cluster_params(birth_rate=80.0, death_rate=4.0,
                                correlation_factor_m=2.0)
        tensor = evolve_visibility(IRS_LAYOUT, params, rng_stream(18, "e"))
        grid = tensor.grid.astype(int)
        rising_y = np.clip(np.diff(grid, axis=1), 0, 1).sum(axis=1) + grid[:, 0, :]
        assert rising_y.max() <= 1
        col = grid[:, 0, :]
        rising_x = np.clip(np.diff(col, axis=0), 0, 1).sum(axis=0) + col[0, :]
        assert rising_x.max() <= 1

    def test_rows_export_visible_only(self):
        tensor = evolve_visibility(IRS_LAYOUT, cluster_params(), rng_stream(16, "e"))
        x, y, cid, vis = tensor.columns()
        mean = tensor.mean_visible()
        # the cluster-evolve path lists and counts entries without the dense view
        assert "grid" not in tensor.__dict__
        assert mean == tensor.matrix.sum(axis=1).mean()
        assert x.size == y.size == cid.size == vis.size == int(tensor.grid.sum())
        assert vis.all() and 1 <= x.min() and x.max() <= 8 and 1 <= y.min()
        assert y.max() <= 8 and cid.min() >= 0
        assert tensor.grid[x - 1, y - 1, cid].all()
        # C order of the grid: x, then y, then cluster
        flat = np.ravel_multi_index((x - 1, y - 1, cid), tensor.grid.shape)
        assert np.array_equal(flat, np.flatnonzero(tensor.grid))
        # a linear array's chain keeps no dense view either: one column, y = 1
        linear = evolve_visibility(TerminalLayout.linear("BS", 16, 2.5e-3, 0.0, 0.0),
                                   cluster_params(), rng_stream(16, "e"))
        assert "grid" not in linear.__dict__
        x, y, cid, _ = linear.columns()
        assert (y == 1).all() and x.max() <= 16
        assert np.array_equal(np.flatnonzero(linear.grid),
                              np.ravel_multi_index((x - 1, y - 1, cid), linear.shape))


def reference_chain(layout, params, rng):
    """The birth-death chain that re-padded every earlier y-slice (oracle)."""
    mean_n = params.mean_count
    if layout.kind == "IRS":
        m_x, m_y = layout.counts
        p_x = math.exp(-params.chain_rate * layout.spacings[0]
                       * math.cos(layout.elevations[0]) / params.correlation_factor_m)
        p_y = math.exp(-params.chain_rate * layout.spacings[1]
                       * math.cos(layout.elevations[1]) / params.correlation_factor_m)
    else:
        m_x, m_y = layout.counts[0], 1
        p_x = math.exp(-params.chain_rate * layout.spacings[0]
                       * math.cos(layout.elevations[0]) / params.correlation_factor_m)
        p_y = 1.0
    n0 = int(rng.poisson(mean_n))
    row_states = [np.ones(n0, dtype=bool)]
    for _ in range(1, m_x):
        prev = row_states[-1]
        survive = prev & (rng.random(prev.size) < p_x)
        n_new = int(rng.poisson(mean_n * (1.0 - p_x)))
        row_states.append(np.concatenate([survive, np.ones(n_new, dtype=bool)]))
    state = np.zeros((m_x, row_states[-1].size), dtype=bool)
    for x, row in enumerate(row_states):
        state[x, : row.size] = row
    slices = [state.copy()]
    for _ in range(1, m_y):
        state = state & (rng.random(state.shape) < p_y)
        births = rng.poisson(mean_n * (1.0 - p_y), size=m_x)
        total_new = int(births.sum())
        if total_new:
            fresh = np.zeros((m_x, total_new), dtype=bool)
            offset = 0
            for x, b in enumerate(births):
                fresh[x, offset: offset + b] = True
                offset += int(b)
            state = np.concatenate([state, fresh], axis=1)
            slices = [np.concatenate(
                [s, np.zeros((m_x, total_new), dtype=bool)], axis=1) for s in slices]
        slices.append(state.copy())
    return np.stack(slices, axis=1), n0


def _first_seed_without_initial_clusters(mean):
    return next(s for s in range(1000) if rng_stream(s, "n0").poisson(mean) == 0)


class TestChainOracle:
    @pytest.mark.parametrize("layout, over, seed", [
        (TerminalLayout.linear("BS", 16, 2.5e-3, 0.0, 0.0), {}, 3),
        (make_config(irs={"m_x": 1, "m_y": 1}).irs.layout(), {}, 4),
        (make_config(irs={"m_x": 5, "m_y": 5}).irs.layout(), {}, 5),
        (TerminalLayout.planar(16, 9, 2.585e-3, 2.585e-3, 0.0, np.pi / 3,
                               np.pi / 2, np.pi / 6),
         {"birth_rate": 80.0, "correlation_factor_m": 0.05}, 6),
        (make_config(irs={"m_x": 5, "m_y": 5}).irs.layout(),
         {"birth_rate": 2.0, "death_rate": 4.0, "correlation_factor_m": 0.01}, None),
    ], ids=["linear16x1", "1x1", "5x5", "planar16x9", "n0_zero"])
    def test_matches_repadding_chain(self, layout, over, seed):
        params = cluster_params(**over)
        n0_zero = seed is None
        if n0_zero:
            seed = _first_seed_without_initial_clusters(params.mean_count)
        rng_new, rng_ref = rng_stream(seed, "n0"), rng_stream(seed, "n0")
        tensor = evolve_visibility(layout, params, rng_new)
        grid, n0 = reference_chain(layout, params, rng_ref)
        expect = np.flatnonzero(grid)
        assert tensor.shape == grid.shape
        assert tensor.flat.dtype == expect.dtype and tensor.flat.shape == expect.shape
        assert np.array_equal(tensor.flat, expect)
        assert tensor.grid.shape == grid.shape and tensor.grid.dtype == grid.dtype
        assert np.array_equal(tensor.grid, grid) and not tensor.grid.flags.writeable
        assert initial_count(tensor) == n0
        assert rng_new.random() == rng_ref.random()
        if n0_zero:
            assert n0 == 0 and grid.shape[2] > 0  # every cluster is born later
        if layout.counts == (16, 9):
            assert grid.shape[2] > grid[:, 0, :].any(axis=0).sum()  # Y-pass births

    @pytest.mark.parametrize("boost, grows", [(1.0, False), (8.0, True)],
                             ids=["expected_births", "births_x8"])
    def test_y_pass_draw_buffer(self, boost, grows):
        # every Y step draws into one buffer sized for the expected births;
        # births far above their mean (every Poisson mean scaled by 8) outgrow
        # it, and the grown buffer must keep the stream
        layout = TerminalLayout.planar(16, 9, 2.585e-3, 2.585e-3, 0.0, np.pi / 3,
                                       np.pi / 2, np.pi / 6)
        params = cluster_params(birth_rate=80.0, correlation_factor_m=0.05)
        outs = []

        class Boosted:
            def __init__(self, rng, record):
                self.rng, self.record = rng, record

            def poisson(self, lam, size=None):
                return self.rng.poisson(lam * boost, size)

            def random(self, *args, out=None):
                if self.record and out is not None:
                    outs.append(out)
                return self.rng.random(*args, out=out)

        rng_new, rng_ref = rng_stream(6, "n0"), rng_stream(6, "n0")
        tensor = evolve_visibility(layout, params, Boosted(rng_new, True))
        grid, _ = reference_chain(layout, params, Boosted(rng_ref, False))
        assert np.array_equal(tensor.flat, np.flatnonzero(grid))
        assert rng_new.random() == rng_ref.random()
        assert len(outs) == 8 and all(o.shape[0] == 16 for o in outs)  # one per Y step
        assert all(o.size <= o.base.size and o.dtype == np.float64 for o in outs)
        buffers = list({id(o.base): o.base for o in outs}.values())
        if grows:
            assert 1 < len(buffers) < len(outs)  # grown, and reused between growths
            assert all(a.size < b.size for a, b in zip(buffers, buffers[1:]))
        else:
            assert len(buffers) == 1

def corrcoef_lag1(grid):
    """Lag-1 correlation as np.corrcoef of the two shifted dense grids (oracle)."""
    if grid.shape[1] > 1:
        a, b = grid[:, :-1, :], grid[:, 1:, :]
    else:
        a, b = grid[:-1, 0, :], grid[1:, 0, :]
    a, b = a.reshape(-1).astype(float), b.reshape(-1).astype(float)
    if a.std() == 0 or b.std() == 0:
        return 1.0
    return float(np.corrcoef(a, b)[0, 1])


def tensor_of(grid):
    return VisibilityTensor(shape=grid.shape, flat=np.flatnonzero(grid))


class TestLag1Oracle:
    @pytest.mark.parametrize("layout, over", [
        (TerminalLayout.planar(48, 48, 2.585e-3, 2.585e-3, 0.0, np.pi / 3,
                               np.pi / 2, np.pi / 6),
         {"birth_rate": 80.0, "death_rate": 4.0, "correlation_factor_m": 10.0}),
        (IRS_LAYOUT, {"birth_rate": 80.0, "correlation_factor_m": 0.05}),
        (TerminalLayout.linear("BS", 16, 2.5e-3, 0.0, 0.0),
         {"birth_rate": 80.0, "correlation_factor_m": 0.05}),
    ], ids=["planar48x48", "planar8x8", "linear16x1"])
    def test_chain_matches_corrcoef(self, layout, over):
        tensor = evolve_visibility(layout, cluster_params(**over), rng_stream(19, "e"))
        want = corrcoef_lag1(tensor.grid)
        assert -1.0 < want < 1.0  # not a constant indicator
        np.testing.assert_allclose(lag1_autocorrelation(tensor), want, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 4, 3), (7, 1, 4), (1, 6, 5)])
    def test_random_grid_matches_corrcoef(self, shape):
        grid = np.random.default_rng(sum(shape)).random(shape) < 0.4
        np.testing.assert_allclose(lag1_autocorrelation(tensor_of(grid)),
                                   corrcoef_lag1(grid), rtol=1e-12)

    @pytest.mark.parametrize("fill", [False, True])
    @pytest.mark.parametrize("shape", [(4, 3, 2), (6, 1, 3)])
    def test_constant_grid_is_one(self, shape, fill):
        grid = np.full(shape, fill)
        assert lag1_autocorrelation(tensor_of(grid)) == corrcoef_lag1(grid) == 1.0


def reference_cluster_pairs(params, tx_ref, rx_ref, rng, count):
    """Per-cluster generator that built one ClusterPair per cluster (oracle)."""
    sigma = np.asarray(params.sigma_xyz_m, dtype=float)
    if count == 0:
        return []
    tx_ref = np.asarray(tx_ref, dtype=float)
    rx_ref = np.asarray(rx_ref, dtype=float)
    m_n = params.rays_per_cluster
    el_max = math.radians(params.center_elevation_max_deg)
    centers, angles, scatter, vel = {}, {}, {}, {}
    for side, ref in (("a", tx_ref), ("z", rx_ref)):
        az = rng.uniform(-np.pi, np.pi, count)
        el = rng.uniform(-el_max, el_max, count)
        dist = params.center_distance_min_m + rng.exponential(
            params.center_distance_mean_m, count)
        ce = np.cos(el)
        unit = np.stack([ce * np.cos(az), ce * np.sin(az), np.sin(el)], axis=-1)
        centers[side] = ref + dist[:, None] * unit
        angles[side] = rng.uniform(-np.pi, np.pi, (count, 3))
    for side in ("a", "z"):
        local = rng.standard_normal((count, m_n, 3)) * sigma
        rot = rotation_matrices(*angles[side].T)
        scatter[side] = np.einsum("nmi,nji->nmj", local, rot) + centers[side][:, None, :]
    tau_v = rng.exponential(params.virtual_delay_mean_ns * 1e-9, count)
    for side, speed, fixed in (
        ("a", params.speed_a_mps, params.velocity_azimuth_a_deg),
        ("z", params.speed_z_mps, params.velocity_azimuth_z_deg),
    ):
        alpha = (rng.uniform(-np.pi, np.pi, count) if fixed is None
                 else np.full(count, math.radians(fixed)))
        vel[side] = speed * np.stack([np.cos(alpha), np.sin(alpha), np.zeros_like(alpha)],
                                     axis=-1)
    return [
        ClusterPair(
            id=cid, center_a=centers["a"][cid], center_z=centers["z"][cid],
            angles_a=RotationAngles(*angles["a"][cid]),
            angles_z=RotationAngles(*angles["z"][cid]), sigma=tuple(sigma),
            scatter_a=scatter["a"][cid], scatter_z=scatter["z"][cid],
            virtual_delay=float(tau_v[cid]), vel_a=vel["a"][cid], vel_z=vel["z"][cid])
        for cid in range(count)
    ]


def reference_realization(cfg, subchannel, rng):
    """Per-call scene and layouts, per-cluster objects restacked into rays (oracle).

    Returns (clusters, rays, visibility grid).
    """
    scene = cfg.scene()
    bs, irs = cfg.bs.layout("BS"), cfg.irs.layout()
    origin, v_irs = np.zeros(3), np.zeros(3)
    v_bs, v_user = cfg.bs.velocity(), cfg.user.velocity()
    tx_ref, rx_ref, v_tx, v_rx, evolved_layout = {
        "BI": (origin, scene.d_bi, v_bs, v_irs, irs),
        "IU": (scene.d_bi, scene.d_bu, v_irs, v_user, irs),
        "BU": (origin, scene.d_bu, v_bs, v_user, bs),
    }[subchannel]
    vis = evolve_visibility(evolved_layout, cfg.clusters, rng)
    clusters = reference_cluster_pairs(cfg.clusters, tx_ref, rx_ref, rng, vis.n_clusters)
    if not clusters:
        empty3 = np.zeros((0, 3))
        return clusters, {
            "d0_tx": empty3, "d0_rx": empty3, "v_rel_tx": empty3, "v_rel_rx": empty3,
            "tau_v": np.zeros(0), "cluster_ids": np.zeros(0, dtype=int),
            "ray_ids": np.zeros(0, dtype=int)}, vis.grid
    counts = np.array([c.num_rays for c in clusters])
    rays = {
        "d0_tx": np.concatenate([c.scatter_a for c in clusters]) - tx_ref,
        "d0_rx": np.concatenate([c.scatter_z for c in clusters]) - rx_ref,
        "v_rel_tx": np.repeat(v_tx - np.stack([c.vel_a for c in clusters]), counts, axis=0),
        "v_rel_rx": np.repeat(v_rx - np.stack([c.vel_z for c in clusters]), counts, axis=0),
        "tau_v": np.repeat([c.virtual_delay for c in clusters], counts),
        "cluster_ids": np.repeat([c.id for c in clusters], counts),
        "ray_ids": np.concatenate([np.arange(c.num_rays) for c in clusters]),
    }
    return clusters, rays, vis.grid


def _first_seed_without_clusters(cfg, subchannel):
    return next(s for s in range(1000)
                if realize_subchannel(cfg, subchannel, rng_stream(s, "r")).num_rays == 0)


class TestStackedRealizationOracle:
    @pytest.mark.parametrize("kind", ["BI", "IU", "BU"])
    @pytest.mark.parametrize("over, seed", [
        ({"bs": {"num_elements": 6}, "user": {"num_elements": 3}}, 31),
        ({"irs": {"m_x": 5, "m_y": 5}, "rician_k_db": 5.0}, 32),
        ({"clusters": {"birth_rate": 2.0, "death_rate": 4.0}}, None),
    ], ids=["linear", "irs5x5", "zero_clusters"])
    def test_matches_per_cluster_restack(self, kind, over, seed):
        cfg = make_config(**over)
        zero = seed is None
        if zero:
            seed = _first_seed_without_clusters(cfg, kind)
        rng_new, rng_ref = rng_stream(seed, "r"), rng_stream(seed, "r")
        real = realize_subchannel(cfg, kind, rng_new)
        ref_clusters, ref_rays, ref_grid = reference_realization(cfg, kind, rng_ref)
        assert np.array_equal(real.visibility.grid, ref_grid)
        assert real.rays.keys() == ref_rays.keys()
        for key, want in ref_rays.items():
            got = real.rays[key]
            assert got.shape == want.shape and got.dtype == want.dtype, key
            assert np.array_equal(got, want), key
        assert rng_new.random() == rng_ref.random()
        # the per-cluster views carry the fields the per-cluster objects had
        views = list(real.clusters)
        assert len(real.clusters) == len(views) == len(ref_clusters)
        for view, want in zip(views, ref_clusters):
            assert view.num_rays == want.num_rays
            for field in dataclasses.fields(ClusterPair):
                a, b = getattr(view, field.name), getattr(want, field.name)
                assert np.array_equal(a, b) and type(a) is type(b), field.name
        if zero:
            assert real.num_rays == 0 and not ref_clusters
        else:
            assert real.num_rays > 0


_SET_FIELDS = [f.name for f in dataclasses.fields(ClusterSet)]


class TestChunkOracle:
    """A chunk of realizations equals each realization built alone, field by field."""

    @pytest.mark.parametrize("kind", ["BI", "IU", "BU"])
    @pytest.mark.parametrize("chunk", [1, 8])
    @pytest.mark.parametrize("over", [
        {},
        {"clusters": {"velocity_azimuth_a_deg": 30.0, "velocity_azimuth_z_deg": -45.0}},
        {"clusters": {"birth_rate": 2.0, "death_rate": 4.0}},
    ], ids=["drawn_azimuth", "fixed_azimuth", "sparse"])
    def test_matches_single_realizations(self, kind, chunk, over):
        cfg = make_config(irs={"m_x": 3, "m_y": 2}, bs={"num_elements": 4}, **over)
        streams = [rng_stream(5, "trial", k, kind) for k in range(chunk)]
        singles = [rng_stream(5, "trial", k, kind) for k in range(chunk)]
        oracles = [rng_stream(5, "trial", k, kind) for k in range(chunk)]
        reals = realize_subchannels(cfg, kind, streams)
        assert len(reals) == chunk and realize_subchannels(cfg, kind, []) == []
        for real, stream, single, oracle in zip(reals, streams, singles, oracles):
            alone = realize_subchannel(cfg, kind, single)
            _, ref_rays, ref_grid = reference_realization(cfg, kind, oracle)
            for field in dataclasses.fields(real):
                if field.name not in ("clusters", "visibility"):
                    a, b = getattr(real, field.name), getattr(alone, field.name)
                    assert a is b or a == b, field.name  # shared link ends, scalars
            for name in _SET_FIELDS:
                a, b = getattr(real.clusters, name), getattr(alone.clusters, name)
                assert np.array_equal(a, b) and np.shape(a) == np.shape(b), name
            assert np.array_equal(real.visibility.grid, alone.visibility.grid)
            assert initial_count(real.visibility) == initial_count(alone.visibility)
            assert np.array_equal(real.visibility.grid, ref_grid)
            assert real.rays.keys() == alone.rays.keys() == ref_rays.keys()
            for key, want in ref_rays.items():
                for got in (real.rays[key], alone.rays[key]):
                    assert got.dtype == want.dtype and np.array_equal(got, want), key
            # each generator is left where a realization built alone leaves it
            assert stream.random() == single.random() == oracle.random()
        if over.get("clusters", {}).get("birth_rate") == 2.0 and chunk == 8:
            counts = [len(r.clusters) for r in reals]
            assert 0 in counts and max(counts) > 0  # an empty trial inside a chunk

    def test_rays_of_a_replaced_realization_follow_its_clusters(self):
        cfg = make_config()
        real, other = realize_subchannels(cfg, "BI", [rng_stream(1, "r", k) for k in (0, 1)])
        moved = dataclasses.replace(real, clusters=other.clusters)
        for key, value in other.rays.items():
            assert np.array_equal(moved.rays[key], value), key


def advance_clusters(clusters: ClusterSet, dt: float) -> ClusterSet:
    """Translate cluster centers and scatterers by their velocities over dt (oracle)."""
    shift_a = clusters.vel_a * dt
    shift_z = clusters.vel_z * dt
    return dataclasses.replace(
        clusters,
        center_a=clusters.center_a + shift_a, center_z=clusters.center_z + shift_z,
        scatter_a=clusters.scatter_a + shift_a[:, None, :],
        scatter_z=clusters.scatter_z + shift_z[:, None, :])


class TestMotion:
    def realization(self, **over):
        cfg = make_config(**over)
        return realize_subchannel(cfg, "BI", rng_stream(cfg.seed, "trial", 0, "BI"))

    def test_zero_velocity_is_static(self):
        params = cluster_params(speed_a_mps=0.0, speed_z_mps=0.0)
        clusters = generate_cluster_pairs(params, TX, RX, rng_stream(20, "g"), count=3)
        moved = advance_clusters(clusters, 2.0)
        assert np.array_equal(clusters.scatter_a, moved.scatter_a)
        assert np.array_equal(clusters.center_z, moved.center_z)

    def test_constant_velocity_translation(self):
        params = cluster_params(speed_a_mps=1.0, velocity_azimuth_a_deg=0.0)
        clusters = generate_cluster_pairs(params, TX, RX, rng_stream(21, "g"), count=3)
        moved = advance_clusters(clusters, 2.0)
        assert np.allclose(moved.scatter_a - clusters.scatter_a, [2.0, 0.0, 0.0],
                           atol=1e-12)
        assert np.allclose(moved.center_a - clusters.center_a, [2.0, 0.0, 0.0],
                           atol=1e-12)

    def test_powers_preserved_under_motion(self):
        # the ray powers at time t are those of the scene translated to t
        real = self.realization(clusters={"speed_a_mps": 3.0, "speed_z_mps": 2.0})
        t = 5.0
        moved = dataclasses.replace(
            real,
            clusters=advance_clusters(real.clusters, t),
            tx_ref=real.tx_ref + real.v_tx * t,
            rx_ref=real.rx_ref + real.v_rx * t)
        direct = reference_single_pair(real, t)
        recomputed = reference_single_pair(moved, 0.0)
        assert direct["visible"].any()
        assert np.allclose(direct["powers"], recomputed["powers"], rtol=1e-12, atol=0)

    def test_velocity_form_matches_translated_positions(self):
        # path lengths from the velocity-integral expressions must equal a
        # fresh evaluation on translated scatterers and terminal references
        real = self.realization()
        t = 1.7
        direct = reference_single_pair(real, t)["d"][:, 0]
        moved = dataclasses.replace(
            real,
            clusters=advance_clusters(real.clusters, t),
            tx_ref=real.tx_ref + real.v_tx * t,
            rx_ref=real.rx_ref + real.v_rx * t)
        recomputed = reference_single_pair(moved, 0.0)["d"][:, 0]
        assert np.allclose(direct, recomputed, rtol=1e-12, atol=1e-9)
        assert los_distance(real, 1, 1, t)[0] == pytest.approx(
            los_distance(moved, 1, 1, 0.0)[0], rel=1e-12)


class TestRealization:
    def test_evolved_sides(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 2})
        for kind, side in (("BI", "rx"), ("IU", "tx"), ("BU", "tx")):
            real = realize_subchannel(cfg, kind, rng_stream(1, "t", kind))
            assert real.evolved_side == side

    def test_reference_points(self):
        cfg = make_config()
        scene = cfg.scene()
        bi = realize_subchannel(cfg, "BI", rng_stream(1, "t"))
        iu = realize_subchannel(cfg, "IU", rng_stream(1, "t"))
        bu = realize_subchannel(cfg, "BU", rng_stream(1, "t"))
        assert np.array_equal(bi.tx_ref, np.zeros(3))
        assert np.array_equal(bi.rx_ref, scene.d_bi)
        assert np.array_equal(iu.tx_ref, scene.d_bi)
        assert np.array_equal(iu.rx_ref, scene.d_bu)
        assert np.array_equal(bu.rx_ref, scene.d_bu)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            realize_subchannel(make_config(), "XX", rng_stream(1, "t"))

    def test_cluster_count_matches_visibility(self):
        cfg = make_config(irs={"m_x": 3, "m_y": 3})
        real = realize_subchannel(cfg, "BI", rng_stream(9, "t"))
        assert len(real.clusters) == real.visibility.n_clusters
        assert real.visibility.matrix.shape[0] == 9
