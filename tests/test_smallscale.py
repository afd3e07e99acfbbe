import dataclasses

import numpy as np
import pytest

from irs_gbsm.clusters import (
    ClusterRealization,
    ClusterSet,
    VisibilityTensor,
    realize_subchannel,
)
from irs_gbsm.geometry import SPEED_OF_LIGHT, TerminalLayout
from irs_gbsm.rng import rng_stream
from irs_gbsm import smallscale, stats
from irs_gbsm.smallscale import (
    CIR_HEADER,
    _pair_sums,
    _norms,
    _tap_blocks,
    element_1_taps,
    los_phasor,
    row_0_tap_sums,
    stacked_phasors,
    subchannel_taps,
)
from tests.cir_oracle import transfer_function, weighted_taps
from tests.conftest import empty_cluster_set, make_config
from tests.field_oracle import (
    ray_path_rates,
    reference_ray_field,
    reference_single_pair,
    visible_rays,
)

FC = 62e9


def toy_realization(scatter_a, scatter_z, tau_v=0.0, vel_a=(0, 0, 0), vel_z=(0, 0, 0),
                    v_tx=(0, 0, 0), v_rx=(0, 0, 0), k_factor=0.0,
                    rx_ref=(300.0, 0.0, 0.0), visible=None, gamma_ds=1e-6):
    """Single-cluster realization with fully controlled geometry."""
    scatter_a = np.atleast_2d(np.asarray(scatter_a, dtype=float))
    scatter_z = np.atleast_2d(np.asarray(scatter_z, dtype=float))
    clusters = ClusterSet(
        center_a=scatter_a.mean(axis=0)[None], center_z=scatter_z.mean(axis=0)[None],
        angles_a=np.zeros((1, 3)), angles_z=np.zeros((1, 3)), sigma=(0.0, 0.0, 0.0),
        scatter_a=scatter_a[None], scatter_z=scatter_z[None],
        virtual_delay=np.array([tau_v], dtype=float),
        vel_a=np.asarray(vel_a, dtype=float)[None], vel_z=np.asarray(vel_z, dtype=float)[None])
    grid = np.ones((1, 1, 1), dtype=bool) if visible is None else visible
    return ClusterRealization(
        subchannel="BI",
        tx_ref=np.zeros(3), rx_ref=np.asarray(rx_ref, dtype=float),
        tx_layout=TerminalLayout.linear("BS", 1, 0.0024, 0.0, 0.0),
        rx_layout=TerminalLayout.linear("USER", 1, 0.0024, 0.0, 0.0),
        v_tx=np.asarray(v_tx, dtype=float), v_rx=np.asarray(v_rx, dtype=float),
        clusters=clusters,
        visibility=VisibilityTensor(shape=grid.shape, flat=np.flatnonzero(grid)),
        evolved_side="rx", k_factor=k_factor, gamma_ds=gamma_ds, fc_hz=FC)


def ray_delays(real, times):
    """Delays of the ray rows of the CIR export of element pair (1, 1), (T, visible rays)."""
    cols = cir_table(real, times)
    return cols["delay_s"][~cols["is_los"]].reshape(len(times), -1)


def pair_taps(real, times, tx_element=1, rx_element=1):
    """(ray, d, power) of the rays visible to one element pair, from the tap kernel."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    b = next(_tap_blocks(real, times, 0.0, np.array([tx_element - 1]),
                         np.array([rx_element - 1])))
    return b.ray, b.d, b.power


class TestRayDelays:
    def test_300m_path_is_a_microsecond(self):
        # scatterers sit on the element-to-element line: 100 m to the first
        # bounce, 200 m from the last bounce, 300 m total
        real = toy_realization(scatter_a=[100.0, 0.0, 0.0],
                               scatter_z=[100.0, 0.0, 0.0], rx_ref=[300.0, 0.0, 0.0])
        tau = ray_delays(real, [0.0])[0, 0]
        assert tau == 300.0 / SPEED_OF_LIGHT
        assert tau == pytest.approx(1e-6, rel=2e-3)

    def test_virtual_delay_is_additive(self):
        base = toy_realization(scatter_a=[100.0, 0, 0], scatter_z=[100.0, 0, 0])
        extra = toy_realization(scatter_a=[100.0, 0, 0], scatter_z=[100.0, 0, 0],
                                tau_v=50e-9)
        t0 = ray_delays(base, [0.0])[0, 0]
        t1 = ray_delays(extra, [0.0])[0, 0]
        assert t1 - t0 == pytest.approx(50e-9, abs=1e-18)

    def test_static_scene_constant_delay(self):
        real = toy_realization(scatter_a=[80.0, 10.0, 2.0], scatter_z=[150.0, -5.0, 0.0])
        tau = ray_delays(real, [0.0, 0.5, 1.0, 2.0])
        assert np.ptp(tau) == 0.0


def cir_table(real, times):
    """The CIR columns of :func:`subchannel_taps` by name, plus each row's (t, tx, rx) group."""
    cols = dict(zip(CIR_HEADER, subchannel_taps(real, times)[0]))
    cols["group"] = np.cumsum(cols["is_los"]) - 1  # each group opens with its LoS row
    return cols


def two_ray_realization(**kwargs):
    return toy_realization(scatter_a=[[60, 0, 0], [61, 5, 0]],
                           scatter_z=[[70, 0, 0], [72, -3, 0]], **kwargs)


def los_lengths(real, times, tx=1, rx=1):
    """LoS path lengths c tau of the exported LoS rows of one pair, meters."""
    cols = cir_table(real, times)
    pick = cols["is_los"] & (cols["tx"] == tx) & (cols["rx"] == rx)
    return cols["delay_s"][pick] * SPEED_OF_LIGHT


class TestLosDelay:
    def test_reference_pair_distance(self):
        cfg = make_config(irs={"m_x": 3, "m_y": 3},
                          bs={"speed_mps": 0.0}, user={"speed_mps": 0.0})
        real = realize_subchannel(cfg, "BI", rng_stream(1, "t"))
        center = 5  # (2,2) of a 3x3 panel has zero offset
        d_bi = np.linalg.norm(cfg.scene().d_bi)
        assert los_lengths(real, [0.0], 1, center)[0] == pytest.approx(d_bi, rel=1e-12)

    def test_closing_speed_derivative(self):
        # BS moving straight at the receiver: d tau / dt = -v/c
        v = 10.0
        real = toy_realization(scatter_a=[100, 0, 0], scatter_z=[100, 0, 0],
                               v_tx=[v, 0.0, 0.0])
        h = 1e-5
        d_plus, d_minus = los_lengths(real, [h, -h])
        assert (d_plus - d_minus) / (2 * h) == pytest.approx(-v, rel=1e-9)

    def test_collinear_bu_distances_add(self):
        cfg = make_config(bs={"speed_mps": 0.0}, user={"speed_mps": 0.0})
        scene = cfg.scene()
        bu = realize_subchannel(cfg, "BU", rng_stream(2, "t"))
        expect = (np.linalg.norm(scene.d_bi) + np.linalg.norm(scene.d_iu))
        assert los_lengths(bu, [0.0])[0] == pytest.approx(expect, rel=1e-12)


class TestNlosCir:
    """The NLoS rows of the CIR export."""

    def test_single_unit_ray(self):
        real = toy_realization(scatter_a=[50, 0, 0], scatter_z=[70, 0, 0])
        cols = cir_table(real, [0.0])
        assert cols["is_los"].tolist() == [True, False]
        assert cols["amplitude"][1] == pytest.approx(1.0, abs=1e-12)

    def test_tap_count_is_visible_rays(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 2})
        real = realize_subchannel(cfg, "BI", rng_stream(3, "t"))
        cols = cir_table(real, [0.0])
        for r in range(1, 5):
            rows = ~cols["is_los"] & (cols["tx"] == 1) & (cols["rx"] == r)
            assert rows.sum() == visible_rays(real, 1, r).sum()

    def test_phase_difference_follows_delay_difference(self):
        real = two_ray_realization()
        cols = cir_table(real, [0.0])
        delay, phase = cols["delay_s"][1:], cols["phase_rad"][1:]
        dtau = delay[1] - delay[0]
        expect = np.mod(2 * np.pi * FC * dtau, 2 * np.pi)
        got = np.mod(phase[1] - phase[0], 2 * np.pi)
        assert np.mod(got - expect + np.pi, 2 * np.pi) - np.pi == pytest.approx(
            0.0, abs=1e-9)

    def test_empty_visible_set(self):
        grid = np.zeros((1, 1, 1), dtype=bool)
        real = toy_realization(scatter_a=[50, 0, 0], scatter_z=[70, 0, 0], visible=grid)
        assert cir_table(real, [0.0])["is_los"].tolist() == [True]


class TestCompose:
    """Rician weighting of the CIR export's amplitudes."""

    @staticmethod
    def two_ray_rows(k):
        cols = cir_table(two_ray_realization(k_factor=k), [0.0, 0.5])
        return cols["amplitude"] ** 2, cols["is_los"]

    @staticmethod
    def group_energy(cols):
        """Sum of amplitude^2 per (t, tx, rx) group, and whether it has a ray row."""
        energy = np.bincount(cols["group"], weights=cols["amplitude"] ** 2)
        rays = np.bincount(cols["group"], weights=~cols["is_los"])
        return energy, rays > 0

    def test_k_zero_drops_los(self):
        power, is_los = self.two_ray_rows(0.0)
        assert np.all(power[is_los] == 0.0)
        assert power[~is_los].sum() == pytest.approx(2.0, abs=1e-12)

    def test_k_large_suppresses_nlos(self):
        power, is_los = self.two_ray_rows(1e12)
        assert power[~is_los].sum() / power.sum() < 1e-6

    def test_k_one_equal_weights(self):
        power, is_los = self.two_ray_rows(1.0)
        assert np.allclose(power[is_los], 0.5, rtol=0, atol=1e-12)
        assert power[~is_los].sum() == pytest.approx(1.0, abs=1e-12)  # 0.5 at each t

    def test_energy_normalized(self):
        for k in (0.0, 0.5, 1.0, 5.0):
            energy, _ = self.group_energy(cir_table(two_ray_realization(k_factor=k), [0.0, 0.5]))
            assert np.allclose(energy, 1.0, rtol=0, atol=1e-9)

    def test_energy_normalized_on_generated_channel(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 3}, user={"num_elements": 2},
                          rician_k_db=5.0)
        real = realize_subchannel(cfg, "IU", rng_stream(4, "t"))
        energy, has_ray = self.group_energy(cir_table(real, [0.0, 0.3]))
        assert has_ray.any()
        assert np.allclose(energy[has_ray], 1.0, rtol=0, atol=1e-9)


def transfer(real, times, f=0.0):
    """Transfer values of element pair (1, 1) over times, from the statistics' tap sum."""
    u = los_phasor(real, times, real.fc_hz, f)
    return stacked_phasors(real, times, f, None, u)[0][0]


class TestTransferFunction:
    def test_single_unit_tap(self):
        real = toy_realization(scatter_a=[1, 0, 0], scatter_z=[1, 0, 0],
                               rx_ref=[200, 0, 0], k_factor=1e18)
        got = subchannel_taps(real, 0.0)[1][0, 0, 0]
        assert got == pytest.approx(np.exp(1j * 2 * np.pi * FC * 200.0 / SPEED_OF_LIGHT),
                                    abs=1e-6)

    def test_linear_in_amplitudes(self):
        # the Rician mix is linear in its two parts: the K = 1 transfer is the
        # K = 0 one (rays alone) and the LoS phasor, each weighted sqrt(1/2)
        times, f = np.array([0.0, 0.5]), 1e6
        rays_only = subchannel_taps(two_ray_realization(k_factor=0.0), times, f)[1][:, 0, 0]
        real = two_ray_realization(k_factor=1.0)
        mixed = subchannel_taps(real, times, f)[1][:, 0, 0]
        u = los_phasor(real, times, FC, f)[0]
        np.testing.assert_allclose(mixed, np.sqrt(0.5) * (u + rays_only), rtol=1e-12, atol=0)

    def test_three_tap_fourier_oracle(self):
        # LoS plus two rays: H(f) is the Fourier sum of the exported taps
        real = two_ray_realization(k_factor=1.0, tau_v=30e-9)
        f = 3.7e6
        cols = cir_table(real, [0.0])
        assert cols["delay_s"].size == 3
        oracle = np.sum(cols["amplitude"]
                        * np.exp(1j * 2 * np.pi * (FC - f) * cols["delay_s"]))
        # the two sides reach carrier phases of ~3.9e5 rad by different float64
        # roundings (path length * kappa vs exported delay), ~7e-11 apart
        assert transfer(real, [0.0], f)[0] == pytest.approx(oracle, rel=1e-10)
        assert subchannel_taps(real, 0.0, f)[1][0, 0, 0] == pytest.approx(oracle, rel=1e-10)

    def test_matches_vectorized_path(self, small_cfg):
        real = realize_subchannel(small_cfg, "BI", rng_stream(5, "t"))
        for t in (0.0, 1.2):
            slow = transfer_function(weighted_taps(real, t), real.fc_hz, f=0.0)
            fast = transfer(real, [t])[0]
            assert slow == pytest.approx(fast, rel=1e-9)
            assert slow == pytest.approx(subchannel_taps(real, t)[1][0, 0, 0], rel=1e-9)


class TestNonStationarityHooks:
    def test_element_offset_enters_exactly(self, small_cfg):
        cfg = make_config(bs={"num_elements": 4})
        real = realize_subchannel(cfg, "BI", rng_stream(6, "t"))
        rays = real.rays
        from irs_gbsm.geometry import element_offset
        for q in (2, 4):
            l_q = element_offset(real.tx_layout, q)
            direct = np.linalg.norm(rays["d0_tx"] - l_q, axis=1) \
                + np.linalg.norm(rays["d0_rx"], axis=1)
            ray, got, _ = pair_taps(real, 0.0, q, 1)
            assert ray.size and np.allclose(got[0], direct[ray], rtol=1e-12)

    def test_delay_rate_matches_velocity_projection(self, small_cfg):
        real = realize_subchannel(small_cfg, "BI", rng_stream(7, "t"))
        t, h = 0.9, 1e-4
        ray, _, _, rate = element_1_taps(real, t)
        d = reference_single_pair(real, [t + h, t - h])["d"][ray]
        assert ray.size
        assert np.allclose(rate[0], (d[:, 0] - d[:, 1]) / (2 * h), rtol=1e-6)

    def test_tap_phase_increment_is_doppler(self, small_cfg):
        # phase advance of a tap over dt equals -2 pi nu dt with
        # nu = -(path rate)/lambda
        real = realize_subchannel(small_cfg, "BI", rng_stream(8, "t"))
        t, dt = 0.4, 1e-6
        tau = ray_delays(real, [t, t + dt])
        dphi = 2 * np.pi * real.fc_hz * (tau[1] - tau[0])
        # midpoint Doppler cancels the first-order truncation of the increment
        nu = -element_1_taps(real, t + dt / 2)[3][0] / real.wavelength
        assert nu.size and np.allclose(dphi, -2 * np.pi * nu * dt, rtol=1e-6)


class TestPathRates:
    @pytest.mark.parametrize("kind, empty", [("BI", False), ("IU", False), ("BI", True)],
                             ids=["BI", "IU", "zero_rays"])
    def test_equal_the_oracle(self, kind, empty):
        cfg = make_config(irs={"m_x": 2, "m_y": 3}, rician_k_db=5.0)
        times = np.array([0.0, 0.4, 1.3, 2.0])
        for real in _realizations(cfg, kind, 8, empty):
            ray, delay, power, rate = element_1_taps(real, times)
            assert ray.tolist() == np.flatnonzero(visible_rays(real, 1, 1)).tolist()
            assert rate.shape == delay.shape == power.shape == (times.size, ray.size)
            for i, t in enumerate(times):
                assert np.array_equal(rate[i], ray_path_rates(real, 1, 1, t)[ray])

    def test_equal_the_oracle_in_three_dimensional_motion(self):
        # the model's velocities are horizontal; with a vertical component too
        # the order in which the dot product adds its terms shows in the bits
        rng = np.random.default_rng(5)
        real = toy_realization(scatter_a=rng.normal([50.0, 0, 0], 20.0, (40, 3)),
                               scatter_z=rng.normal([250.0, 0, 0], 20.0, (40, 3)),
                               vel_a=(1.0, -2.0, 3.0), vel_z=(-0.5, 4.0, 2.5),
                               v_tx=(3.0, 1.0, 0.5), v_rx=(0.0, 2.0, -1.0))
        times = np.linspace(0.0, 2.0, 5)
        ray, _, _, rate = element_1_taps(real, times)
        assert ray.size == 40
        for i, t in enumerate(times):
            assert np.array_equal(rate[i], ray_path_rates(real, 1, 1, t))

    def test_no_visible_ray(self):
        real = toy_realization(scatter_a=[50, 0, 0], scatter_z=[70, 0, 0],
                               visible=np.zeros((1, 1, 1), dtype=bool), v_rx=[3.0, 0, 0])
        ray, delay, power, rate = element_1_taps(real, [0.0, 1.0])
        assert ray.size == 0
        assert rate.shape == delay.shape == power.shape == (2, 0)


def _realizations(cfg, kind, count, empty=False):
    for k in range(count):
        real = realize_subchannel(cfg, kind, rng_stream(cfg.seed, "trial", k, kind))
        if empty:
            real = dataclasses.replace(real, clusters=empty_cluster_set(
                cfg.clusters.rays_per_cluster, cfg.clusters.sigma_xyz_m))
            assert real.num_rays == 0
        yield real


class TestSideNorms:
    @pytest.mark.parametrize("n_rays, n_elem, n_t", [
        (7, 1, 5), (7, 6, 5), (0, 1, 5), (0, 6, 3), (4, 9, 1)])
    def test_equals_linalg_norm_of_broadcast_difference(self, n_rays, n_elem, n_t):
        rng = np.random.default_rng(n_rays * 100 + n_elem * 10 + n_t)
        d0 = rng.normal(scale=50.0, size=(n_rays, 3))
        v_rel = rng.normal(scale=10.0, size=(n_rays, 3))
        offsets = rng.normal(scale=0.01, size=(n_elem, 3))
        times = np.sort(rng.uniform(0.0, 2.0, size=n_t))
        diff = ((d0[:, None, :] - offsets[None, :, :])[:, :, None, :]
                - v_rel[:, None, None, :] * times[None, None, :, None])
        got = _norms((d0[:, None] - offsets)[:, :, None], v_rel[:, None, None], times)
        assert got.shape == (n_rays, n_elem, n_t)
        assert np.array_equal(got, np.linalg.norm(diff, axis=-1))


def element_pairs(real, elements, sweep):
    """0-based (tx, rx) index arrays: the pair ``elements``, or its swept side's every element."""
    tx, rx = (np.array([e - 1]) for e in elements)
    if sweep == "tx":
        tx = np.arange(real.tx_layout.num_elements)
    elif sweep == "rx":
        rx = np.arange(real.rx_layout.num_elements)
    return np.broadcast_arrays(tx, rx)


def dense_taps(real, times, f, tx, rx):
    """The taps of :func:`_tap_blocks` placed on the dense (n_rays, pairs, T) grid."""
    shape = (real.num_rays, tx.size, times.size)
    out = {"g": np.zeros(shape, dtype=complex), "powers": np.zeros(shape),
           "visible": np.zeros(shape[:2], dtype=bool)}
    for b in _tap_blocks(real, times, f, tx, rx):
        pair = b.pair + b.pairs.start
        out["g"][b.ray, pair] = b.g.T
        out["powers"][b.ray, pair] = b.power.T
        out["visible"][b.ray, pair] = True
    return out


class TestRayFieldOracle:
    """The tap kernel against the dense field oracle (the ids name its cases)."""

    @pytest.mark.parametrize("kind, over, f, elements, sweep, empty", [
        ("IU", {}, 0.0, (1, 1), None, False),
        ("BI", {"rician_k_db": 5.0}, 1e5, (1, 1), None, False),
        ("BI", {"bs": {"num_elements": 4}, "irs": {"m_x": 3, "m_y": 3},
                "rician_k_db": 5.0}, 0.0, (3, 1), "rx", False),
        ("BI", {"bs": {"num_elements": 4}, "irs": {"m_x": 3, "m_y": 3}}, -1e5, (1, 5),
         "tx", False),
        ("IU", {"irs": {"m_x": 2, "m_y": 3}, "user": {"num_elements": 3},
                "rician_k_db": 5.0}, 2.5e5, (1, 2), "tx", False),
        ("IU", {"irs": {"m_x": 2, "m_y": 3}, "user": {"num_elements": 3}}, 0.0, (4, 1),
         "rx", False),
        ("BI", {"irs": {"m_x": 3, "m_y": 3}, "rician_k_db": 5.0}, 1e5, (1, 1), "rx", True),
        ("IU", {"rician_k_db": 5.0}, 1e5, (1, 1), None, True),
    ], ids=["k0", "k5db_f", "bi_rx", "bi_tx_f", "iu_tx_f", "iu_rx", "zero_rays_rx",
            "zero_rays"])
    def test_bit_equal_to_blocked_norms(self, kind, over, f, elements, sweep, empty):
        cfg = make_config(**over)
        times = np.concatenate([[0.4], 0.4 + cfg.lag_grid()[1:]])
        for real in _realizations(cfg, kind, 8, empty):
            want = reference_ray_field(real, times, f, *elements, sweep)
            tx, rx = element_pairs(real, elements, sweep)
            got = dense_taps(real, times, f, tx, rx)
            for key, value in got.items():
                assert value.shape == want[key].shape, key
                assert value.dtype == want[key].dtype, key
                assert np.array_equal(value, want[key]), key
            # each pair's transfer value, from the tap sum of subchannel_taps
            matrix = subchannel_taps(real, times, f)[1]
            assert np.array_equal(matrix[:, rx, tx].T, want["transfer"])
            if elements == (1, 1):
                u = los_phasor(real, times, real.fc_hz, f, sweep)
                assert np.array_equal(u, want["u"])
                h = stacked_phasors(real, times, f, sweep, u)[0]
                assert np.array_equal(h, want["transfer"])

    def test_shared_element_taps_as_many_as_rays(self):
        # both pairs share the evolved-side element, which sees half the
        # clusters: the block's taps number exactly the realization's rays,
        # yet they are the pairs' own rays, not rays 0 .. n_rays - 1
        cfg = make_config(bs={"num_elements": 2}, user={"num_elements": 2}, rician_k_db=3.0)
        times, f = np.array([0.0, 0.4, 1.3]), 2e6
        reals = (realize_subchannel(cfg, "BU", rng_stream(cfg.seed, "shared", k))
                 for k in range(100))
        real = next(r for r in reals if len(r.clusters) >= 2 and len(r.clusters) % 2 == 0)
        n = len(real.clusters)
        grid = np.zeros(real.visibility.shape, dtype=bool)
        grid[0, 0, n // 2:] = True
        grid[1, 0, : n // 2] = True
        real = dataclasses.replace(real, visibility=dataclasses.replace(
            real.visibility, flat=np.flatnonzero(grid)))
        sweep = "rx" if real.evolved_side == "tx" else "tx"
        tx, rx = element_pairs(real, (1, 1), sweep)
        assert sum(b.ray.size for b in _tap_blocks(real, times, f, tx, rx)) == real.num_rays
        want = reference_ray_field(real, times, f, 1, 1, sweep)
        for key, value in dense_taps(real, times, f, tx, rx).items():
            assert np.array_equal(value, want[key]), key
        matrix = subchannel_taps(real, times, f)[1]
        assert np.array_equal(matrix[:, rx, tx].T, want["transfer"])
        u = los_phasor(real, times, real.fc_hz, f, sweep)
        assert np.array_equal(stacked_phasors(real, times, f, sweep, u)[0], want["transfer"])

    @pytest.mark.parametrize("kind, sweep", [("BI", "rx"), ("IU", "tx"), ("BU", None)])
    def test_blocks_leave_every_value_unchanged(self, monkeypatch, kind, sweep):
        # at a tiny block bound every pair is a block of its own, over every time
        cfg = make_config(bs={"num_elements": 2}, irs={"m_x": 3, "m_y": 2},
                          user={"num_elements": 2}, rician_k_db=3.0)
        real = realize_subchannel(cfg, kind, rng_stream(12, "t"))
        times, f = np.array([0.0, 0.4, 1.3]), 2e6
        u = los_phasor(real, times, real.fc_hz, f, sweep)
        args = {"kind": kind, "times": times, "f": f, "sweep": sweep, "los": u}
        tx, rx = smallscale._sweep_pairs(real, sweep)

        def run():
            columns, matrix = subchannel_taps(real, times, f)
            exact = (*columns, matrix, *dense_taps(real, times, f, tx, rx).values(),
                     *stacked_phasors(real, times, f, sweep, u))
            return exact, stats._trial_sub({kind: real}, args)

        whole = run()
        monkeypatch.setattr(smallscale, "_BLOCK_FLOATS", 1)
        blocks = list(_tap_blocks(real, times, f, tx, rx))
        assert len(blocks) == tx.size
        assert all(b.d.shape[0] == times.size for b in blocks)
        blocked = run()
        for a, b in zip(whole[0], blocked[0]):
            assert np.array_equal(a, b)
        for key, value in whole[1].items():
            assert np.array_equal(blocked[1][key], value), key


class TestPairFieldOracle:
    @pytest.mark.parametrize("kind, over, f, elements, empty", [
        ("IU", {}, 0.0, (1, 1), False),
        ("BI", {"rician_k_db": 5.0}, 0.0, (1, 1), False),
        ("IU", {"rician_k_db": 5.0}, 2.5e5, (1, 1), False),
        ("BI", {"bs": {"num_elements": 4}, "irs": {"m_x": 3, "m_y": 3},
                "rician_k_db": 5.0}, -1e5, (3, 7), False),
        ("IU", {"irs": {"m_x": 2, "m_y": 3}, "user": {"num_elements": 3}}, 0.0, (5, 2),
         False),
        ("BI", {"rician_k_db": 5.0}, 1e5, (1, 1), True),
    ], ids=["k0", "k5db", "f_offset", "elements_bi", "elements_iu", "zero_rays"])
    def test_equals_einsum_form(self, kind, over, f, elements, empty):
        # the tap kernel at one element pair against the per-pair oracle; the
        # ids predate the single-pair kernels that this class once tested
        cfg = make_config(**over)
        times = np.concatenate([[0.4], 0.4 + cfg.lag_grid()[1:]])
        tx, rx = elements
        for real in _realizations(cfg, kind, 12, empty):
            taps = dense_taps(real, times, f, np.array([tx - 1]), np.array([rx - 1]))
            got = {"g": taps["g"][:, 0], "powers": taps["powers"][:, 0]}
            want = reference_single_pair(real, times, f, tx, rx)
            for key, value in got.items():
                assert value.shape == want[key].shape, key
                assert np.array_equal(value, want[key]), key
            h = subchannel_taps(real, times, f)[1][:, rx - 1, tx - 1]
            np.testing.assert_allclose(h, want["h"], rtol=1e-12)
            if elements == (1, 1):
                assert np.array_equal(los_phasor(real, times, real.fc_hz, f)[0], want["u"])


class TestFieldKernels:
    def test_sweep_columns_match_single_pairs(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 3})
        real = realize_subchannel(cfg, "BI", rng_stream(10, "t"))
        times = np.array([0.0, 0.7])
        swept = dense_taps(real, times, 0.0, np.zeros(6, dtype=int), np.arange(6))
        h = stacked_phasors(real, times, 0.0, "rx", los_phasor(real, times, FC, 0.0, "rx"))[0]
        matrix = subchannel_taps(real, times)[1]
        for r in range(1, 7):
            single = dense_taps(real, times, 0.0, np.array([0]), np.array([r - 1]))
            assert np.array_equal(swept["g"][:, r - 1], single["g"][:, 0])
            assert np.array_equal(h[r - 1], matrix[:, r - 1, 0])

    def test_power_columns_normalized(self, small_cfg):
        real = realize_subchannel(small_cfg, "BI", rng_stream(11, "t"))
        for b in _tap_blocks(real, np.array([0.0, 1.0]), 0.0, np.array([0]), np.array([0])):
            assert np.allclose(_pair_sums(b.power, b.pair, 1), 1.0, atol=1e-9)

    def test_empty_channel_transfer_is_los_only(self):
        grid = np.zeros((1, 1, 1), dtype=bool)
        real = toy_realization(scatter_a=[50, 0, 0], scatter_z=[70, 0, 0],
                               visible=grid, k_factor=2.0)
        h = subchannel_taps(real, 0.0)[1][0, 0, 0]
        w_los = np.sqrt(2.0 / 3.0)
        assert abs(h) == pytest.approx(w_los, abs=1e-12)


class TestBlockPolicy:
    def test_blocks_are_sized_by_the_widest_pair_taps(self, monkeypatch):
        # a fast-turning 16 x 16 surface: its realization holds about 150 times
        # more rays than any element sees, so blocks sized by the ray count
        # would give every pair a block of its own
        cfg = make_config(irs={"m_x": 16, "m_y": 16},
                          clusters={"birth_rate": 80.0, "correlation_factor_m": 0.05})
        real = realize_subchannel(cfg, "BI", rng_stream(cfg.seed, "policy"))
        tx, rx = smallscale._sweep_pairs(real, "rx")
        n = real.visibility.n_clusters
        # each IRS element's visible clusters, from the sparse entries e n + c
        widest = np.bincount(real.visibility.flat // n).max() * (real.num_rays // n)
        assert real.evolved_side == "rx" and real.num_rays > 100 * widest
        times, bound = np.array([0.0, 0.5]), 30_000
        monkeypatch.setattr(smallscale, "_BLOCK_FLOATS", bound)
        blocks = list(_tap_blocks(real, times, 0.0, tx, rx))
        per_block = bound // (widest * times.size)
        assert len({b.pairs.start for b in blocks}) == -(-rx.size // per_block)
        for b in blocks:
            n_pairs = len(range(rx.size)[b.pairs])
            assert n_pairs * widest * times.size <= bound
            assert b.ray.size <= n_pairs * widest

    @pytest.mark.parametrize("kind, sweep", [("BI", "rx"), ("IU", "tx")])
    def test_a_bound_below_one_pair_gives_one_pair_over_every_time(
            self, monkeypatch, kind, sweep):
        # a bound below one pair's taps over the times: every block holds a
        # single pair and still spans every time, and no reduction moves a bit
        cfg = make_config(bs={"num_elements": 2}, irs={"m_x": 3, "m_y": 2},
                          user={"num_elements": 2}, rician_k_db=3.0)
        real = realize_subchannel(cfg, kind, rng_stream(13, "policy"))
        times, f = np.array([0.0, 0.4, 1.3, 2.0]), 2e6
        tx, rx = smallscale._sweep_pairs(real, sweep)
        u = los_phasor(real, times, real.fc_hz, f, sweep)

        def run():
            columns, matrix = subchannel_taps(real, times, f)
            return (*stacked_phasors(real, times, f, sweep, u),
                    row_0_tap_sums(real, times, f, sweep), *element_1_taps(real, times),
                    *columns, matrix)

        whole = run()
        n = real.visibility.n_clusters
        widest = np.bincount(real.visibility.flat // n).max() * (real.num_rays // n)
        monkeypatch.setattr(smallscale, "_BLOCK_FLOATS", widest * times.size - 1)
        blocks = list(_tap_blocks(real, times, f, tx, rx))
        assert [b.pairs.start for b in blocks] == list(range(tx.size))
        for b in blocks:
            assert len(range(tx.size)[b.pairs]) == 1
            assert b.d.shape == b.power.shape == b.g.shape == (times.size, b.ray.size)
        for a, b in zip(whole, run(), strict=True):
            assert np.array_equal(a, b)
