import dataclasses

import numpy as np
import pytest

from irs_gbsm.assembly import phase_model_for
from irs_gbsm.clusters import ClusterSet, generate_cluster_pairs, realize_subchannel
from irs_gbsm.rng import rng_stream
from irs_gbsm.geometry import SPEED_OF_LIGHT
from irs_gbsm.smallscale import los_distance, pair_field, ray_field, ray_path_lengths
from irs_gbsm import stats
from tests.conftest import make_config

TRIALS = 300


class TestAcfSubchannel:
    def test_zero_lag_is_one(self, small_cfg):
        out = stats.acf_subchannel(small_cfg, "BI", 0.0, trials=TRIALS)
        assert out["analytical"].values[0] == pytest.approx(1.0, abs=1e-9)
        assert out["sim"].values[0] == pytest.approx(1.0, abs=3 / np.sqrt(TRIALS))

    def test_static_channel_fully_correlated(self, static_cfg):
        out = stats.acf_subchannel(static_cfg, "IU", 0.0, trials=50)
        assert np.allclose(out["sim"].magnitude, 1.0, atol=1e-12)
        assert np.allclose(out["analytical"].magnitude, 1.0, atol=1e-12)

    def test_magnitude_bounded(self, small_cfg):
        for kind in ("BI", "IU", "BU"):
            out = stats.acf_subchannel(small_cfg, kind, 0.0, trials=100)
            assert np.all(out["sim"].magnitude <= 1 + 1e-9)
            assert np.all(out["analytical"].magnitude <= 1 + 1e-9)

    def test_sim_approaches_analytical(self, small_cfg):
        # the direct estimator carries a ~1/sqrt(N) noise floor at fully
        # decorrelated lags, so bound the typical and the worst-case gap
        out = stats.acf_subchannel(small_cfg, "BI", 0.0, trials=TRIALS)
        gap = np.abs(out["sim"].magnitude - out["analytical"].magnitude)
        assert gap.mean() < 0.05
        assert gap.max() < 6.0 / np.sqrt(TRIALS)

    def test_lag_grid_must_start_at_zero(self, small_cfg):
        with pytest.raises(ValueError):
            stats.acf_subchannel(small_cfg, "BI", 0.0, lags=np.array([0.01, 0.02]),
                                 trials=4)

    def test_per_realization_analytical_matches_ensemble_kernel(self, small_cfg):
        # the standalone closed form must agree with the fused trial kernel
        real = realize_subchannel(small_cfg, "BI",
                                  rng_stream(small_cfg.seed, "trial", 0, "BI"))
        lags = small_cfg.lag_grid()
        curve = stats.acf_analytical_subchannel(real, 0.0, lags)
        args = stats._setup_sub(small_cfg, {"t": 0.0, "lags": lags, "f": 0.0,
                                            "kinds": [("BI", 1, 1)]})
        kernel = stats._trial_sub({"BI": real}, args)
        expect = kernel["bi_ana"] / np.sqrt(kernel["bi_ana0"][0] * kernel["bi_ana0"])
        assert np.allclose(curve.values, expect, atol=1e-12)
        assert curve.values[0] == pytest.approx(1.0, abs=1e-9)


class TestAcfSingleElement:
    def test_product_decomposition_exact(self, small_cfg):
        out = stats.acf_single_irs_element(small_cfg, 0.0, trials=TRIALS)
        for kind in ("sim", "analytical"):
            lhs = out[kind].magnitude
            rhs = out[f"{kind}_bi"].magnitude * out[f"{kind}_iu"].magnitude
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_quantization_invariance(self, small_cfg):
        out = stats.acf_single_irs_element(small_cfg, 0.0, trials=100, bits=None)
        model_c = phase_model_for(small_cfg, bits=None)
        model_q = phase_model_for(small_cfg, bits=2)
        times = 0.0 + out["sim"].lags
        th_c = model_c.applied_profile(times)[0]
        th_q = model_q.applied_profile(times)[0]
        base = out["sim_bi"].values * out["sim_iu"].values
        cont = np.abs(base * np.exp(-1j * (th_c[0] - th_c)))
        quant = np.abs(base * np.exp(-1j * (th_q[0] - th_q)))
        assert np.allclose(cont, quant, atol=1e-12)

    def test_zero_lag_and_bounds(self, small_cfg):
        out = stats.acf_single_irs_element(small_cfg, 2.0, trials=100)
        assert out["analytical"].values[0] == pytest.approx(1.0, abs=1e-9)
        assert out["sim"].values[0] == pytest.approx(1.0, abs=3 / np.sqrt(100))
        assert np.all(out["sim"].magnitude <= 1 + 1e-9)


class TestAcfFullIrs:
    def test_reduces_to_single_element(self, small_cfg):
        full = stats.acf_full_irs(small_cfg, 0.0, bits_variants=(None,), trials=60)
        single = stats.acf_single_irs_element(small_cfg, 0.0, bits=None, trials=60)
        assert np.allclose(full["continuous"]["sim"].values, single["sim"].values,
                           atol=1e-12)
        assert np.allclose(full["continuous"]["analytical"].values,
                           single["analytical"].values, atol=1e-12)

    def test_zero_lag_normalization(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 2}, rician_k_db=5.0)
        out = stats.acf_full_irs(cfg, 0.0, bits_variants=(None, 2), trials=80)
        for label in ("continuous", "2bit"):
            assert out[label]["sim"].values[0] == pytest.approx(1.0, abs=1e-9)
            assert out[label]["analytical"].values[0] == pytest.approx(1.0, abs=1e-9)
            assert np.all(out[label]["sim"].magnitude <= 1 + 1e-9)

    def test_trial_products_match_combined_estimator_scale(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 2}, rician_k_db=5.0)
        prod, power = stats.cascade_trial_products(cfg, 0.0, trials=64)
        assert prod.shape == power.shape == (64, cfg.lag_grid().size)
        r = np.abs(prod.mean(0)) / np.sqrt(power.mean(0)[0] * power.mean(0))
        assert r[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(r <= 1 + 1e-9)

    def test_footprint_prediction(self, monkeypatch):
        # 2 x 8 tensors of E^2 T complex per process: 5.25 GiB at E=1024, T=21
        monkeypatch.setattr(stats, "_physical_ram_bytes", lambda: 8 * 2**30)
        stats._check_tensor_footprint(1024, 21, True, trials=256, threads=2)
        with pytest.raises(MemoryError, match="cascade_trial_products"):
            stats._check_tensor_footprint(1024, 21, True, trials=512, threads=2)
        # without analytical tensors: 3 processes x 2.625 GiB still fit
        stats._check_tensor_footprint(1024, 21, False, trials=512, threads=2)

    def test_too_large_surface_fails_before_any_trial(self, monkeypatch):
        cfg = make_config(irs={"m_x": 2, "m_y": 2})
        monkeypatch.setattr(stats, "_physical_ram_bytes", lambda: 4096)

        def no_trials(*args, **kwargs):
            raise AssertionError("the ensemble must not start")

        monkeypatch.setattr(stats, "run_ensemble", no_trials)
        with pytest.raises(MemoryError, match="fewer IRS elements"):
            stats.acf_full_irs(cfg, 0.0, trials=10)


def _reference_sub_arrays(real, t, lags, sweep):
    """Outer-product einsum form of the analytical tensors (the oracle)."""
    bundle = ray_field(real, t + lags, 0.0, 1, 1, sweep)
    w_l = real.k_factor / (real.k_factor + 1.0)
    w_n = 1.0 / (real.k_factor + 1.0)
    gc = np.conj(bundle.g)
    uc = np.conj(bundle.u)
    ana = (w_l * bundle.u[:, 0][:, None, None] * uc[None, :, :]
           + w_n * np.einsum("nr,nst->rst", bundle.g[:, :, 0], gc))
    gram = (w_l * bundle.u[:, None, :] * uc[None, :, :]
            + w_n * np.einsum("nrt,nst->rst", bundle.g, gc))
    return bundle.transfer(), ana, gram


class TestCorrelationTensors:
    def _realization(self, side):
        cfg = make_config(irs={"m_x": side, "m_y": side}, rician_k_db=5.0,
                          acf={"num_lags": 11})
        return cfg, realize_subchannel(cfg, "BI", rng_stream(cfg.seed, "trial", 3, "BI"))

    @pytest.mark.parametrize("case", ["ordinary", "zero_rays", "single_element"])
    def test_sub_arrays_match_einsum_oracle(self, case):
        cfg, real = self._realization(1 if case == "single_element" else 3)
        if case == "zero_rays":
            real = dataclasses.replace(real, clusters=ClusterSet.empty(
                cfg.clusters.rays_per_cluster, cfg.clusters.sigma_xyz_m))
        assert (real.num_rays == 0) == (case == "zero_rays")
        lags = cfg.lag_grid()
        h, ana, gram = stats._sub_arrays(real, 0.0, lags, 0.0, 1, 1, sweep="rx")
        h_ref, ana_ref, gram_ref = _reference_sub_arrays(real, 0.0, lags, "rx")
        assert ana.shape == gram.shape == (h.shape[0], h.shape[0], lags.size)
        np.testing.assert_array_equal(h, h_ref)
        np.testing.assert_allclose(ana, ana_ref, rtol=1e-12)
        np.testing.assert_allclose(gram, gram_ref, rtol=1e-12)
        np.testing.assert_allclose(gram, np.conj(gram.transpose(1, 0, 2)), rtol=1e-12)

    def test_sim_tensors_are_outer_products(self):
        cfg, real = self._realization(3)
        h = ray_field(real, cfg.lag_grid(), 0.0, 1, 1, "rx").transfer()
        ccf, gram = stats._correlations(h[None])
        np.testing.assert_allclose(ccf, h[:, 0][:, None, None] * np.conj(h)[None],
                                   rtol=1e-12)
        np.testing.assert_allclose(gram, h[:, None, :] * np.conj(h)[None], rtol=1e-12)


def _los_oracle(real, times, f, tx_el, rx_el, sweep):
    """exp(j kappa |D|) per element from the LoS distance of each element pair."""
    kappa = 2.0 * np.pi * (real.fc_hz - f) / SPEED_OF_LIGHT
    layout = real.tx_layout if sweep == "tx" else real.rx_layout
    elements = range(1, layout.num_elements + 1) if sweep else [None]
    return np.exp(1j * kappa * np.array([
        los_distance(real, e if sweep == "tx" else tx_el, e if sweep == "rx" else rx_el, times)
        for e in elements]))


class TestChunkedEnsemble:
    CFG = {"irs": {"m_x": 2, "m_y": 3}, "bs": {"num_elements": 2}, "rician_k_db": 5.0,
           "acf": {"num_lags": 7}}

    def test_trial_rows_share_their_prefix(self):
        cfg = make_config(**self.CFG)
        n = stats._CHUNK
        counts = (7, 8, 9, n - 1, n, n + 1, 300)
        rows = {c: stats.cascade_trial_products(cfg, 0.0, trials=c) for c in counts}
        prod_all, pow_all = rows[300]
        for c, (prod, power) in rows.items():
            assert prod.shape[0] == power.shape[0] == c
            np.testing.assert_array_equal(prod, prod_all[:c])
            np.testing.assert_array_equal(power, pow_all[:c])

    def test_hoisted_phasors_equal_per_trial_ones(self):
        cfg = make_config(**self.CFG)
        t, f, lags = 0.5, 2e6, cfg.lag_grid()
        times = stats._times(t, lags)
        theta = phase_model_for(cfg, bits=2).applied_profile(times)
        cascade = stats._setup_cascade(cfg, {"t": t, "lags": lags, "f": f, "q": 2, "p": 1,
                                             "theta": {"2bit": theta}})
        sub = stats._setup_sub(cfg, {"t": t, "lags": lags, "f": f,
                                     "kinds": [("BI", 2, 3), ("IU", 3, 1)]})
        ccf = stats._setup_ccf(cfg, {"subchannel": "IU", "axis": "tx", "t": t,
                                     "dt": 0.01, "f": f})
        for k in range(3):
            bi, iu = (realize_subchannel(cfg, kind, rng_stream(9, "trial", k, kind))
                      for kind in ("BI", "IU"))
            f_bi = ray_field(bi, times, f, 2, 1, sweep="rx")
            f_iu = ray_field(iu, times, f, 1, 1, sweep="tx")
            np.testing.assert_array_equal(cascade["los_bi"], f_bi.u)
            np.testing.assert_array_equal(cascade["los_iu"], f_iu.u)
            np.testing.assert_array_equal(f_bi.u, _los_oracle(bi, times, f, 2, 1, "rx"))
            np.testing.assert_array_equal(f_iu.u, _los_oracle(iu, times, f, 1, 1, "tx"))
            # the cascade products with the run's phasors equal the per-trial form
            out = stats._trial_cascade({"BI": bi, "IU": iu}, {**cascade, "analytical": False})
            h_part = np.sum(f_bi.transfer() * f_iu.transfer() * np.exp(-1j * theta), axis=0)
            np.testing.assert_array_equal(out["trial_prod_2bit"], h_part[0] * np.conj(h_part))
            np.testing.assert_array_equal(out["trial_pow_2bit"], np.abs(h_part) ** 2)
            for (kind, tx, rx), u in zip(sub["kinds"], sub["los"]):
                real = bi if kind == "BI" else iu
                np.testing.assert_array_equal(u, pair_field(real, times, f, tx, rx)["u"])
                np.testing.assert_array_equal(u, _los_oracle(real, times, f, tx, rx, None)[0])
            u_ccf = ray_field(iu, ccf["times"], f, 1, 1, sweep="tx").u
            np.testing.assert_array_equal(ccf["los"], u_ccf)
        assert not cascade["phasors"]["2bit"].flags.writeable
        assert not cascade["los_bi"].flags.writeable


class TestReduce:
    def test_sums_in_order_without_writing_inputs(self):
        parts = [{"s": np.array([1.0, 2.0]), "trial_x": np.array([[1.0]])},
                 {"s": np.array([3.0, 4.0]), "trial_x": np.array([[2.0]])}]
        out = stats._reduce(parts, np.concatenate)
        assert out["s"].tolist() == [4.0, 6.0]
        assert out["trial_x"].tolist() == [[1.0], [2.0]]
        assert parts[0]["s"].tolist() == [1.0, 2.0]


class TestCcfSpatial:
    def test_zero_separation_unity_and_bounds(self):
        cfg = make_config(bs={"num_elements": 6, "speed_mps": 10.0},
                          ccf={"subchannel": "BU", "axis": "tx"})
        out = stats.ccf_spatial(cfg, trials=150)
        assert out["sim"].values[0] == pytest.approx(1.0, abs=1e-9)
        assert out["analytical"].values[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(out["sim"].magnitude <= 1 + 1e-9)
        assert np.all(out["analytical"].magnitude <= 1 + 1e-9)

    def test_separation_grid_in_meters(self):
        cfg = make_config(bs={"num_elements": 4}, ccf={"subchannel": "BU", "axis": "tx"})
        out = stats.ccf_spatial(cfg, trials=20)
        spacing = cfg.bs.layout("BS").spacings[0]
        assert np.allclose(out["sim"].lags, spacing * np.arange(4))

    def test_sim_tracks_analytical(self):
        cfg = make_config(bs={"num_elements": 6}, ccf={"subchannel": "BU", "axis": "tx"})
        out = stats.ccf_spatial(cfg, trials=400)
        gap = np.max(np.abs(out["sim"].magnitude - out["analytical"].magnitude))
        assert gap < 0.2


class TestRmsDelaySpread:
    def test_single_tap_zero(self):
        assert stats.rms_delay_spread([1e-6], [1.0]) == 0.0

    def test_two_tap_half(self):
        assert stats.rms_delay_spread([0.0, 1.0], [0.5, 0.5]) == pytest.approx(
            0.5, abs=1e-15)

    def test_matches_two_pass_variance_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = rng.integers(2, 40)
            tau = rng.uniform(0, 1e-6, n)
            p = rng.uniform(0.1, 1.0, n)
            p = p / p.sum()
            mean = np.sum(p * tau)
            oracle = np.sqrt(np.sum(p * (tau - mean) ** 2))
            assert stats.rms_delay_spread(tau, p) == pytest.approx(oracle, abs=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            stats.rms_delay_spread([], [])
        with pytest.raises(ValueError):
            stats.rms_delay_spread([1e-6, 2e-6], [0.7, 0.7])


class TestDsCdf:
    def test_degenerate_single_cluster(self):
        cfg = make_config(clusters={"sigma_xyz_m": [0.0, 0.0, 0.0]})
        clusters = generate_cluster_pairs(cfg.clusters, np.zeros(3),
                                          np.array([100.0, 0, 0]),
                                          rng_stream(1, "g"), count=1)
        d = (np.linalg.norm(clusters.scatter_a[0] - np.zeros(3), axis=1)
             + np.linalg.norm(clusters.scatter_z[0] - np.array([100.0, 0, 0]), axis=1))
        tau = d / 299792458.0 + clusters.virtual_delay[0]
        p = np.full(tau.size, 1.0 / tau.size)
        assert stats.rms_delay_spread(tau, p) < 1e-12

    def test_cdf_monotone_and_bounded(self, small_cfg):
        out = stats.ds_cdf(small_cfg, sigma_scales=[1.0], trials=60)
        xs, levels = stats.empirical_cdf(out[1.0])
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(levels) > 0)
        assert 0 < levels[0] <= 1 and levels[-1] == 1.0

    def test_dispersion_dominance(self):
        cfg = make_config(clusters={
            "birth_rate": 8.0, "death_rate": 4.0, "rays_per_cluster": 20,
            "sigma_xyz_m": [5.0, 5.0, 2.0], "virtual_delay_mean_ns": 20.0,
            "center_distance_mean_m": 10.0, "power_decay_ns": 2000.0})
        out = stats.ds_cdf(cfg, sigma_scales=[1.0, 3.0], trials=250)
        assert np.median(out[3.0]) / np.median(out[1.0]) > 1.0


class TestDoppler:
    def test_all_static_exact_zero(self, static_cfg):
        bi = realize_subchannel(static_cfg, "BI", rng_stream(1, "t", "BI"))
        iu = realize_subchannel(static_cfg, "IU", rng_stream(1, "t", "IU"))
        nu, w = stats.doppler_frequency(bi, iu, 1.0)
        assert np.all(nu == 0.0)
        assert stats.local_doppler_spread(nu, w) == 0.0

    def test_radial_motion_gives_v_over_lambda(self):
        # single ray with the user heading straight at both scatterers
        from tests.test_smallscale import toy_realization
        v = 7.0
        real = toy_realization(scatter_a=[100.0, 0, 0], scatter_z=[100.0, 0, 0],
                               rx_ref=[300.0, 0, 0], v_tx=[v, 0.0, 0.0])
        from irs_gbsm.smallscale import ray_path_rates
        rate = ray_path_rates(real, 1, 1, 0.0)[0]
        nu = -rate / real.wavelength
        assert nu == pytest.approx(v / real.wavelength, rel=1e-9)

    def test_matches_finite_difference(self, small_cfg):
        bi = realize_subchannel(small_cfg, "BI", rng_stream(2, "t", "BI"))
        t, h = 1.3, 1e-4
        from irs_gbsm.smallscale import ray_path_rates
        rate = ray_path_rates(bi, 1, 1, t)
        fd = (ray_path_lengths(bi, 1, 1, t + h)[:, 0]
              - ray_path_lengths(bi, 1, 1, t - h)[:, 0]) / (2 * h)
        assert np.allclose(rate, fd, rtol=1e-6)

    def test_single_ray_spread_zero(self):
        assert stats.local_doppler_spread(np.array([123.4])) == 0.0

    def test_weights_power_product(self, small_cfg):
        bi = realize_subchannel(small_cfg, "BI", rng_stream(3, "t", "BI"))
        iu = realize_subchannel(small_cfg, "IU", rng_stream(3, "t", "IU"))
        nu, w = stats.doppler_frequency(bi, iu, 0.5)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w >= 0)

    def test_speed_monotonicity(self):
        means = []
        for vu in (8.0, 10.0, 15.0):
            cfg = make_config(
                bs={"speed_mps": 0.0},
                user={"speed_mps": vu, "velocity_azimuth_deg": 90.0},
                clusters={"speed_a_mps": 0.0, "speed_z_mps": 5.0},
                doppler={"start_s": 0.0, "stop_s": 2.0, "num": 3})
            _, spread = stats.doppler_spread_series(cfg, trials=60)
            means.append(spread.mean())
        assert means[0] < means[1] < means[2]


class TestEstimatorConsistency:
    def test_convergence_rate(self):
        # mean absolute sim-analytical gap of the sub-channel estimator
        # shrinks like 1/sqrt(trials); assert a conservative fraction of the
        # ideal factor-10 reduction over a 100x trial increase
        cfg = make_config(acf={"num_lags": 16})
        gaps = []
        for n in (100, 1000, 10000):
            out = stats.acf_subchannel(cfg, "BI", 0.0, trials=n)
            gaps.append(np.mean(np.abs(out["sim"].magnitude
                                       - out["analytical"].magnitude)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[0] / gaps[2] > 3.0


class TestBootstrap:
    def test_deterministic_given_stream(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 2}, rician_k_db=5.0,
                          acf={"num_lags": 8})
        prod, power = stats.cascade_trial_products(cfg, 0.0, trials=64)
        a = stats.bootstrap_mean_abs(prod, power, np.random.default_rng(1), n_boot=50)
        b = stats.bootstrap_mean_abs(prod, power, np.random.default_rng(1), n_boot=50)
        assert np.array_equal(a, b)
        assert a.shape == (50,)
        assert np.all((a >= 0) & (a <= 1 + 1e-9))
