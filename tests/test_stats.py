import dataclasses
import os
import tracemalloc

import numpy as np
import pytest

from irs_gbsm.assembly import phase_model_for
from irs_gbsm.clusters import (
    ClusterSet,
    expected_cluster_count,
    realize_subchannel,
)
from irs_gbsm.rng import rng_stream
from irs_gbsm.geometry import SPEED_OF_LIGHT, element_offset
from irs_gbsm.smallscale import (
    _block_steps,
    element_1_taps,
    los_phasor,
    stacked_phasors,
    tap_block_bytes,
)
from irs_gbsm import smallscale, stats
from tests.cir_oracle import los_distance
from tests.conftest import bootstrap_mean_abs, generate_cluster_pairs, make_config
from tests.field_oracle import reference_ray_field, reference_single_pair

TRIALS = 300


def with_trials(cfg, n):
    return dataclasses.replace(cfg, trials=n)


class TestAcfSubchannel:
    def test_zero_lag_is_one(self, small_cfg):
        out = stats.acf_subchannel(with_trials(small_cfg, TRIALS), "BI", 0.0)
        assert out["analytical"].values[0] == pytest.approx(1.0, abs=1e-9)
        assert out["sim"].values[0] == pytest.approx(1.0, abs=3 / np.sqrt(TRIALS))

    def test_static_channel_fully_correlated(self, static_cfg):
        out = stats.acf_subchannel(with_trials(static_cfg, 50), "IU", 0.0)
        assert np.allclose(out["sim"].magnitude, 1.0, atol=1e-12)
        assert np.allclose(out["analytical"].magnitude, 1.0, atol=1e-12)

    def test_magnitude_bounded(self, small_cfg):
        for kind in ("BI", "IU", "BU"):
            out = stats.acf_subchannel(with_trials(small_cfg, 100), kind, 0.0)
            assert np.all(out["sim"].magnitude <= 1 + 1e-9)
            assert np.all(out["analytical"].magnitude <= 1 + 1e-9)

    def test_sim_approaches_analytical(self, small_cfg):
        # the direct estimator carries a ~1/sqrt(N) noise floor at fully
        # decorrelated lags, so bound the typical and the worst-case gap
        out = stats.acf_subchannel(with_trials(small_cfg, TRIALS), "BI", 0.0)
        gap = np.abs(out["sim"].magnitude - out["analytical"].magnitude)
        assert gap.mean() < 0.05
        assert gap.max() < 6.0 / np.sqrt(TRIALS)

    def test_per_realization_analytical_matches_ensemble_kernel(self, small_cfg):
        # the closed form of one element pair, written out from the field
        # factors, against the row-0 contraction of the trial kernel
        real = realize_subchannel(small_cfg, "BI",
                                  rng_stream(small_cfg.seed, "trial", 0, "BI"))
        lags = small_cfg.lag_grid()
        field = reference_single_pair(real, lags)
        g, u, powers = field["g"], field["u"], field["powers"]
        w_l2, w_n2 = real.k_factor / (real.k_factor + 1.0), 1.0 / (real.k_factor + 1.0)
        vals = w_l2 * u[0] * np.conj(u) + w_n2 * (g[:, 0][:, None] * np.conj(g)).sum(axis=0)
        anchors = w_l2 + w_n2 * powers.sum(axis=0)
        closed = vals / np.sqrt(anchors[0] * anchors)
        args = stats._setup_sub(small_cfg, {"times": lags, "kind": "BI", "sweep": None})
        kernel = stats._trial_sub({"BI": real}, args)
        expect = kernel["ana"][0] / np.sqrt(kernel["ana0"][0, 0] * kernel["ana0"][0])
        assert np.allclose(closed, expect, atol=1e-12)
        assert expect[0] == pytest.approx(1.0, abs=1e-9)


def product_form(cfg, t, bits):
    """1x1 cascade ACF as R_BI R_IU exp(-j(theta(t) - theta(t + dt))) (the oracle).

    Built from two sub-channel ensembles on the trial streams of the cascade.
    Returns ({"sim": values, "analytical": values}, BI curves, IU curves).
    """
    bi = stats.acf_subchannel(cfg, "BI", t)
    iu = stats.acf_subchannel(cfg, "IU", t)
    theta = dataclasses.replace(phase_model_for(cfg), bits=bits).applied_profile(
        t + bi["sim"].lags)[0]
    factor = np.exp(-1j * (theta[0] - theta))
    values = {kind: bi[kind].values * iu[kind].values * factor
              for kind in ("sim", "analytical")}
    return values, bi, iu


class TestAcfSingleElement:
    def test_product_decomposition_exact(self, small_cfg):
        cfg = with_trials(small_cfg, TRIALS)
        full = stats.acf_full_irs(cfg, 0.0)["continuous"]
        oracle, bi, iu = product_form(cfg, 0.0, cfg.irs.phase_bits)
        for kind in ("sim", "analytical"):
            np.testing.assert_allclose(full[kind].values, oracle[kind], rtol=0, atol=1e-12)
            rhs = bi[kind].magnitude * iu[kind].magnitude
            assert np.allclose(full[kind].magnitude, rhs, atol=1e-12)

    def test_quantization_invariance(self, small_cfg):
        out = stats.acf_full_irs(with_trials(small_cfg, 100), 0.0, bits_variants=(None, 2))
        for kind in ("sim", "analytical"):
            assert np.allclose(out["continuous"][kind].magnitude, out["2bit"][kind].magnitude,
                               atol=1e-12)
        assert not np.allclose(out["continuous"]["sim"].values, out["2bit"]["sim"].values,
                               atol=1e-6)

    def test_zero_lag_and_bounds(self, small_cfg):
        out = stats.acf_full_irs(with_trials(small_cfg, 100), 2.0)["continuous"]
        assert out["analytical"].values[0] == pytest.approx(1.0, abs=1e-9)
        assert out["sim"].values[0] == pytest.approx(1.0, abs=3 / np.sqrt(100))
        assert np.all(out["sim"].magnitude <= 1 + 1e-9)


class TestAcfFullIrs:
    def test_reduces_to_single_element(self, small_cfg):
        cfg = with_trials(small_cfg, 60)
        full = stats.acf_full_irs(cfg, 0.0, bits_variants=(None,))
        oracle, _, _ = product_form(cfg, 0.0, None)
        for kind in ("sim", "analytical"):
            assert np.allclose(full["continuous"][kind].values, oracle[kind], atol=1e-12)

    def test_zero_lag_normalization(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 2}, rician_k_db=5.0, trials=80)
        out = stats.acf_full_irs(cfg, 0.0, bits_variants=(None, 2))
        for label in ("continuous", "2bit"):
            assert out[label]["sim"].values[0] == pytest.approx(1.0, abs=1e-9)
            assert out[label]["analytical"].values[0] == pytest.approx(1.0, abs=1e-9)
            assert np.all(out[label]["sim"].magnitude <= 1 + 1e-9)

    def test_trial_products_match_combined_estimator_scale(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 2}, rician_k_db=5.0, trials=64)
        prod, power = stats.cascade_trial_products(cfg, 0.0)
        assert prod.shape == power.shape == (64, cfg.lag_grid().size)
        r = np.abs(prod.mean(0)) / np.sqrt(power.mean(0)[0] * power.mean(0))
        assert r[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(r <= 1 + 1e-9)

    def test_builds_no_trial_rows(self, monkeypatch):
        cfg = make_config(irs={"m_x": 2, "m_y": 2}, acf={"num_lags": 5}, trials=20)
        seen = []
        run = stats.run_ensemble

        def spy(*args, **kwargs):
            acc, n = run(*args, **kwargs)
            seen.append(sorted(key for key in acc if key.startswith("trial_")))
            return acc, n

        monkeypatch.setattr(stats, "run_ensemble", spy)
        out = stats.acf_full_irs(cfg, 0.0, bits_variants=(None, 2))
        assert seen == [[]]
        assert sorted(out["2bit"]) == ["analytical", "sim"]

    def test_footprint_prediction(self, monkeypatch):
        # 2 x 8 tensors of E^2 T complex per process: 5.25 GiB at E=1024, T=21
        monkeypatch.setattr(stats, "_available_ram_bytes", lambda: 8 * 2**30)
        stats._check_tensor_footprint(1024, 21, True, trials=256, threads=2)
        with pytest.raises(MemoryError, match="cascade_trial_products"):
            stats._check_tensor_footprint(1024, 21, True, trials=512, threads=2)
        # without analytical tensors: 3 processes x 2.625 GiB still fit
        stats._check_tensor_footprint(1024, 21, False, trials=512, threads=2)

    def test_too_large_surface_fails_before_any_trial(self, monkeypatch):
        cfg = make_config(irs={"m_x": 2, "m_y": 2}, trials=10)
        monkeypatch.setattr(stats, "_available_ram_bytes", lambda: 4096)

        def no_trials(*args, **kwargs):
            raise AssertionError("the ensemble must not start")

        monkeypatch.setattr(stats, "run_ensemble", no_trials)
        with pytest.raises(MemoryError, match="fewer IRS elements"):
            stats.acf_full_irs(cfg, 0.0)


def _reference_sub_arrays(real, t, lags, sweep):
    """Outer-product einsum form of the analytical tensors (the oracle)."""
    field = reference_ray_field(real, t + lags, 0.0, 1, 1, sweep)
    g, u = field["g"], field["u"]
    w_l = real.k_factor / (real.k_factor + 1.0)
    w_n = 1.0 / (real.k_factor + 1.0)
    gc = np.conj(g)
    uc = np.conj(u)
    ana = (w_l * u[:, 0][:, None, None] * uc[None, :, :]
           + w_n * np.einsum("nr,nst->rst", g[:, :, 0], gc))
    gram = (w_l * u[:, None, :] * uc[None, :, :]
            + w_n * np.einsum("nrt,nst->rst", g, gc))
    return field["transfer"], ana, gram


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
        u = los_phasor(real, lags, real.fc_hz, 0.0, "rx")
        h, x = stacked_phasors(real, lags, 0.0, "rx", u)
        ana, gram = stats._correlations(x)
        h_ref, ana_ref, gram_ref = _reference_sub_arrays(real, 0.0, lags, "rx")
        assert ana.shape == gram.shape == (h.shape[0], h.shape[0], lags.size)
        np.testing.assert_array_equal(h, h_ref)
        np.testing.assert_allclose(ana, ana_ref, rtol=1e-12)
        np.testing.assert_allclose(gram, gram_ref, rtol=1e-12)
        np.testing.assert_allclose(gram, np.conj(gram.transpose(1, 0, 2)), rtol=1e-12)

    @pytest.mark.parametrize("sweep", [None, "rx"])
    @pytest.mark.parametrize("case", ["ordinary", "zero_rays"])
    def test_trial_sub_is_row_0_of_the_oracle(self, case, sweep):
        cfg, real = self._realization(3)
        if case == "zero_rays":
            real = dataclasses.replace(real, clusters=ClusterSet.empty(
                cfg.clusters.rays_per_cluster, cfg.clusters.sigma_xyz_m))
        lags = cfg.lag_grid()
        args = stats._setup_sub(cfg, {"times": lags, "kind": "BI", "sweep": sweep})
        out = stats._trial_sub({"BI": real}, args)
        h_ref, ana_ref, gram_ref = _reference_sub_arrays(real, 0.0, lags, sweep)
        n_elem = 9 if sweep else 1
        assert {key: v.shape for key, v in out.items()} == dict.fromkeys(
            ("prod", "pow", "ana", "ana0"), (n_elem, lags.size))
        np.testing.assert_array_equal(out["prod"], h_ref[0, 0] * np.conj(h_ref))
        np.testing.assert_array_equal(out["pow"], np.abs(h_ref) ** 2)
        np.testing.assert_allclose(out["ana"], ana_ref[0], rtol=1e-12)
        assert out["ana0"].dtype == float
        np.testing.assert_allclose(out["ana0"], np.einsum("eet->et", gram_ref).real,
                                   rtol=1e-12)

    def test_sim_tensors_are_outer_products(self):
        cfg, real = self._realization(3)
        lags = cfg.lag_grid()
        u = los_phasor(real, lags, real.fc_hz, 0.0, "rx")
        h = stacked_phasors(real, lags, 0.0, "rx", u)[0]
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


@pytest.fixture
def in_process_pool(monkeypatch):
    """Pool sizes asked for; the blocks run in this process, so no process starts.

    The executor forks every max_workers process up front; this stand-in
    records the size and maps the blocks in order.
    """
    import concurrent.futures

    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return sizes


class TestChunkedEnsemble:
    CFG = {"irs": {"m_x": 2, "m_y": 3}, "bs": {"num_elements": 2}, "rician_k_db": 5.0,
           "acf": {"num_lags": 7}}

    def test_trial_rows_share_their_prefix(self):
        cfg = make_config(**self.CFG)
        n = stats._CHUNK
        counts = (7, 8, 9, n - 1, n, n + 1, 300)
        rows = {c: stats.cascade_trial_products(with_trials(cfg, c), 0.0) for c in counts}
        prod_all, pow_all = rows[300]
        for c, (prod, power) in rows.items():
            assert prod.shape[0] == power.shape[0] == c
            np.testing.assert_array_equal(prod, prod_all[:c])
            np.testing.assert_array_equal(power, pow_all[:c])

    def test_hoisted_phasors_equal_per_trial_ones(self):
        cfg = make_config(**{**self.CFG, "irs": {"m_x": 2, "m_y": 3, "phase_bits": 2}},
                          eval_offset_hz=2e6)
        t, f, lags = 0.5, 2e6, cfg.lag_grid()
        times = t + lags
        theta = phase_model_for(cfg).applied_profile(times)
        products = stats._setup_products(cfg, {"times": times})
        sub = [stats._setup_sub(cfg, {"times": times, "kind": kind, "sweep": None})
               for kind in ("BI", "IU")]
        ccf = stats._setup_sub(cfg, {"times": t + np.array([0.0, 0.01]), "kind": "IU",
                                     "sweep": "tx"})
        for k in range(3):
            bi, iu = (realize_subchannel(cfg, kind, rng_stream(9, "trial", k, kind))
                      for kind in ("BI", "IU"))
            u_bi = los_phasor(bi, times, bi.fc_hz, f, "rx")
            u_iu = los_phasor(iu, times, iu.fc_hz, f, "tx")
            np.testing.assert_array_equal(products["los_bi"], u_bi)
            np.testing.assert_array_equal(products["los_iu"], u_iu)
            np.testing.assert_array_equal(u_bi, _los_oracle(bi, times, f, 1, 1, "rx"))
            np.testing.assert_array_equal(u_iu, _los_oracle(iu, times, f, 1, 1, "tx"))
            # the cascade products with the run's phasor equal the per-trial form
            out = stats._trial_products({"BI": bi, "IU": iu}, products)
            h_part = np.sum(stacked_phasors(bi, times, f, "rx", u_bi)[0]
                            * stacked_phasors(iu, times, f, "tx", u_iu)[0] * np.exp(-1j * theta),
                            axis=0)
            np.testing.assert_array_equal(out["trial_prod"], h_part[0] * np.conj(h_part))
            np.testing.assert_array_equal(out["trial_pow"], np.abs(h_part) ** 2)
            for args in sub:
                real = bi if args["kind"] == "BI" else iu
                u = los_phasor(real, times, real.fc_hz, f)
                np.testing.assert_array_equal(args["los"], u)
                np.testing.assert_array_equal(args["los"],
                                              _los_oracle(real, times, f, 1, 1, None))
            u_ccf = los_phasor(iu, ccf["times"], iu.fc_hz, f, "tx")
            np.testing.assert_array_equal(ccf["los"], u_ccf)
        assert not products["phasor"].flags.writeable
        assert not products["los_bi"].flags.writeable
        assert not ccf["los"].flags.writeable

    @pytest.mark.parametrize("threads, trials, workers", [(32, 300, 2), (2, 600, 2)])
    def test_pool_has_no_more_workers_than_blocks(self, in_process_pool, threads, trials,
                                                  workers):
        cfg = make_config(acf={"num_lags": 5}, trials=trials)
        pooled = stats.acf_subchannel(cfg, "BI", 0.0, threads=threads)
        assert in_process_pool == [workers]
        serial = stats.acf_subchannel(cfg, "BI", 0.0, threads=1)
        assert in_process_pool == [workers]
        for kind in ("sim", "analytical"):
            np.testing.assert_array_equal(pooled[kind].values, serial[kind].values)

    def test_pooled_trial_rows_follow_block_order(self, in_process_pool):
        # 300 trials are two blocks; their rows are joined in block order
        cfg = make_config(**self.CFG, trials=300)
        pooled = stats.cascade_trial_products(cfg, 0.0, threads=2)
        assert in_process_pool == [2]
        serial = stats.cascade_trial_products(cfg, 0.0, threads=1)
        for rows, want in zip(pooled, serial):
            assert rows.shape[0] == 300
            np.testing.assert_array_equal(rows, want)


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
                          ccf={"subchannel": "BU", "axis": "tx"}, trials=150)
        out = stats.ccf_spatial(cfg)
        assert out["sim"].values[0] == pytest.approx(1.0, abs=1e-9)
        assert out["analytical"].values[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(out["sim"].magnitude <= 1 + 1e-9)
        assert np.all(out["analytical"].magnitude <= 1 + 1e-9)

    def test_separation_grid_in_meters(self):
        # on a linear array at default angles the distance from element 1 is
        # bit-equal to the spacing grid
        cfg = make_config(bs={"num_elements": 32}, ccf={"subchannel": "BU", "axis": "tx"},
                          trials=20)
        out = stats.ccf_spatial(cfg)
        spacing = cfg.bs.layout("BS").spacings[0]
        np.testing.assert_array_equal(out["sim"].lags, spacing * np.arange(32))

    def test_separation_on_a_planar_irs_is_the_distance_from_element_1(self):
        cfg = make_config(irs={"m_x": 3, "m_y": 3}, ccf={"subchannel": "BI", "axis": "rx"},
                          trials=2)
        out = stats.ccf_spatial(cfg)
        layout = cfg.irs.layout()
        want = [np.linalg.norm(element_offset(layout, e) - element_offset(layout, 1))
                for e in range(1, 10)]
        np.testing.assert_allclose(out["sim"].lags, want, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(out["analytical"].lags, out["sim"].lags)
        # element 4 is (x, y) = (2, 1): one x spacing from element 1, not three
        assert out["sim"].lags[3] == pytest.approx(cfg.irs.spacing_x_m, rel=1e-12)

    def test_large_irs_allocates_no_element_pair_tensor(self):
        # one ray per cluster keeps the N x E x T field arrays small, so the
        # bound separates them from an E x E x T tensor (33.5 MB at E = 1024, T = 2)
        cfg = make_config(irs={"m_x": 32, "m_y": 32}, clusters={"rays_per_cluster": 1},
                          ccf={"subchannel": "BI", "axis": "rx"}, trials=4)
        pair_tensor = 1024**2 * 2 * 16
        tracemalloc.start()
        try:
            out = stats.ccf_spatial(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["sim"].values.shape == (1024,)
        assert peak < pair_tensor / 4, f"peak {peak / 1e6:.1f} MB"

    def test_field_prediction_fails_before_any_trial(self, monkeypatch):
        # per trial process: a block of the row-0 kernel (tap_block_bytes),
        # the chunk's realizations (_RAY_BYTES per ray) and the process
        cfg = make_config(irs={"m_x": 16, "m_y": 16}, clusters={"birth_rate": 80.0},
                          ccf={"subchannel": "BI", "axis": "rx"}, trials=512)
        rays = expected_cluster_count(cfg.irs.layout(), cfg.clusters) * 10
        taps = 80.0 / 4.0 * 10
        pairs, steps = _block_steps(rays, 2)
        assert steps == 2
        block = tap_block_bytes(rays, taps, 256, 2)
        # the normalizer's 8 bytes per pair, ray and time and _TAP_BYTES per tap and time
        assert block == min(pairs, 256) * 2 * (8 * rays + smallscale._TAP_BYTES * taps)
        per = int(block + stats._RAY_BYTES * rays * 16)
        one, two = per + stats._PROCESS_BYTES, 2 * (per + stats._PROCESS_BYTES)
        two += stats._PROCESS_BYTES   # the pool's parent

        class Started(Exception):
            pass

        def no_trials(*args, **kwargs):
            raise Started

        monkeypatch.setattr(stats, "run_ensemble", no_trials)
        for ram, threads, fits in [(one, 1, True), (one - 1, 1, False),
                                   (two - 1, 2, False), (two, 2, True)]:
            monkeypatch.setattr(stats, "_available_ram_bytes", lambda: ram)
            with pytest.raises(Started if fits else MemoryError):
                stats.ccf_spatial(cfg, threads=threads)

    def test_sim_tracks_analytical(self):
        cfg = make_config(bs={"num_elements": 6}, ccf={"subchannel": "BU", "axis": "tx"},
                          trials=400)
        out = stats.ccf_spatial(cfg)
        gap = np.max(np.abs(out["sim"].magnitude - out["analytical"].magnitude))
        assert gap < 0.2


def test_available_ram_reads_memavailable_and_falls_back(tmp_path, monkeypatch):
    meminfo = tmp_path / "meminfo"
    meminfo.write_text("MemTotal:        8000000 kB\nMemFree:           12000 kB\n"
                       "MemAvailable:    1234567 kB\nBuffers:            100 kB\n")
    monkeypatch.setattr(stats, "_MEMINFO", str(meminfo))
    assert stats._available_ram_bytes() == 1234567 * 1024
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    meminfo.write_text("MemTotal:        8000000 kB\nMemFree:           12000 kB\n")
    assert stats._available_ram_bytes() == physical     # a kernel without the field
    monkeypatch.setattr(stats, "_MEMINFO", str(tmp_path / "missing"))
    assert stats._available_ram_bytes() == physical


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
        cfg = dataclasses.replace(small_cfg, trials=60,
                                  ds_cdf={**small_cfg.ds_cdf, "sigma_scales": [1.0]})
        out = stats.ds_cdf(cfg)
        xs, levels = stats.empirical_cdf(out[1.0])
        assert np.all(np.diff(xs) >= 0)
        assert np.all(np.diff(levels) > 0)
        assert 0 < levels[0] <= 1 and levels[-1] == 1.0

    def test_dispersion_dominance(self):
        cfg = make_config(clusters={
            "birth_rate": 8.0, "death_rate": 4.0, "rays_per_cluster": 20,
            "sigma_xyz_m": [5.0, 5.0, 2.0], "virtual_delay_mean_ns": 20.0,
            "center_distance_mean_m": 10.0, "power_decay_ns": 2000.0},
            ds_cdf={"sigma_scales": [1.0, 3.0]}, trials=250)
        out = stats.ds_cdf(cfg)
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
        rate = element_1_taps(real, 0.0)[3][0, 0]
        nu = -rate / real.wavelength
        assert nu == pytest.approx(v / real.wavelength, rel=1e-9)

    def test_matches_finite_difference(self, small_cfg):
        bi = realize_subchannel(small_cfg, "BI", rng_stream(2, "t", "BI"))
        t, h = 1.3, 1e-4
        ray, _, _, rate = element_1_taps(bi, t)
        d = reference_single_pair(bi, [t + h, t - h])["d"][ray]
        assert ray.size
        assert np.allclose(rate[0], (d[:, 0] - d[:, 1]) / (2 * h), rtol=1e-6)

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
                doppler={"start_s": 0.0, "stop_s": 2.0, "num": 3}, trials=60)
            _, spread, _ = stats.doppler_spread_series(cfg)
            means.append(spread.mean())
        assert means[0] < means[1] < means[2]


    def test_counts_are_the_trials_each_mean_averages(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, trials=24,
                                  doppler={"start_s": 0.0, "stop_s": 2.0, "num": 3})
        times, spread, counts = stats.doppler_spread_series(cfg)
        sums, want = np.zeros(3), np.zeros(3, dtype=int)
        for k in range(cfg.trials):
            bi, iu = (realize_subchannel(cfg, kind, rng_stream(cfg.seed, "trial", k, kind))
                      for kind in ("BI", "IU"))
            for i, t in enumerate(times):
                nu, w = stats.doppler_frequency(bi, iu, t)
                if nu.size:
                    sums[i] += stats.local_doppler_spread(nu, w)
                    want[i] += 1
        assert counts.tolist() == want.tolist()
        # pair (1, 1)'s visible rays do not depend on t, so neither does the count
        assert counts.tolist() == [counts[0]] * counts.size
        assert 0 < want.min() and want.max() <= cfg.trials
        np.testing.assert_allclose(spread, sums / want, rtol=1e-12)

    def test_time_without_a_visible_ray_pair_counts_zero(self, small_cfg):
        cfg = dataclasses.replace(small_cfg, trials=5, clusters=dataclasses.replace(
            small_cfg.clusters, birth_rate=1e-9))
        _, spread, counts = stats.doppler_spread_series(cfg)
        assert counts.tolist() == [0] * counts.size
        assert spread.tolist() == [0.0] * spread.size


def test_doppler_and_row_0_trials_make_one_kernel_call_per_subchannel(monkeypatch):
    cfg = make_config(irs={"m_x": 3, "m_y": 3})
    bi, iu = (realize_subchannel(cfg, kind, rng_stream(cfg.seed, "trial", 0, kind))
              for kind in ("BI", "IU"))
    calls, kernel = [], smallscale._tap_blocks

    def counted(real, *args):
        calls.append(real.subchannel)
        return kernel(real, *args)

    monkeypatch.setattr(smallscale, "_tap_blocks", counted)
    stats._trial_doppler({"BI": bi, "IU": iu}, {"times": np.linspace(0.0, 2.0, 11)})
    assert sorted(calls) == ["BI", "IU"]
    calls.clear()
    args = stats._setup_sub(cfg, {"times": np.array([0.0, 0.3]), "kind": "BI", "sweep": "rx"})
    stats._trial_sub({"BI": bi}, args)
    assert calls == ["BI"]


class TestEstimatorConsistency:
    def test_convergence_rate(self):
        # mean absolute sim-analytical gap of the sub-channel estimator
        # shrinks like 1/sqrt(trials); assert a conservative fraction of the
        # ideal factor-10 reduction over a 100x trial increase
        cfg = make_config(acf={"num_lags": 16})
        gaps = []
        for n in (100, 1000, 10000):
            out = stats.acf_subchannel(with_trials(cfg, n), "BI", 0.0)
            gaps.append(np.mean(np.abs(out["sim"].magnitude
                                       - out["analytical"].magnitude)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[0] / gaps[2] > 3.0


class TestBootstrap:
    def test_deterministic_given_stream(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 2}, rician_k_db=5.0,
                          acf={"num_lags": 8}, trials=64)
        prod, power = stats.cascade_trial_products(cfg, 0.0)
        a = bootstrap_mean_abs(prod, power, np.random.default_rng(1), n_boot=50)
        b = bootstrap_mean_abs(prod, power, np.random.default_rng(1), n_boot=50)
        assert np.array_equal(a, b)
        assert a.shape == (50,)
        assert np.all((a >= 0) & (a <= 1 + 1e-9))
