"""Acceptance suite: one test per exit criterion, printed as pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy Monte-Carlo
ensembles are shared module-scoped fixtures; every tolerance is asserted at
the value stated in the criterion.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from irs_gbsm import stats
from irs_gbsm.assembly import cascade, phase_model_for
from irs_gbsm.cli import main as cli_main
from irs_gbsm.clusters import (
    evolve_visibility,
    lag1_autocorrelation,
    realize_subchannel,
)
from irs_gbsm.config import parse_config
from irs_gbsm.geometry import TerminalLayout
from irs_gbsm.rng import rng_stream
from irs_gbsm.smallscale import element_1_taps, subchannel_taps
from tests.conftest import bootstrap_mean_abs
from tests.field_oracle import reference_single_pair

TRIALS = 10_000


def report(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# --------------------------------------------------------------------------
# shared configurations

BASELINE = {
    "seed": 2024,
    "fc_ghz": 62.0,
    "trials": TRIALS,
    "rician_k_db": None,  # no LoS component in this comparison
    "geometry": {"d_bi_m": [100.0, 0.0, 0.0], "d_iu_m": [200.0, 0.0, 0.0]},
    "bs": {"speed_mps": 10.0, "velocity_azimuth_deg": 0.0},
    "user": {"speed_mps": 10.0, "velocity_azimuth_deg": 90.0},
    "irs": {"m_x": 1, "m_y": 1},
    "clusters": {"birth_rate": 40.0, "death_rate": 4.0, "rays_per_cluster": 10,
                 "speed_a_mps": 5.0, "speed_z_mps": 5.0},
    "acf": {"anchors_s": [0.0, 2.0], "lag_max_s": 0.1, "lag_min_s": 1e-5,
            "num_lags": 41, "grid": "log"},
}

QUANT = {
    "seed": 555,
    "fc_ghz": 58.0,
    "trials": TRIALS,
    "rician_k_db": 5.0,
    "geometry": {"d_bi_m": [50.0, 0.0, 0.0], "d_iu_m": [150.0, 0.0, 0.0]},
    "bs": {"speed_mps": 10.0, "velocity_azimuth_deg": 0.0},
    "user": {"speed_mps": 10.0, "velocity_azimuth_deg": 90.0},
    "irs": {"m_x": 4, "m_y": 4},
    "clusters": {"birth_rate": 20.0, "death_rate": 4.0, "rays_per_cluster": 10,
                 "speed_a_mps": 5.0, "speed_z_mps": 5.0},
    "acf": {"anchors_s": [2.0], "lag_max_s": 0.1, "lag_min_s": 1e-5,
            "num_lags": 21, "grid": "log"},
}


def mono_config(m_xy: int, k_db: float):
    return parse_config({
        "seed": 321,
        "fc_ghz": 58.0,
        "trials": 600,
        "rician_k_db": k_db,
        "geometry": {"d_bi_m": [50.0, 0.0, 0.0], "d_iu_m": [150.0, 0.0, 0.0]},
        "bs": {"speed_mps": 10.0, "velocity_azimuth_deg": 0.0},
        "user": {"speed_mps": 10.0, "velocity_azimuth_deg": 90.0},
        "irs": {"m_x": m_xy, "m_y": m_xy},
        "clusters": {"birth_rate": 20.0, "death_rate": 4.0, "rays_per_cluster": 10,
                     "speed_a_mps": 5.0, "speed_z_mps": 5.0},
        "acf": {"anchors_s": [2.0], "lag_max_s": 0.05, "lag_min_s": 1e-5,
                "num_lags": 21, "grid": "log"},
    })


def baseline_ensembles(cfg):
    """The 1x1 cascade ACF at t = 0 and t = 2 s, continuous and 2-bit.

    Each anchor's ensemble also holds the two sub-channel ACFs of the
    product form R_BI R_IU, its ``"factors"``; the t = 0 run is timed alone.
    """
    start = time.monotonic()
    at_t0 = stats.acf_full_irs(cfg, 0.0, bits_variants=(None, 2))
    elapsed = time.monotonic() - start
    at_t2 = stats.acf_full_irs(cfg, 2.0, bits_variants=(None, 2))
    return {"cfg": cfg, "t0": at_t0["continuous"], "t2": at_t2["continuous"],
            "2bit": {"t0": at_t0["2bit"], "t2": at_t2["2bit"]}, "t0_seconds": elapsed}


@pytest.fixture(scope="module")
def baseline():
    return baseline_ensembles(parse_config(BASELINE))


@pytest.fixture(scope="module")
def quant():
    cfg = parse_config(QUANT)
    out = stats.acf_full_irs(cfg, 2.0, bits_variants=(None, 2), analytical=False)
    return {"cfg": cfg, "curves": out}


@pytest.fixture(scope="module")
def ccf():
    cfg = parse_config({
        "seed": 808,
        "fc_ghz": 62.0,
        "trials": TRIALS,
        "rician_k_db": None,
        "geometry": {"d_bi_m": [50.0, 0.0, 0.0], "d_iu_m": [50.0, 10.0, 0.0],
                     "d_bu_m": None},
        "bs": {"num_elements": 32, "speed_mps": 10.0},
        "user": {"speed_mps": 10.0, "velocity_azimuth_deg": 90.0},
        "clusters": {"birth_rate": 20.0, "death_rate": 4.0, "rays_per_cluster": 10,
                     "speed_a_mps": 5.0, "speed_z_mps": 5.0},
        "ccf": {"subchannel": "BU", "axis": "tx", "t_s": 0.0, "dt_s": 0.0},
    })
    return stats.ccf_spatial(cfg)


@pytest.fixture(scope="module")
def monotonic_probes():
    out = {"size": {}, "k": {}}
    for m in (2, 5, 10):
        cfg = mono_config(m, 5.0)
        out["size"][m] = stats.cascade_trial_products(cfg, 2.0)
    out["k"][5.0] = out["size"][10]
    for k_db in (0.0, 10.0):
        cfg = mono_config(10, k_db)
        out["k"][k_db] = stats.cascade_trial_products(cfg, 2.0)
    return out


# --------------------------------------------------------------------------
# criteria

def test_criterion_01_sim_analytical_agreement(baseline):
    sim = np.abs(baseline["t0"]["sim"].values)
    ana = np.abs(baseline["t0"]["analytical"].values)
    gap = float(np.max(np.abs(sim - ana)))
    seconds = baseline["t0_seconds"]
    report(1, gap <= 0.05 and seconds <= 60.0,
           f"Linf(|sim|-|analytical|)={gap:.4f} (<=0.05), "
           f"runtime={seconds:.1f}s (<=60s), trials={TRIALS}")


def test_criterion_02_time_non_stationarity(baseline):
    m0 = np.abs(baseline["t0"]["sim"].values)[1:]   # dt in (0, 0.1]
    m2 = np.abs(baseline["t2"]["sim"].values)[1:]
    diff = float(np.max(np.abs(m0 - m2)))
    report(2, diff > 0.02, f"Linf(|ACF(t=0)|-|ACF(t=2)|)={diff:.4f} (>0.02)")


def test_criterion_03_zero_lag_normalization(baseline, quant, ccf):
    sim_tol = 3.0 / np.sqrt(TRIALS)
    curves = []
    for anchor in ("t0", "t2"):
        curves.append(("acf sim", baseline[anchor]["sim"], sim_tol))
        curves.append(("acf analytical", baseline[anchor]["analytical"], 1e-9))
    for label in ("continuous", "2bit"):
        curves.append((f"full acf sim {label}", quant["curves"][label]["sim"], sim_tol))
    curves.append(("ccf sim", ccf["sim"], sim_tol))
    curves.append(("ccf analytical", ccf["analytical"], 1e-9))
    worst = max(abs(c.values[0] - 1.0) for _, c, _ in curves)
    ok = all(abs(c.values[0] - 1.0) <= tol for _, c, tol in curves)
    report(3, ok, f"all {len(curves)} zero-lag values = 1 (worst dev {worst:.2e})")


def test_criterion_04_single_element_quantization_invariance(baseline):
    gap = max(float(np.max(np.abs(np.abs(baseline[anchor][kind].values)
                                  - np.abs(baseline["2bit"][anchor][kind].values))))
              for anchor in ("t0", "t2") for kind in ("sim", "analytical"))
    report(4, gap <= 1e-12,
           f"continuous vs 2-bit |ACF| gap={gap:.2e} (<=1e-12) at M_xy=1")


def test_criterion_05_multi_element_quantization_effect(quant):
    cont = np.abs(quant["curves"]["continuous"]["sim"].values)
    disc = np.abs(quant["curves"]["2bit"]["sim"].values)
    gap = float(np.max(np.abs(cont - disc)))
    report(5, gap > 0.005,
           f"4x4 IRS continuous vs 2-bit Linf={gap:.4f} (>0.005) at {TRIALS} trials")


def test_criterion_06_product_decomposition(baseline):
    worst = 0.0
    for anchor in ("t0", "t2"):
        sub = baseline[anchor]["factors"]
        for kind in ("sim", "analytical"):
            lhs = np.abs(baseline[anchor][kind].values)
            rhs = np.abs(sub["BI"][kind].values) * np.abs(sub["IU"][kind].values)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    report(6, worst <= 1e-12,
           f"|R_cascade| vs |R_BI||R_IU| worst gap={worst:.2e} (<=1e-12)")


def test_baseline_runs_two_ensembles(monkeypatch):
    # one cascade ensemble per anchor serves the ACFs and their factors
    calls = []
    run = stats.run_ensemble

    def counted(cfg, stat, *args, **kwargs):
        calls.append(stat)
        return run(cfg, stat, *args, **kwargs)

    monkeypatch.setattr(stats, "run_ensemble", counted)
    out = baseline_ensembles(dataclasses.replace(parse_config(BASELINE), trials=32))
    assert calls == ["cascade", "cascade"]
    assert sorted(out["t2"]["factors"]) == ["BI", "IU"]


def test_criterion_07_size_and_k_monotonicity(monotonic_probes):
    rng = np.random.default_rng(99)
    msgs, ok = [], True
    for name, keys in (("IRS size", (2, 5, 10)), ("Rician K dB", (0.0, 5.0, 10.0))):
        group = monotonic_probes["size" if name == "IRS size" else "k"]
        boots = {k: bootstrap_mean_abs(*group[k], rng, n_boot=400) for k in keys}
        means = {k: float(np.mean(boots[k])) for k in keys}
        for low, high in zip(keys[:-1], keys[1:]):
            delta = boots[high] - boots[low]
            lo_ci = float(np.percentile(delta, 2.5))
            ok = ok and lo_ci > 0.0
            msgs.append(f"{name} {low}->{high}: mean|ACF| {means[low]:.3f}->"
                        f"{means[high]:.3f}, 95% CI low {lo_ci:+.4f}")
    report(7, ok, "; ".join(msgs))


def test_criterion_08_cluster_steady_state():
    params = parse_config({
        "fc_ghz": 58.0,
        "clusters": {"birth_rate": 80.0, "death_rate": 4.0,
                     "correlation_factor_m": 10.0},
    }).clusters
    layout = TerminalLayout.planar(16, 16, 2.585e-3, 2.585e-3,
                                   0.0, np.pi / 3, np.pi / 2, np.pi / 6)
    runs = 10_000
    total = 0.0
    for k in range(runs):
        total += evolve_visibility(layout, params, rng_stream(17, "evolve", k)).mean_visible()
    mean = total / runs

    big = TerminalLayout.planar(128, 128, 2.585e-3, 2.585e-3,
                                0.0, np.pi / 3, np.pi / 2, np.pi / 6)
    tensor = evolve_visibility(big, params, rng_stream(17, "evolve-big"))
    lag1 = lag1_autocorrelation(tensor)
    ok = abs(mean - 20.0) <= 0.05 * 20.0 and lag1 > 0.5
    report(8, ok, f"mean visible/element={mean:.3f} (20 +-5% over {runs} runs), "
                  f"lag-1 autocorr={lag1:.3f} (>0.5) on 128x128")


def test_criterion_09_doppler():
    static = parse_config({
        "seed": 41, "trials": 10,
        "bs": {"speed_mps": 0.0}, "user": {"speed_mps": 0.0},
        "clusters": {"birth_rate": 20.0, "rays_per_cluster": 10,
                     "speed_a_mps": 0.0, "speed_z_mps": 0.0},
    })
    bi = realize_subchannel(static, "BI", rng_stream(41, "trial", 0, "BI"))
    iu = realize_subchannel(static, "IU", rng_stream(41, "trial", 0, "IU"))
    nu, w = stats.doppler_frequency(bi, iu, 1.0)
    static_zero = np.all(nu == 0.0) and stats.local_doppler_spread(nu, w) == 0.0

    means = []
    for vu in (8.0, 10.0, 15.0):
        cfg = parse_config({
            "seed": 42, "fc_ghz": 62.0, "trials": 400,
            "geometry": {"d_bi_m": [100.0, 0.0, 0.0], "d_iu_m": [200.0, 0.0, 0.0]},
            "bs": {"speed_mps": 0.0},
            "user": {"speed_mps": vu, "velocity_azimuth_deg": 90.0},
            "clusters": {"birth_rate": 20.0, "rays_per_cluster": 10,
                         "speed_z_mps": 5.0},
            "doppler": {"start_s": 0.0, "stop_s": 2.0, "num": 5},
        })
        _, spread, _ = stats.doppler_spread_series(cfg)
        means.append(float(spread.mean()))
    increasing = means[0] < means[1] < means[2]

    probe = parse_config(BASELINE)
    real = realize_subchannel(probe, "BI", rng_stream(7, "trial", 0, "BI"))
    t, h = 0.9, 1e-4
    ray, _, _, rate = element_1_taps(real, t)
    d = reference_single_pair(real, [t + h, t - h])["d"][ray]
    fd = (d[:, 0] - d[:, 1]) / (2 * h)
    fd_rel = float(np.max(np.abs(rate[0] - fd) / np.abs(fd)))

    ok = static_zero and increasing and fd_rel <= 1e-6
    report(9, ok, f"static spread 0 exactly: {static_zero}; spread over v_U "
                  f"{{8,10,15}}={np.round(means, 1)} Hz increasing: {increasing}; "
                  f"finite-difference rel err={fd_rel:.2e} (<=1e-6)")


def test_criterion_10_rms_delay_spread():
    two_tap = stats.rms_delay_spread([0.0, 1.0], [0.5, 0.5])
    exact = abs(two_tap - 0.5) <= 1e-12

    cfg = parse_config({
        "seed": 14, "fc_ghz": 62.0, "trials": 600,
        "clusters": {"birth_rate": 8.0, "death_rate": 4.0, "rays_per_cluster": 20,
                     "sigma_xyz_m": [5.0, 5.0, 2.0], "virtual_delay_mean_ns": 20.0,
                     "center_distance_mean_m": 10.0, "power_decay_ns": 2000.0},
        "ds_cdf": {"sigma_scales": [1.0, 3.0], "t_s": 0.0},
    })
    samples = stats.ds_cdf(cfg)
    ratio = float(np.median(samples[3.0]) / np.median(samples[1.0]))
    report(10, exact and ratio > 1.0,
           f"two-tap DS={two_tap} (=0.5 within 1e-12); "
           f"median DS ratio sigma x3/x1 = {ratio:.2f} (>1)")


def test_criterion_11_oracle_equivalence():
    cfg = parse_config({
        "seed": 31, "fc_ghz": 28.0, "trials": 10, "rician_k_db": 3.0,
        "geometry": {"d_bi_m": [60.0, 5.0, 2.0], "d_iu_m": [40.0, -12.0, -2.0]},
        "bs": {"num_elements": 2, "speed_mps": 3.0},
        "user": {"speed_mps": 2.0, "velocity_azimuth_deg": 45.0},
        "irs": {"m_x": 2, "m_y": 2},
        "clusters": {"birth_rate": 12.0, "rays_per_cluster": 5,
                     "speed_a_mps": 1.0, "speed_z_mps": 1.0},
    })
    reals = {k: realize_subchannel(cfg, k, rng_stream(31, "trial", 0, k))
             for k in ("BI", "IU", "BU")}
    model = phase_model_for(cfg)
    t, f = 0.7, 1e6
    # the tap sum of the CIR kernel against the field oracle, pair by pair
    h = {kind: subchannel_taps(real, [t], f)[1] for kind, real in reals.items()}
    matrix = cascade(h, model.applied_profile(np.array([t])))[0]
    theta = model.applied_profile(t)

    def transfer(kind, tx, rx):
        return reference_single_pair(reals[kind], t, f, tx, rx)["h"][0]

    worst = 0.0
    for q in (1, 2):
        oracle = transfer("BU", q, 1)
        for r in range(1, 5):
            oracle += transfer("BI", q, r) * transfer("IU", r, 1) * np.exp(-1j * theta[r - 1])
        worst = max(worst, abs(matrix[0, q - 1] - oracle))

    los_cfg = parse_config({
        "seed": 32, "fc_ghz": 28.0, "trials": 10, "rician_k_db": 120.0,
        "geometry": {"d_bi_m": [60.0, 5.0, 2.0], "d_iu_m": [40.0, -12.0, -2.0]},
        "irs": {"m_x": 3, "m_y": 3},
        "clusters": {"birth_rate": 12.0, "rays_per_cluster": 5},
    })
    los_reals = {k: realize_subchannel(los_cfg, k, rng_stream(32, "trial", 0, k))
                 for k in ("BI", "IU")}
    los_model = phase_model_for(los_cfg)
    h_bi = np.array([reference_single_pair(los_reals["BI"], 0.0, rx_element=r)["h"][0]
                     for r in range(1, 10)])
    h_iu = np.array([reference_single_pair(los_reals["IU"], 0.0, tx_element=r)["h"][0]
                     for r in range(1, 10)])
    terms = h_iu * np.exp(-1j * los_model.applied_profile(0.0)) * h_bi
    combine_rel = abs(np.abs(terms.sum()) - np.abs(terms).sum()) / np.abs(terms).sum()

    ok = worst <= 1e-12 and combine_rel <= 1e-6
    report(11, ok, f"cascade vs brute-force triple loop: max gap={worst:.2e} "
                   f"(<=1e-12); coherent-combining rel gap={combine_rel:.2e} (<=1e-6)")


def test_criterion_12_determinism(tmp_path):
    cfg = {
        "seed": 99, "fc_ghz": 62.0, "trials": 30,
        "irs": {"m_x": 2, "m_y": 2, "phase_bits": 2},
        "clusters": {"birth_rate": 12.0, "rays_per_cluster": 5},
        "acf": {"anchors_s": [0.0], "num_lags": 9},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    for sub, out in (("acf", "a1"), ("acf", "a2")):
        assert cli_main([sub, "--config", str(path), "--out",
                         str(tmp_path / out), "--threads", "1"]) == 0
    m1 = json.loads((tmp_path / "a1" / "run_manifest.json").read_text())["outputs"]
    m2 = json.loads((tmp_path / "a2" / "run_manifest.json").read_text())["outputs"]
    identical = m1 == m2

    scen = parse_config(cfg)
    short, _ = stats.cascade_trial_products(dataclasses.replace(scen, trials=16), 0.0)
    long, _ = stats.cascade_trial_products(dataclasses.replace(scen, trials=48), 0.0)
    extension_stable = np.array_equal(short, long[:16])

    report(12, identical and extension_stable,
           f"byte-identical rerun: {identical}; first 16 trials unchanged when "
           f"extending 16->48: {extension_stable}")
