"""Shared scenario builders and helpers for the test suite."""

import numpy as np
import pytest

from irs_gbsm.clusters import ClusterSet, _build, _draw
from irs_gbsm.config import parse_config
from irs_gbsm.stats import CorrelationCurve, _normalize, run_ensemble


def make_config(**overrides):
    """Small, fast scenario; keyword args overlay the base dict."""
    base = {
        "seed": 1234,
        "fc_ghz": 62.0,
        "trials": 200,
        "rician_k_db": None,
        "geometry": {"d_bi_m": [100.0, 0.0, 0.0], "d_iu_m": [200.0, 0.0, 0.0]},
        "bs": {"speed_mps": 10.0, "velocity_azimuth_deg": 0.0},
        "user": {"speed_mps": 10.0, "velocity_azimuth_deg": 90.0},
        "clusters": {"birth_rate": 20.0, "death_rate": 4.0, "rays_per_cluster": 10,
                     "speed_a_mps": 5.0, "speed_z_mps": 5.0},
        "acf": {"anchors_s": [0.0, 2.0], "lag_max_s": 0.1, "lag_min_s": 1e-5,
                "num_lags": 21, "grid": "log"},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            base[key] = {**base[key], **value}
        else:
            base[key] = value
    return parse_config(base)


def generate_cluster_pairs(params, tx_ref, rx_ref, rng, count=None):
    """Draw one twin-cluster set around the two link-end references.

    The draws and geometry of ``realize_subchannels`` for static link ends:
    Poisson(mean) clusters unless ``count`` is given; zero clusters draw
    nothing further and give an empty set.
    """
    if count is None:
        count = int(rng.poisson(params.mean_count))
    refs = np.array([tx_ref, rx_ref], dtype=float)
    return _build(params, refs, np.zeros((2, 3)), [_draw(params, rng, count)])[0][0]


def empty_cluster_set(rays_per_cluster: int, sigma) -> ClusterSet:
    """A set with no clusters (every array has a zero-length cluster axis)."""
    none3 = np.zeros((0, 3))
    rays3 = np.zeros((0, rays_per_cluster, 3))
    return ClusterSet(center_a=none3, center_z=none3, angles_a=none3, angles_z=none3,
                      sigma=tuple(sigma), scatter_a=rays3, scatter_z=rays3,
                      virtual_delay=np.zeros(0), vel_a=none3, vel_z=none3)


def acf_subchannel(cfg, subchannel, t):
    """Simulated and analytical time ACF of element pair (1, 1) of one sub-channel.

    The oracle of the ``"factors"`` that ``stats.acf_full_irs`` returns for BI
    and IU, and the ACF of BU, which no cascade holds.  It runs its own
    ensemble on the same trial streams through the row-0 kernel
    (``smallscale.row_0_tap_sums`` per-pair sums), not the stacked phasors
    and GEMMs of the cascade.  Returns {"sim": curve, "analytical": curve}.
    """
    lags, f = cfg.lag_grid(), cfg.eval_offset_hz
    acc, n = run_ensemble(cfg, "sub", {"times": t + lags, "kind": subchannel, "sweep": None})
    return {kind: CorrelationCurve(t, f, (1, 1), lags,
                                   _normalize(acc[prod][0] / n, acc[power][0] / n),
                                   kind, n, subchannel)
            for kind, prod, power in (("sim", "prod", "pow"), ("analytical", "ana", "ana0"))}


def bootstrap_mean_abs(trial_prod, trial_pow, rng, n_boot=400):
    """Bootstrap samples of mean |ACF| over all lags, resampling trials."""
    n = trial_prod.shape[0]
    out = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(0, n, n)
        prod = trial_prod[idx].mean(axis=0)
        power = trial_pow[idx].mean(axis=0)
        out[b] = np.abs(_normalize(prod, power)).mean()
    return out


@pytest.fixture
def small_cfg():
    return make_config()


@pytest.fixture
def static_cfg():
    return make_config(
        bs={"speed_mps": 0.0}, user={"speed_mps": 0.0},
        clusters={"speed_a_mps": 0.0, "speed_z_mps": 0.0})
