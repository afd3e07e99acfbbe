"""End-to-end channel assembly: direct link plus the IRS-reflected cascade.

For every (BS element q, USER element p) pair and time t:

    h_qp(t, f) = h_qp_BU(t, f)
               + sum_r h_qr_BI(t, f) * h_rp_IU(t, f) * exp(-j theta_r(t))

theta_r is the reflection phase of IRS element r.  Each sub-channel term is
the frequency response of the taps ``simulate`` writes to its CIR file, the
LoS tap and the visible rays of the pair: ``smallscale.subchannel_taps``
forms the CIR columns and that transfer matrix in one pass, and
:func:`cascade` only combines the three matrices.
The taps carry the positive-exponent propagation phase exp(+j 2 pi f_c tau),
so the reflection phase must enter conjugated for the surface to cancel the
propagation phase of the path it was optimized for; with continuous optimal
phases and a dominant LoS the r-terms then combine coherently.

Matrix form over the whole time grid, shape (T, M_U, M_B):
H(t) = a_c H_IU(t) @ diag(exp(-j theta(t))) @ H_BI(t) + a_d H_BU(t), with the
large-scale amplitudes a_c = sqrt(SF_BI SF_IU PL_BIU) and a_d = sqrt(SF_BU
PL_BU), or 1 without large-scale fading.
"""

from __future__ import annotations

import numpy as np

from .config import ScenarioConfig
from .irs import IrsPhaseModel, SteeringVector, cascaded_path_loss
from .largescale import db_to_linear, path_loss_bu_db, sample_shadow_fading

def phase_model_for(cfg: ScenarioConfig) -> IrsPhaseModel:
    """IRS phase model of a scenario, at its configured phase resolution."""
    scene = cfg.scene()
    return IrsPhaseModel(
        irs_layout=cfg.irs.layout(), d_bi=scene.d_bi, d_iu=scene.d_iu,
        wavelength=cfg.wavelength, v_bs=cfg.bs.velocity(), v_user=cfg.user.velocity(),
        bits=cfg.irs.phase_bits)


def path_losses(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(r_t, r_r, PL_BIU, PL_BU in dB): the deterministic path loss of both links at t = 0.

    r_t and r_r are the exact per-element distances (``IrsPhaseModel.legs``),
    at which the cascaded path gain PL_BIU evaluates the optimal-phase
    expression; the direct path loss uses the QuaDRiGa-style formula on the
    BS-USER distance.
    """
    r_t, r_r = phase_model_for(cfg).legs(0.0)
    pl_biu = cascaded_path_loss(cfg.irs.layout(), r_t, r_r, cfg.wavelength)
    d_bu_km = np.linalg.norm(cfg.scene().d_bu) / 1e3
    return r_t, r_r, pl_biu, path_loss_bu_db(d_bu_km, cfg.fc_ghz, cfg.large_scale.params("bu"))


def large_scale_factors(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    """Sampled shadow fading and deterministic path loss (:func:`path_losses`) at t = 0."""
    _, _, pl_biu, pl_bu_db = path_losses(cfg)
    ls = cfg.large_scale
    sf = {k: float(sample_shadow_fading(ls.params(k), rng)) for k in ("bi", "iu", "bu")}
    return {
        "sf_bi": sf["bi"], "sf_iu": sf["iu"], "sf_bu": sf["bu"],
        "pl_biu": pl_biu, "pl_bu_db": pl_bu_db,
        "cascade_amp": float(np.sqrt(sf["bi"] * sf["iu"] * pl_biu)),
        "direct_amp": float(np.sqrt(sf["bu"] * db_to_linear(pl_bu_db))),
    }


def cascade(h: dict[str, np.ndarray], theta: np.ndarray,
            large_scale: dict | None = None) -> np.ndarray:
    """End-to-end matrix H of every time from the sub-channel matrices; (T, M_U, M_B).

    ``h`` holds the (T, n_rx, n_tx) transfer matrices of "BI", "IU" and "BU"
    (``smallscale.subchannel_taps``), ``theta`` the (M_xy, T) applied IRS
    phases (``IrsPhaseModel.applied_profile``).
    """
    h_bi, h_iu = h["BI"], h["IU"]   # (T, M_xy, M_B), (T, M_U, M_xy)
    m_xy = theta.shape[0]
    if h_bi.shape[1] != m_xy or h_iu.shape[2] != m_xy:
        raise ValueError("IRS element count mismatch between sub-channels and phases")
    ls = large_scale or {"cascade_amp": 1.0, "direct_amp": 1.0}
    cascade_term = ls["cascade_amp"] * ((h_iu * np.exp(-1j * theta.T)[:, None, :]) @ h_bi)
    return cascade_term + ls["direct_amp"] * h["BU"]


def apply_steering(matrix: np.ndarray, f_vec: SteeringVector) -> np.ndarray:
    """Channel-matrix / steering-vector product H @ f, shape (M_U,)."""
    coeff = f_vec.coefficients
    if matrix.ndim != 2 or matrix.shape[1] != coeff.shape[0]:
        raise ValueError(f"cannot steer {matrix.shape} with length-{coeff.shape[0]} vector")
    return matrix @ coeff
