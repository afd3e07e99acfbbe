"""End-to-end channel assembly: direct link plus the IRS-reflected cascade.

For every (BS element q, USER element p) pair and time t:

    h_qp(t, f) = h_qp_BU(t, f)
               + sum_r h_qr_BI(t, f) * h_rp_IU(t, f) * exp(-j theta_r(t))

theta_r is the reflection phase of IRS element r.  The sub-channel taps
carry the positive-exponent propagation phase exp(+j 2 pi f_c tau), so the
reflection phase must enter conjugated for the surface to cancel the
propagation phase of the path it was optimized for; with continuous optimal
phases and a dominant LoS the r-terms then combine coherently.

Matrix form: H = H_IU @ diag(exp(-j theta)) @ H_BI + H_BU, optionally scaled
by the large-scale amplitudes sqrt(SF_BI SF_IU PL_BIU) and sqrt(SF_BU PL_BU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterRealization
from .config import ScenarioConfig
from .irs import IrsPhaseModel, SteeringVector, cascaded_path_loss, resolution_label
from .largescale import db_to_linear, path_loss_bu_db, sample_shadow_fading
from .smallscale import transfer_values


@dataclass(frozen=True)
class EndToEndChannel:
    """Assembled channel matrix and its components at one (t, f)."""

    t: float
    f: float
    matrix: np.ndarray          # (M_U, M_B)
    cascade_term: np.ndarray    # (M_U, M_B), large-scale applied
    direct_term: np.ndarray     # (M_U, M_B), zero when direct excluded
    phase_resolution: str
    large_scale: dict | None = None

    def rows(self):
        """CSV rows (t, f, q, p, re, im, phase_resolution)."""
        m_u, m_b = self.matrix.shape
        for p in range(m_u):
            for q in range(m_b):
                v = self.matrix[p, q]
                yield (self.t, self.f, q + 1, p + 1, float(v.real), float(v.imag),
                       self.phase_resolution)


def subchannel_matrix(real: ClusterRealization, t: float, f: float = 0.0) -> np.ndarray:
    """Transfer matrix of one sub-channel, shape (n_rx_elements, n_tx_elements)."""
    n_tx = real.tx_layout.num_elements
    cols = [transfer_values(real, t, f, tx_element=q, sweep="rx") for q in range(1, n_tx + 1)]
    return np.stack([c[:, 0] for c in cols], axis=1)


def phase_model_for(cfg: ScenarioConfig, bits: int | None = "config") -> IrsPhaseModel:
    """IRS phase model of a scenario; ``bits`` overrides the configured resolution."""
    scene = cfg.scene()
    return IrsPhaseModel(
        irs_layout=cfg.irs.layout(), d_bi=scene.d_bi, d_iu=scene.d_iu,
        wavelength=cfg.wavelength, v_bs=cfg.bs.velocity(), v_user=cfg.user.velocity(),
        bits=cfg.irs.phase_bits if bits == "config" else bits)


def large_scale_factors(cfg: ScenarioConfig, rng: np.random.Generator) -> dict:
    """Sampled shadow fading and deterministic path loss for both links at t = 0.

    The cascaded path loss evaluates the optimal-phase expression with the
    exact per-element distances (``IrsPhaseModel.legs``); the direct path
    loss uses the QuaDRiGa-style formula on the BS-USER distance.
    """
    irs_layout = cfg.irs.layout()
    r_t, r_r = phase_model_for(cfg).legs(0.0)
    pl_biu = cascaded_path_loss(irs_layout, r_t, r_r, cfg.wavelength)
    d_bu_km = np.linalg.norm(cfg.scene().d_bu) / 1e3
    ls = cfg.large_scale
    pl_bu_db = path_loss_bu_db(d_bu_km, cfg.fc_ghz, ls.params("bu"))
    sf = {k: float(sample_shadow_fading(ls.params(k), rng)) for k in ("bi", "iu", "bu")}
    return {
        "sf_bi": sf["bi"], "sf_iu": sf["iu"], "sf_bu": sf["bu"],
        "pl_biu": pl_biu, "pl_bu_db": pl_bu_db,
        "cascade_amp": float(np.sqrt(sf["bi"] * sf["iu"] * pl_biu)),
        "direct_amp": float(np.sqrt(sf["bu"] * db_to_linear(pl_bu_db))),
    }


def cascade(t: float, f: float, subchannels: dict[str, ClusterRealization],
            phase_model: IrsPhaseModel, include_direct: bool = True,
            large_scale: dict | None = None) -> EndToEndChannel:
    """Assemble the end-to-end matrix from the three sub-channel realizations."""
    bi, iu = subchannels["BI"], subchannels["IU"]
    m_xy = phase_model.irs_layout.num_elements
    if bi.rx_layout.num_elements != m_xy or iu.tx_layout.num_elements != m_xy:
        raise ValueError("IRS element count mismatch between sub-channels and phase model")
    h_bi = subchannel_matrix(bi, t, f)   # (M_xy, M_B)
    h_iu = subchannel_matrix(iu, t, f)   # (M_U, M_xy)
    if h_iu.shape[1] != h_bi.shape[0]:
        raise ValueError(f"cannot cascade {h_iu.shape} with {h_bi.shape}")
    theta = phase_model.applied_profile(t)
    cascade_term = (h_iu * np.exp(-1j * theta)[None, :]) @ h_bi

    amp_cascade = large_scale["cascade_amp"] if large_scale else 1.0
    amp_direct = large_scale["direct_amp"] if large_scale else 1.0
    cascade_term = amp_cascade * cascade_term
    if include_direct:
        bu = subchannels["BU"]
        direct_term = amp_direct * subchannel_matrix(bu, t, f)
        if direct_term.shape != cascade_term.shape:
            raise ValueError(f"direct term {direct_term.shape} does not match "
                             f"cascade {cascade_term.shape}")
    else:
        direct_term = np.zeros_like(cascade_term)
    return EndToEndChannel(
        t=t, f=f, matrix=cascade_term + direct_term, cascade_term=cascade_term,
        direct_term=direct_term,
        phase_resolution=resolution_label(phase_model.bits),
        large_scale=large_scale)


def apply_steering(matrix: np.ndarray, f_vec: SteeringVector) -> np.ndarray:
    """Channel-matrix / steering-vector product H @ f, shape (M_U,)."""
    coeff = f_vec.coefficients
    if matrix.ndim != 2 or matrix.shape[1] != coeff.shape[0]:
        raise ValueError(f"cannot steer {matrix.shape} with length-{coeff.shape[0]} vector")
    return matrix @ coeff
