"""Shadow fading and direct-link path loss.

Shadowing is log-normal: 10*log10(x^2) ~ Normal(mu, sigma^2) with mu and
sigma in dB, so the linear amplitude factor is x = 10^((mu + sigma*z)/20).
The BS-USER path loss follows the QuaDRiGa-style expression
PL[dB] = -A*log10(d_km) - B - C*log10(f_GHz) with scenario-dependent
coefficients supplied via configuration (never hardcoded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LargeScaleParams:
    """Shadow-fading and path-loss coefficients for one sub-channel/scenario."""

    sf_sigma_db: float
    sf_mu_db: float = 0.0
    pl_a: float = 22.0
    pl_b: float = 28.0
    pl_c: float = 20.0

    def __post_init__(self):
        if self.sf_sigma_db < 0:
            raise ValueError(f"shadow-fading sigma must be >= 0, got {self.sf_sigma_db}")


def sample_shadow_fading(params: LargeScaleParams, rng: np.random.Generator,
                         size=None):
    """Draw linear amplitude factor(s) x with 20*log10(x) ~ N(mu, sigma^2)."""
    z = rng.standard_normal(size)
    return 10.0 ** ((params.sf_mu_db + params.sf_sigma_db * z) / 20.0)


def path_loss_bu_db(d_km: float, f_ghz: float, params: LargeScaleParams) -> float:
    """Direct-link path loss in dB (negative gain)."""
    if d_km <= 0:
        raise ValueError(f"distance must be > 0 km, got {d_km}")
    if f_ghz <= 0:
        raise ValueError(f"frequency must be > 0 GHz, got {f_ghz}")
    return -params.pl_a * math.log10(d_km) - params.pl_b - params.pl_c * math.log10(f_ghz)


def db_to_linear(gain_db: float) -> float:
    """Convert a dB power gain to the linear power gain 10^(dB/10)."""
    return 10.0 ** (gain_db / 10.0)
