"""IRS reflection phases, phase quantization, received power, and BS steering.

The reflection phase of element r is the value that maximizes the received
power of the Tx -> element -> Rx path: phi = mod(2*pi*(r_t + r_r)/lambda, 2*pi).
With a b-bit surface the phase is snapped to the nearest member of
{(2k+1)*pi/2^b : k = 0..2^b - 1} under circular distance (for b = 2 this is
{pi/4, 3pi/4, 5pi/4, 7pi/4}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import TerminalLayout, unflatten_index

TWO_PI = 2.0 * np.pi


def phase_set(bits: int) -> np.ndarray:
    """The 2^bits quantized phase values, ascending in [0, 2*pi)."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    n = 2 ** bits
    return (2 * np.arange(n) + 1) * np.pi / n


def quantize_phase(phi, bits: int):
    """Snap phase(s) to the nearest quantized value under circular distance.

    Ties (exact to within 1e-12) break toward the smaller set value so the
    quantizer is deterministic.  Accepts scalars or arrays.
    """
    levels = phase_set(bits)
    phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
    diff = phi_arr[..., None] - levels
    dist = np.abs(np.mod(diff + np.pi, TWO_PI) - np.pi)
    near_min = dist <= dist.min(axis=-1, keepdims=True) + 1e-12
    choice = np.argmax(near_min, axis=-1)  # first True = smallest tied level
    out = levels[choice]
    if np.isscalar(phi) or np.asarray(phi).ndim == 0:
        return float(out[0])
    return out.reshape(np.asarray(phi).shape)


def resolution_label(bits: int | None) -> str:
    """Phase-resolution label: ``continuous`` or ``<bits>bit``.

    It names output files and fills the ``phase_resolution`` CSV column.
    """
    return "continuous" if bits is None else f"{bits}bit"


def optimal_phase(r_t, r_r, wavelength: float):
    """Power-maximizing reflection phase mod(2*pi*(r_t + r_r)/lambda, 2*pi)."""
    r_t = np.asarray(r_t, dtype=float)
    r_r = np.asarray(r_r, dtype=float)
    if np.any(r_t <= 0) or np.any(r_r <= 0):
        raise ValueError("Tx/Rx distances must be > 0")
    if wavelength <= 0:
        raise ValueError(f"wavelength must be > 0, got {wavelength}")
    out = np.mod(TWO_PI * (r_t + r_r) / wavelength, TWO_PI)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PhasePlan:
    """Per-element IRS reflection phases at one time instant.

    ``raw_phases`` holds the continuous optimum in flat-index order;
    ``phases`` is the effective (possibly quantized) value actually applied.
    """

    raw_phases: np.ndarray
    bits: int | None = None
    timestamp: float = 0.0
    m_y: int | None = None  # column count, for (x, y) labeling in CSV export

    def __post_init__(self):
        raw = np.mod(np.asarray(self.raw_phases, dtype=float), TWO_PI)
        raw.flags.writeable = False
        object.__setattr__(self, "raw_phases", raw)
        if self.bits is not None and self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")

    @property
    def phases(self) -> np.ndarray:
        if self.bits is None:
            return self.raw_phases
        return quantize_phase(self.raw_phases, self.bits)

    def rows(self):
        """CSV rows (r, x, y, phase_rad, quantized_phase_rad)."""
        m_y = self.m_y if self.m_y is not None else len(self.raw_phases)
        eff = self.phases
        for i, (raw, q) in enumerate(zip(self.raw_phases, eff)):
            x, y = unflatten_index(i + 1, m_y)
            yield (i + 1, x, y, float(raw), float(q))


def received_power(p_t: float, layout: TerminalLayout, r_t, r_r,
                   phases, wavelength: float) -> float:
    """Received power of the IRS-reflected link for an arbitrary phase plan.

    P_r = P_t * dIx * dIy * lambda^2 / (64 pi^3)
          * | sum_r exp(-j (2 pi (r_r + r_t) - lambda phi_r) / lambda) / (r_r r_t) |^2

    ``r_t``/``r_r`` are per-element Tx-to-element / element-to-Rx distances
    (flat-index order) and ``phases`` the per-element reflection phases.
    """
    if layout.kind != "IRS":
        raise ValueError("received_power expects the IRS layout")
    r_t = np.asarray(r_t, dtype=float)
    r_r = np.asarray(r_r, dtype=float)
    if np.any(r_t <= 0) or np.any(r_r <= 0):
        raise ValueError("element distances must be > 0")
    phases = np.asarray(phases, dtype=float)
    terms = np.exp(-1j * (TWO_PI * (r_r + r_t) - wavelength * phases) / wavelength)
    total = np.sum(terms / (r_r * r_t))
    dx, dy = layout.spacings
    return float(p_t * dx * dy * wavelength**2 / (64.0 * np.pi**3) * np.abs(total) ** 2)


def cascaded_path_loss(layout: TerminalLayout, r_t, r_r, wavelength: float) -> float:
    """Path gain of the IRS-assisted link under optimal phases (dimensionless).

    PL_BIU = dIx * dIy * lambda^2 * | sum_r 1/(r_t r_r) |^2 / (64 pi^3).
    """
    if layout.kind != "IRS":
        raise ValueError("cascaded_path_loss expects the IRS layout")
    r_t = np.asarray(r_t, dtype=float)
    r_r = np.asarray(r_r, dtype=float)
    if np.any(r_t <= 0) or np.any(r_r <= 0):
        raise ValueError("element distances must be > 0")
    dx, dy = layout.spacings
    total = np.sum(1.0 / (r_t * r_r))
    return float(dx * dy * wavelength**2 * np.abs(total) ** 2 / (64.0 * np.pi**3))


@dataclass(frozen=True)
class SteeringVector:
    """Unit-modulus BS weights pointing the array response at the IRS center."""

    coefficients: np.ndarray
    target_direction: tuple[float, float]  # (azimuth, elevation) radians
    doppler: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=complex)
        c.flags.writeable = False
        object.__setattr__(self, "coefficients", c)


def steering_vector(layout: TerminalLayout, direction: tuple[float, float],
                    wavelength: float, doppler: float = 0.0, t: float = 0.0,
                    reference: np.ndarray | None = None) -> SteeringVector:
    """Steering coefficients c_m = exp(j 2 pi <e, r_m>/lambda + j 2 pi nu t).

    ``direction`` is the (azimuth, elevation) pair of the departure direction;
    e = (cos el cos az, cos el sin az, sin el).  r_m is the element position
    minus the ``reference`` offset (d_x, d_y, d_z), default zero.
    """
    az, el = direction
    e = np.array([math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)])
    r_m = layout.offsets
    if reference is not None:
        r_m = r_m - np.asarray(reference, dtype=float)
    coeff = np.exp(1j * (TWO_PI / wavelength) * (r_m @ e) + 1j * TWO_PI * doppler * t)
    return SteeringVector(coeff, (az, el), doppler)


@dataclass(frozen=True)
class IrsPhaseModel:
    """Time-varying reflection phase of every IRS element.

    theta_r(t) = mod(2 pi (D_1r_BI(t) + D_r1_IU(t)) / lambda, 2 pi) where
    D_1r_BI(t) = |d_bi + l_r - v_bs t| and D_r1_IU(t) = |d_iu - l_r + v_user t|
    are the distances from BS element 1 to element r and from element r to
    USER element 1.  The same per-r phase applies to every (q, p) pair.
    """

    irs_layout: TerminalLayout
    d_bi: np.ndarray
    d_iu: np.ndarray
    wavelength: float
    v_bs: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v_user: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bits: int | None = None

    def legs(self, t) -> tuple[np.ndarray, np.ndarray]:
        """D_1r_BI(t) and D_r1_IU(t) of every element; each (M_xy,) or (M_xy, nt)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        l_r = self.irs_layout.offsets  # (M_xy, 3)
        d1r = self.d_bi + l_r[:, None, :] - self.v_bs * t_arr[None, :, None]
        dr1 = self.d_iu - l_r[:, None, :] + self.v_user * t_arr[None, :, None]
        leg_in = np.linalg.norm(d1r, axis=-1)
        leg_out = np.linalg.norm(dr1, axis=-1)
        if np.any(leg_in <= 0) or np.any(leg_out <= 0):
            raise ValueError("degenerate geometry: zero propagation distance")
        if np.asarray(t).ndim == 0:
            return leg_in[:, 0], leg_out[:, 0]
        return leg_in, leg_out

    def profile(self, t) -> np.ndarray:
        """Continuous phases of all elements; shape (M_xy,) or (M_xy, nt)."""
        leg_in, leg_out = self.legs(t)
        return np.mod(TWO_PI * (leg_in + leg_out) / self.wavelength, TWO_PI)

    def applied_profile(self, t) -> np.ndarray:
        """Phases after quantization (identity when the plan is continuous)."""
        phi = self.profile(t)
        return phi if self.bits is None else quantize_phase(phi, self.bits)

    def plan(self, t: float) -> PhasePlan:
        return PhasePlan(self.profile(t), bits=self.bits, timestamp=t,
                         m_y=self.irs_layout.counts[1])
