"""Per-tap reference CIR of one element pair, the oracle of the tap kernel.

One ``RayTap`` per tap, built pair by pair and time by time: the LoS tap
from ``np.linalg.norm`` of the LoS vector, then one tap per visible ray from
the delays and powers of ``field_oracle.reference_single_pair``, with the
Rician weights folded into the amplitudes.  The CIR columns of
``smallscale.subchannel_taps`` must reproduce these taps bit for bit, and
the transfer matrix that the same pass sums their Fourier sum.
"""

from dataclasses import dataclass

import numpy as np

from irs_gbsm.geometry import SPEED_OF_LIGHT, element_offset
from irs_gbsm.smallscale import TWO_PI
from tests.field_oracle import reference_single_pair


@dataclass(frozen=True)
class RayTap:
    """One resolvable tap: delay, weighted linear amplitude, carrier phase."""

    delay: float
    amplitude: float
    phase: float
    cluster_id: int
    ray_id: int
    is_los: bool = False


def los_distance(real, tx_element: int, rx_element: int, times) -> np.ndarray:
    """|D(t)| with D(t) = D0 - l_q + l_r + (v_rx - v_tx) t; shape (n_times,)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    d0 = (real.rx_ref - real.tx_ref
          - element_offset(real.tx_layout, tx_element)
          + element_offset(real.rx_layout, rx_element))
    return np.linalg.norm(d0 + (real.v_rx - real.v_tx) * times[:, None], axis=-1)


def weighted_taps(real, t: float, tx_element: int = 1, rx_element: int = 1) -> list[RayTap]:
    """The LoS tap, then one tap per visible (cluster, ray), Rician-weighted."""
    k = float(real.k_factor)
    tau = float(los_distance(real, tx_element, rx_element, t)[0] / SPEED_OF_LIGHT)
    taps = [RayTap(tau, np.sqrt(k / (k + 1.0)),
                   float(np.mod(TWO_PI * real.fc_hz * tau, TWO_PI)), -1, -1, True)]
    if real.num_rays == 0:
        return taps
    field = reference_single_pair(real, t, 0.0, tx_element, rx_element)
    delays, powers = field["delays"][:, 0], field["powers"][:, 0]
    w_nlos = np.sqrt(1.0 / (k + 1.0))
    rays = real.rays
    for i in np.nonzero(field["visible"])[0]:
        taps.append(RayTap(float(delays[i]), w_nlos * float(np.sqrt(powers[i])),
                           float(np.mod(TWO_PI * real.fc_hz * delays[i], TWO_PI)),
                           int(rays["cluster_ids"][i]), int(rays["ray_ids"][i])))
    return taps


def transfer_function(taps: list[RayTap], fc_hz: float, f: float = 0.0) -> complex:
    """H(t, f) = sum over taps of a * exp(j 2 pi (f_c - f) tau)."""
    total = 0.0 + 0.0j
    for tap in taps:
        total += tap.amplitude * np.exp(1j * TWO_PI * (fc_hz - f) * tap.delay)
    return complex(total)
