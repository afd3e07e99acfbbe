"""Time-varying small-scale channel impulse response of one sub-channel.

Rays: a ray bounces off paired scatterers (S_A near Tx, S_Z near Rx); its
path length is |d_tx| + |d_rx| where, with constant velocities,

    d_tx(t) = d0_tx - l_q - (v_tx - v_A) * t
    d_rx(t) = d0_rx - l_r - (v_rx - v_Z) * t

(d0 are the initial reference-to-scatterer vectors, l the element offsets).
Delay tau = path/c + tau_v with the cluster's virtual-link delay.  The tap
phase is exp(+j 2 pi f_c tau); the exponent sign is a fixed convention and
correlation magnitudes do not depend on it.  Ray powers follow an
exponential power-delay profile exp(-tau/gamma), renormalized at every
(element pair, time) over the rays visible to that pair, so the NLoS power
always sums to 1.

The LoS component has unit power and delay |D(t)|/c with
D(t) = D0 - l_q + l_r + (v_rx - v_tx) * t.

Rician mixing: h = sqrt(K/(K+1)) h_LoS + sqrt(1/(K+1)) h_NLoS.

Every ray path length, and the LoS distance of the field and CIR kernels,
goes through one kernel, :func:`_side_norms`.  It takes |d0 - l - v t| one
component at a time over (rays, elements, times) and adds the squares as
(x0^2 + x1^2) + x2^2, the order of ``np.linalg.norm(..., axis=-1)``, which
:func:`los_distance` calls directly.  The LoS vector and per-(element, ray)
differences enter the kernel as d0 with the origin as offset.  The
summation order is part of the output: a last-ulp change in d becomes about
1e-11 rad once multiplied by kappa (about 1300 rad/m at 62 GHz), so the
written CSV bytes move with it.  One order for every caller also makes the
g, u and powers of :func:`pair_field` equal those of :func:`ray_field` on
the same element pair bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterRealization
from .geometry import SPEED_OF_LIGHT, element_offset, element_offsets

TWO_PI = 2.0 * np.pi

# cap on the float64 count of the largest temp of a cir_columns block
_BLOCK_FLOATS = 12_000_000
# the element offset of a difference already formed per row (a LoS vector or a
# gathered (element, ray) pair); subtracting it is exact
_ORIGIN = np.zeros((1, 3))


@dataclass(frozen=True)
class RayTap:
    """One resolvable ray: delay, linear amplitude, carrier phase."""

    delay: float
    amplitude: float
    phase: float
    cluster_id: int
    ray_id: int
    is_los: bool = False


@dataclass(frozen=True)
class SubchannelCIR:
    """LoS tap plus NLoS tap set for one element pair at one time instant."""

    pair: tuple[int, int]
    t: float
    k_factor: float
    fc_hz: float
    los_tap: RayTap
    nlos_taps: tuple[RayTap, ...]

    def __post_init__(self):
        if self.k_factor < 0:
            raise ValueError(f"Rician K must be >= 0, got {self.k_factor}")

    @property
    def los_weight(self) -> float:
        return np.sqrt(self.k_factor / (self.k_factor + 1.0))

    @property
    def nlos_weight(self) -> float:
        return np.sqrt(1.0 / (self.k_factor + 1.0))

    def weighted_taps(self) -> list[RayTap]:
        """All taps with the Rician weights folded into the amplitudes."""
        out = [RayTap(self.los_tap.delay, self.los_weight * self.los_tap.amplitude,
                      self.los_tap.phase, -1, -1, True)]
        w = self.nlos_weight
        out.extend(RayTap(tp.delay, w * tp.amplitude, tp.phase, tp.cluster_id, tp.ray_id)
                   for tp in self.nlos_taps)
        return out


def _side_norms(d0, v_rel, offsets, times):
    """|d0 - l - v_rel t| over (rays, elements, times), one component at a time.

    ``d0`` and ``v_rel`` are (n, 3) per ray (``v_rel`` may be one (1, 3) row),
    ``offsets`` (E, 3) per element, ``times`` (T,).  Component c is
    (d0_c - l_c) - v_c t and the squares add as (x0^2 + x1^2) + x2^2, so the
    (n, E, T) result equals ``np.linalg.norm`` of the broadcast (n, E, T, 3)
    difference bit for bit, without forming it.
    """
    acc = None
    for c in range(3):
        x = (d0[:, c, None] - offsets[:, c])[:, :, None] - v_rel[:, c, None, None] * times
        x *= x
        acc = x if acc is None else np.add(acc, x, out=acc)
    return np.sqrt(acc, out=acc)


def _los_norms(link, d0_los: np.ndarray, times) -> np.ndarray:
    """|D0 + (v_rx - v_tx) t| of LoS vectors ``d0_los`` (m, 3); shape (m, T).

    ``link`` is a realization or its ``LinkEnds``: only the velocities are read.
    """
    # d - (v_tx - v_rx) t equals d + (v_rx - v_tx) t exactly
    return _side_norms(d0_los, (link.v_tx - link.v_rx)[None], _ORIGIN, times)[:, 0, :]


def ray_path_lengths(real: ClusterRealization, tx_element: int, rx_element: int,
                     times) -> np.ndarray:
    """Geometric path length |d_tx| + |d_rx| per ray; shape (n_rays, n_times)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rays = real.rays
    l_tx = element_offset(real.tx_layout, tx_element)[None]
    l_rx = element_offset(real.rx_layout, rx_element)[None]
    return (_side_norms(rays["d0_tx"], rays["v_rel_tx"], l_tx, times)
            + _side_norms(rays["d0_rx"], rays["v_rel_rx"], l_rx, times))[:, 0, :]


def ray_delays(real: ClusterRealization, tx_element: int, rx_element: int,
               times) -> np.ndarray:
    """Ray delays path/c + tau_v; shape (n_rays, n_times)."""
    d = ray_path_lengths(real, tx_element, rx_element, times)
    return d / SPEED_OF_LIGHT + real.rays["tau_v"][:, None]


def ray_path_rates(real: ClusterRealization, tx_element: int, rx_element: int,
                   t: float) -> np.ndarray:
    """Analytic d/dt of each ray's path length at time t, m/s, shape (n_rays,).

    d|a - v t|/dt = -v . (a - v t)/|a - v t| per side.
    """
    rays = real.rays
    out = np.zeros(real.num_rays)
    for d0, v_rel, layout, elem in (
        (rays["d0_tx"], rays["v_rel_tx"], real.tx_layout, tx_element),
        (rays["d0_rx"], rays["v_rel_rx"], real.rx_layout, rx_element),
    ):
        offset = element_offset(layout, elem)
        diff = d0 - offset - v_rel * t
        norm = _side_norms(d0, v_rel, offset[None], np.array([t]))[:, 0, 0]
        out += -np.einsum("ij,ij->i", v_rel, diff) / norm
    return out


def los_vector(real: ClusterRealization, tx_element: int, rx_element: int,
               times) -> np.ndarray:
    """LoS vector D(t) between the two elements; shape (n_times, 3)."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    d0 = (real.rx_ref - real.tx_ref
          - element_offset(real.tx_layout, tx_element)
          + element_offset(real.rx_layout, rx_element))
    return d0 + (real.v_rx - real.v_tx) * times[:, None]


def los_distance(real: ClusterRealization, tx_element: int, rx_element: int,
                 times) -> np.ndarray:
    return np.linalg.norm(los_vector(real, tx_element, rx_element, times), axis=-1)


def los_delay(real: ClusterRealization, tx_element: int, rx_element: int,
              t: float) -> float:
    """LoS propagation delay |D(t)|/c, seconds."""
    return float(los_distance(real, tx_element, rx_element, t)[0] / SPEED_OF_LIGHT)


def ray_powers_at(real: ClusterRealization, delays: np.ndarray,
                  visible: np.ndarray) -> np.ndarray:
    """Normalized ray powers exp(-tau/gamma) over the visible set.

    ``delays`` is (n_rays, n_times), ``visible`` a boolean (n_rays,) mask.
    Powers of invisible rays are zero; each time column sums to 1 (or 0 when
    nothing is visible).
    """
    w = np.exp(-delays / real.gamma_ds) * visible[:, None]
    total = w.sum(axis=0)
    return np.divide(w, total, out=np.zeros_like(w), where=total > 0)


def los_tap(real: ClusterRealization, t: float, tx_element: int = 1,
            rx_element: int = 1) -> RayTap:
    """Unit-power LoS tap of an element pair."""
    tau = los_delay(real, tx_element, rx_element, t)
    phase = float(np.mod(TWO_PI * real.fc_hz * tau, TWO_PI))
    return RayTap(tau, 1.0, phase, -1, -1, True)


def nlos_cir(real: ClusterRealization, t: float, tx_element: int = 1,
             rx_element: int = 1) -> list[RayTap]:
    """NLoS taps of an element pair: one per (visible cluster, ray).

    An empty visible set returns an empty list (deep non-stationarity).
    """
    if real.num_rays == 0:
        return []
    visible = real.visible_rays(tx_element, rx_element)
    delays = ray_delays(real, tx_element, rx_element, t)
    powers = ray_powers_at(real, delays, visible)[:, 0]
    delays = delays[:, 0]
    rays = real.rays
    taps = []
    for i in np.nonzero(visible)[0]:
        phase = float(np.mod(TWO_PI * real.fc_hz * delays[i], TWO_PI))
        taps.append(RayTap(float(delays[i]), float(np.sqrt(powers[i])), phase,
                           int(rays["cluster_ids"][i]), int(rays["ray_ids"][i])))
    return taps


def compose_cir(los: RayTap, nlos: list[RayTap], k_factor: float,
                pair: tuple[int, int], t: float, fc_hz: float) -> SubchannelCIR:
    """Rician combination of the LoS tap and the NLoS tap list."""
    return SubchannelCIR(pair=pair, t=t, k_factor=float(k_factor), fc_hz=fc_hz,
                         los_tap=los, nlos_taps=tuple(nlos))


def subchannel_cir(real: ClusterRealization, t: float, tx_element: int = 1,
                   rx_element: int = 1) -> SubchannelCIR:
    return compose_cir(los_tap(real, t, tx_element, rx_element),
                       nlos_cir(real, t, tx_element, rx_element),
                       real.k_factor, (tx_element, rx_element), t, real.fc_hz)


def transfer_function(cir: SubchannelCIR, f: float = 0.0) -> complex:
    """H(t, f) = sum over weighted taps of a * exp(j 2 pi (f_c - f) tau)."""
    total = 0.0 + 0.0j
    for tap in cir.weighted_taps():
        total += tap.amplitude * np.exp(1j * TWO_PI * (cir.fc_hz - f) * tap.delay)
    return complex(total)


@dataclass(frozen=True)
class FieldBundle:
    """Vectorized per-ray field factors over (swept element, time).

    g[n, e, t] = sqrt(P) * exp(j kappa d) with kappa = 2 pi (f_c - f)/c and d
    the geometric path length (invisible rays zeroed); u[e, t] the LoS phasor
    exp(j kappa D).  ``vlink`` carries the per-ray virtual-delay phasor so
    that transfer values are g * vlink summed over rays.  ``visible`` is the
    (n_rays, E) ray visibility mask.
    """

    g: np.ndarray
    u: np.ndarray
    powers: np.ndarray
    visible: np.ndarray
    vlink: np.ndarray
    k_factor: float

    def transfer(self) -> np.ndarray:
        """Rician-weighted transfer values, shape (n_elements, n_times)."""
        w_los = np.sqrt(self.k_factor / (self.k_factor + 1.0))
        w_nlos = np.sqrt(1.0 / (self.k_factor + 1.0))
        h_nlos = np.einsum("net,n->et", self.g, self.vlink)
        return w_los * self.u + w_nlos * h_nlos


def _fields(real: ClusterRealization, times: np.ndarray, f: float, l_tx: np.ndarray,
            l_rx: np.ndarray, visible: np.ndarray):
    """(g, powers, vlink) of the element offsets ``l_tx`` and ``l_rx``.

    One of the offsets is a single (1, 3) row, the other (E, 3); ``visible``
    is the boolean (n_rays, E) mask.  g and powers are (n_rays, E, T).
    Powers are renormalized over the visible rays of each (element, time).
    """
    rays = real.rays
    kappa = TWO_PI * (real.fc_hz - f) / SPEED_OF_LIGHT
    d = (_side_norms(rays["d0_tx"], rays["v_rel_tx"], l_tx, times)
         + _side_norms(rays["d0_rx"], rays["v_rel_rx"], l_rx, times))
    tau = d / SPEED_OF_LIGHT + rays["tau_v"][:, None, None]
    w = np.exp(-tau / real.gamma_ds) * visible[:, :, None]
    total = w.sum(axis=0)
    powers = np.divide(w, total, out=np.zeros_like(w), where=total > 0)
    g = np.exp(1j * kappa * d)
    g *= np.sqrt(powers)
    g *= visible[:, :, None]
    vlink = np.exp(1j * TWO_PI * (real.fc_hz - f) * rays["tau_v"])
    return g, powers, vlink


def _offsets(link, tx_element: int, rx_element: int, sweep: str | None):
    """Element offsets (l_tx, l_rx): one (1, 3) row each, or every element of the swept side."""
    l_tx = element_offset(link.tx_layout, tx_element)[None]
    l_rx = element_offset(link.rx_layout, rx_element)[None]
    if sweep == "tx":
        l_tx = element_offsets(link.tx_layout)
    elif sweep == "rx":
        l_rx = element_offsets(link.rx_layout)
    elif sweep is not None:
        raise ValueError(f"sweep must be None, 'tx' or 'rx', got {sweep!r}")
    return l_tx, l_rx


def los_phasor(link, times, fc_hz: float, f: float = 0.0, tx_element: int = 1,
               rx_element: int = 1, sweep: str | None = None) -> np.ndarray:
    """LoS phasor exp(j kappa |D(t)|) over (elements, times), shape (E, T).

    ``link`` is a realization or the ``LinkEnds`` of its sub-channel: the LoS
    depends only on the link ends, the element offsets, the times and the
    frequency, never on a trial's draws, so an ensemble computes it once and
    passes it to :func:`ray_field` or :func:`pair_field` as ``u``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    l_tx, l_rx = _offsets(link, tx_element, rx_element, sweep)
    kappa = TWO_PI * (fc_hz - f) / SPEED_OF_LIGHT
    return np.exp(1j * kappa * _los_norms(link, (link.rx_ref - link.tx_ref) - l_tx + l_rx,
                                          times))


def ray_field(real: ClusterRealization, times, f: float = 0.0,
              tx_element: int = 1, rx_element: int = 1,
              sweep: str | None = None, u: np.ndarray | None = None) -> FieldBundle:
    """Compute the field bundle for one pair or for a swept element axis.

    ``sweep`` of "tx"/"rx" evaluates every element on that side (the other
    side stays fixed); None keeps both fixed with a singleton element axis.
    ``u`` is the (E, T) :func:`los_phasor` of the same arguments, computed
    here when not given.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    l_tx, l_rx = _offsets(real, tx_element, rx_element, sweep)
    n_elem = max(l_tx.shape[0], l_rx.shape[0])

    # visibility mask over (rays, swept elements)
    if sweep == real.evolved_side:
        visible = real.visibility.matrix[:, real.rays["cluster_ids"]].T  # (n_rays, E)
    else:
        visible = np.broadcast_to(real.visible_rays(tx_element, rx_element)[:, None],
                                  (real.num_rays, n_elem))
    g, powers, vlink = _fields(real, times, f, l_tx, l_rx, visible)
    if u is None:
        u = los_phasor(real, times, real.fc_hz, f, tx_element, rx_element, sweep)
    return FieldBundle(g=g, u=u, powers=powers, visible=visible, vlink=vlink,
                       k_factor=real.k_factor)


def transfer_values(real: ClusterRealization, times, f: float = 0.0,
                    tx_element: int = 1, rx_element: int = 1,
                    sweep: str | None = None) -> np.ndarray:
    """Rician-weighted H(t, f); shape (n_times,) or (n_elements, n_times)."""
    bundle = ray_field(real, times, f, tx_element, rx_element, sweep)
    h = bundle.transfer()
    return h[0] if sweep is None else h


def pair_field(real: ClusterRealization, times, f: float = 0.0,
               tx_element: int = 1, rx_element: int = 1,
               u: np.ndarray | None = None) -> dict:
    """Single-pair :func:`ray_field` without the element axis or the bundle.

    Returns g (n_rays, T), u (T,), powers (n_rays, T), h (T,) where g and u
    are the NLoS/LoS phasors used by the correlation statistics and h the
    Rician-weighted transfer value; g, u and powers equal ``ray_field``'s at
    element axis 0.  ``u`` is row 0 of the pair's :func:`los_phasor`,
    computed here when not given.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    g, powers, vlink = _fields(
        real, times, f, element_offset(real.tx_layout, tx_element)[None],
        element_offset(real.rx_layout, rx_element)[None],
        real.visible_rays(tx_element, rx_element)[:, None])
    if u is None:
        u = los_phasor(real, times, real.fc_hz, f, tx_element, rx_element)[0]
    g, powers = g[:, 0], powers[:, 0]
    k = real.k_factor
    w_l2, w_n2 = k / (k + 1.0), 1.0 / (k + 1.0)
    h = np.sqrt(w_l2) * u + np.sqrt(w_n2) * (g * vlink[:, None]).sum(axis=0)
    return {"g": g, "u": u, "powers": powers, "h": h, "w_l2": w_l2, "w_n2": w_n2}


CIR_HEADER = ["t", "tx", "rx", "cluster", "ray", "delay_s", "amplitude",
              "phase_rad", "is_los"]


def cir_row_count(real: ClusterRealization, n_times: int) -> int:
    """Rows :func:`cir_columns` returns for ``n_times`` instants.

    One LoS row plus one row per visible ray for every (time, tx, rx).
    """
    matrix = real.visibility.matrix
    rays_per_cluster = np.bincount(real.rays["cluster_ids"], minlength=matrix.shape[1])
    taps = matrix.shape[0] + int(matrix.sum(axis=0) @ rays_per_cluster)
    other = real.rx_layout if real.evolved_side == "tx" else real.tx_layout
    return n_times * other.num_elements * taps


def cir_columns(real: ClusterRealization, times) -> tuple[np.ndarray, ...]:
    """Weighted taps of every (time, tx, rx) as columns in :data:`CIR_HEADER` order.

    Rows run in C order over (t, tx, rx, [LoS, visible rays...]) and hold
    exactly the values of ``subchannel_cir(real, t, tx, rx).weighted_taps()``.
    The path length is separable, d = |d_tx| + |d_rx|, so each side's norms
    are computed per element and time, not per element pair, and on the
    evolved side only for visible rays.  The evolved element axis runs in
    blocks, so no n_rays x E x T temporary is formed; the columns are
    allocated once, at :func:`cir_row_count` rows.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rays = real.rays
    n_rays = real.num_rays
    k = real.k_factor
    w_los, w_nlos = np.sqrt(k / (k + 1.0)), np.sqrt(1.0 / (k + 1.0))
    l_tx, l_rx = real.tx_offsets(), real.rx_offsets()
    n_tx, n_rx = l_tx.shape[0], l_rx.shape[0]
    matrix, ids = real.visibility.matrix, rays["cluster_ids"]
    # slot 0 of each (tx, rx) pair is the LoS tap, slots 1.. the rays
    cluster = np.concatenate([[-1], ids])
    ray = np.concatenate([[-1], rays["ray_ids"]])
    d0_los = real.rx_ref - real.tx_ref

    evolved_tx = real.evolved_side == "tx"
    other = n_rx if evolved_tx else n_tx
    step = max(1, _BLOCK_FLOATS // ((1 + n_rays) * other))
    # blocks of (tx, rx) ranges that are contiguous in C order
    blocks = ([(lo, min(lo + step, n_tx), 0, n_rx) for lo in range(0, n_tx, step)]
              if evolved_tx else
              [(q, q + 1, lo, min(lo + step, n_rx))
               for q in range(n_tx) for lo in range(0, n_rx, step)])

    def pair_norms(side, elements, r, t):
        """|d0 - l - v t| of rays ``r`` seen from ``elements``, pair by pair."""
        diff = rays[f"d0_{side}"][r] - (l_tx if side == "tx" else l_rx)[elements]
        return _side_norms(diff, rays[f"v_rel_{side}"][r], _ORIGIN, t)[:, 0, 0]

    n_rows = cir_row_count(real, times.size)
    out = tuple(np.empty(n_rows, dtype=dt) for dt in (float, int, int, int, int, float,
                                                       float, float, bool))
    pos = 0
    fixed_side = "rx" if evolved_tx else "tx"
    for t in times[:, None]:
        # the fixed side's norms for every ray, (n_rays, other); the evolved
        # side's only where visible
        fixed = _side_norms(rays[f"d0_{fixed_side}"], rays[f"v_rel_{fixed_side}"],
                            l_rx if evolved_tx else l_tx, t)[:, :, 0]
        for tx0, tx1, rx0, rx1 in blocks:
            shape = (tx1 - tx0, rx1 - rx0, 1 + n_rays)
            mask = np.ones(shape, dtype=bool)
            mask[:, :, 1:] = (matrix[tx0:tx1, None, ids] if evolved_tx
                              else matrix[None, rx0:rx1, ids])
            i_tx, i_rx, slot = np.nonzero(mask)
            is_los = slot == 0
            delay = np.empty(slot.size)
            amplitude = np.empty(slot.size)
            los = _los_norms(real, (d0_los - l_tx[tx0:tx1, None, :]
                                    + l_rx[None, rx0:rx1, :]).reshape(-1, 3), t)
            delay[is_los] = los[:, 0] / SPEED_OF_LIGHT
            amplitude[is_los] = w_los
            i, j, r = i_tx[~is_los], i_rx[~is_los], slot[~is_los] - 1
            if evolved_tx:
                d = pair_norms("tx", i + tx0, r, t) + fixed[r, j + rx0]
            else:
                d = fixed[r, i + tx0] + pair_norms("rx", j + rx0, r, t)
            tau = d / SPEED_OF_LIGHT + rays["tau_v"][r]
            w = np.exp(-tau / real.gamma_ds)
            # the normalizer sums the full ray axis, invisible rays as zeros, so
            # its rounding equals the per-pair sum of nlos_cir
            full = np.zeros(shape[:2] + (n_rays,))
            full[i, j, r] = w
            total = full.sum(axis=-1)[i, j]
            powers = np.divide(w, total, out=np.zeros_like(w), where=total > 0)
            delay[~is_los] = tau
            amplitude[~is_los] = w_nlos * np.sqrt(powers)
            end = pos + slot.size
            for col, values in zip(out, (
                    t, i_tx + (tx0 + 1), i_rx + (rx0 + 1), cluster[slot], ray[slot],
                    delay, amplitude, np.mod(TWO_PI * real.fc_hz * delay, TWO_PI),
                    is_los)):
                col[pos:end] = values
            pos = end
    return out
