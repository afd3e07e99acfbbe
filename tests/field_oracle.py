"""Dense per-ray field of a sub-channel, the oracle of the tap kernel.

Path lengths come from ``np.linalg.norm`` of the broadcast differences, over
every ray and element, visible or not; invisible rays get zero power and a
zero phasor.  The sums over rays follow the kernel's definitions, so the
results are comparable bit for bit: a power normalizer and a transfer value
both add the rays one by one in ray order, from zero.  An invisible ray adds
an exact zero, so each (element, time) sum is that of its visible rays
alone.  The CIR export has its own per-tap oracle in ``cir_oracle.py``.
``ray_path_rates`` is the oracle of the path rates of
``smallscale.element_1_taps``.
"""

import numpy as np

from irs_gbsm.geometry import SPEED_OF_LIGHT, element_offset


def visible_rays(real, tx_element: int, rx_element: int) -> np.ndarray:
    """Rays visible to an element pair: its evolved-side element's row of the dense grid."""
    element = tx_element if real.evolved_side == "tx" else rx_element
    return real.visibility.matrix[element - 1, real.rays["cluster_ids"]]


def _in_ray_order(terms):
    """Sum over the leading (ray) axis, one ray after another from zero."""
    total = np.zeros(terms.shape[1:], dtype=terms.dtype)
    for term in terms:
        total = total + term
    return total


def _normalized(w):
    """w over (rays, ...), 0 where a ray is not visible, over each column's ray-order sum."""
    total = _in_ray_order(w)
    return np.divide(w, total, out=np.zeros_like(w), where=total > 0)


def reference_single_pair(real, times, f=0.0, tx_element=1, rx_element=1):
    """One element pair's rays and transfer value, by np.linalg.norm of (n, T, 3) differences.

    Returns the path lengths ``d``, delays d/c + tau_v and powers of every ray
    (n, T), the visible mask (n,), g, the LoS phasor u and h.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rays = real.rays
    kappa = 2.0 * np.pi * (real.fc_hz - f) / SPEED_OF_LIGHT
    l_tx = element_offset(real.tx_layout, tx_element)
    l_rx = element_offset(real.rx_layout, rx_element)
    k = real.k_factor
    w_l2, w_n2 = k / (k + 1.0), 1.0 / (k + 1.0)
    diff_los = ((real.rx_ref - real.tx_ref - l_tx + l_rx)
                + (real.v_rx - real.v_tx) * times[:, None])
    u = np.exp(1j * kappa * np.linalg.norm(diff_los, axis=-1))
    if real.num_rays == 0:
        empty = np.zeros((0, times.size))
        return {"d": empty, "delays": empty, "powers": empty, "visible": np.zeros(0, bool),
                "g": empty.astype(complex), "u": u, "h": np.sqrt(w_l2) * u}
    visible = visible_rays(real, tx_element, rx_element)
    diff_tx = (rays["d0_tx"] - l_tx)[:, None, :] - rays["v_rel_tx"][:, None, :] \
        * times[None, :, None]
    diff_rx = (rays["d0_rx"] - l_rx)[:, None, :] - rays["v_rel_rx"][:, None, :] \
        * times[None, :, None]
    d = np.linalg.norm(diff_tx, axis=-1) + np.linalg.norm(diff_rx, axis=-1)
    tau = d / SPEED_OF_LIGHT + rays["tau_v"][:, None]
    powers = _normalized(np.exp(-tau / real.gamma_ds) * visible[:, None])
    g = np.sqrt(powers) * np.exp(1j * kappa * d)
    vlink = np.exp(1j * 2.0 * np.pi * (real.fc_hz - f) * rays["tau_v"])
    h = np.sqrt(w_l2) * u + np.sqrt(w_n2) * _in_ray_order(g * vlink[:, None])
    return {"d": d, "delays": tau, "powers": powers, "visible": visible, "g": g, "u": u,
            "h": h}


def reference_ray_field(real, times, f=0.0, tx_element=1, rx_element=1, sweep=None):
    """The field over one pair or a swept element axis, from blocked norms.

    Norms of blocked (n_rays, E, T, 3) differences by np.linalg.norm; returns
    g, u and powers (n_rays, E, T), the visible mask (n_rays, E) and the
    Rician-weighted transfer values (E, T).  ``sweep`` "tx"/"rx" takes every
    element of that side against the other side's fixed element.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rays = real.rays
    kappa = 2.0 * np.pi * (real.fc_hz - f) / SPEED_OF_LIGHT
    l_tx = element_offset(real.tx_layout, tx_element)[None, :]
    l_rx = element_offset(real.rx_layout, rx_element)[None, :]
    if sweep == "tx":
        l_tx = real.tx_layout.offsets
    elif sweep == "rx":
        l_rx = real.rx_layout.offsets
    n_elem = max(l_tx.shape[0], l_rx.shape[0])
    n_rays, n_t = real.num_rays, times.size
    if n_rays == 0:
        visible = np.zeros((0, n_elem), dtype=bool)
    elif sweep == real.evolved_side:
        visible = real.visibility.matrix[:, rays["cluster_ids"]].T
    else:
        visible = np.broadcast_to(visible_rays(real, tx_element, rx_element)[:, None],
                                  (n_rays, n_elem))

    def side_norms(d0, v_rel, offs):
        if offs.shape[0] == 1:
            diff = (d0 - offs[0])[:, None, :] - v_rel[:, None, :] * times[None, :, None]
            return np.linalg.norm(diff, axis=-1)[:, None, :]
        out = np.empty((n_rays, offs.shape[0], n_t))
        step = max(1, int(12_000_000 // max(1, n_rays * n_t * 3)))
        for lo in range(0, offs.shape[0], step):
            block = offs[lo: lo + step]
            diff = (d0[:, None, :] - block[None, :, :])[:, :, None, :] \
                - v_rel[:, None, None, :] * times[None, None, :, None]
            out[:, lo: lo + block.shape[0], :] = np.linalg.norm(diff, axis=-1)
        return out

    if n_rays:
        d = (side_norms(rays["d0_tx"], rays["v_rel_tx"], l_tx)
             + side_norms(rays["d0_rx"], rays["v_rel_rx"], l_rx))
        if d.shape[1] == 1 and n_elem > 1:
            d = np.broadcast_to(d, (n_rays, n_elem, n_t))
        tau = d / SPEED_OF_LIGHT + rays["tau_v"][:, None, None]
        powers = _normalized(np.exp(-tau / real.gamma_ds) * visible[:, :, None])
        g = np.sqrt(powers) * np.exp(1j * kappa * d) * visible[:, :, None]
        vlink = np.exp(1j * 2.0 * np.pi * (real.fc_hz - f) * rays["tau_v"])
    else:
        powers = np.zeros((0, n_elem, n_t))
        g = np.zeros((0, n_elem, n_t), dtype=complex)
        vlink = np.zeros(0, dtype=complex)
    d0_los = (real.rx_ref - real.tx_ref) - l_tx + l_rx
    if d0_los.shape[0] == 1 and n_elem > 1:
        d0_los = np.broadcast_to(d0_los, (n_elem, 3))
    d_los = np.linalg.norm(
        d0_los[:, None, :] + (real.v_rx - real.v_tx) * times[None, :, None], axis=-1)
    u = np.exp(1j * kappa * d_los)
    k = real.k_factor
    transfer = (np.sqrt(k / (k + 1.0)) * u
                + np.sqrt(1.0 / (k + 1.0)) * _in_ray_order(g * vlink[:, None, None]))
    return {"g": g, "u": u, "powers": powers, "transfer": transfer, "visible": visible}


def ray_path_rates(real, tx_element: int, rx_element: int, t: float) -> np.ndarray:
    """Analytic d/dt of every ray's path length at time t, m/s, shape (n_rays,).

    d|a - v t|/dt = -v . (a - v t)/|a - v t| per side, visible or not, the
    dot product by ``np.einsum`` and the norm by ``np.linalg.norm``.
    """
    rays = real.rays
    out = np.zeros(real.num_rays)
    for side, layout, element in (("tx", real.tx_layout, tx_element),
                                  ("rx", real.rx_layout, rx_element)):
        v = rays[f"v_rel_{side}"]
        diff = rays[f"d0_{side}"] - element_offset(layout, element) - v * t
        out -= np.einsum("ij,ij->i", v, diff) / np.linalg.norm(diff, axis=-1)
    return out
