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

Every ray path length, and the LoS distance, goes through one kernel,
:func:`_norms`: |d0 - l - v t| = sqrt((x0^2 + x1^2) + x2^2) with x_c =
(d0_c - l_c) - v_c t, the order of ``np.linalg.norm(..., axis=-1)``.  The
summation order is part of the output: a last-ulp change in d becomes about
1e-11 rad once multiplied by kappa (about 1300 rad/m at 62 GHz), so the
written CSV bytes move with it.

One tap kernel, :func:`_tap_blocks`, serves every statistic and
``simulate``.  It takes a realization, element pairs as two index arrays and
times.  It reads each pair's visible rays from the sparse visibility entries
(``VisibilityTensor.flat``), once per block of pairs since visibility does
not depend on t, and yields the taps' path lengths, normalized powers and
phasors over the block's times at once.  A block's pairs x rays x times stay
within ``_BLOCK_FLOATS``, so its memory does not grow with the array.

This module owns the taps, their :class:`TapBlock` format and the blocking
policy: no other module reads a block.  The bound is a memory knob and never
an output's: every function below returns the same bits for any
``_BLOCK_FLOATS`` (a tier-1 test runs every subcommand at tiny bounds).  The
rest of the package reads the taps through

- :func:`subchannel_taps`: the CIR columns that ``simulate`` writes and the
  transfer matrix that ``assembly.cascade`` combines;
- :func:`stacked_phasors`: the dense stacked phasors x and transfer values h
  of element 1's sweep, which ``stats`` contracts into the full-IRS tensors;
- :func:`row_0_tap_sums`: per-pair sums over the taps of element 1's sweep,
  row 0 of the same contractions, for the sub-channel ACF and spatial CCF;
- :func:`element_1_taps`: the delays, powers and path rates of element pair
  (1, 1) over a time grid, for the Doppler and delay spreads;
- :func:`tap_block_bytes`: the bytes of one :func:`row_0_tap_sums` block,
  which the ``ccf`` memory check predicts.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .clusters import ClusterRealization
from .geometry import SPEED_OF_LIGHT, element_offset

TWO_PI = 2.0 * np.pi

# cap on pairs x rays x times of a _tap_blocks block, the float64 count of its
# zero-padded normalizer.  On the 128 x 128 config's BI clusters one subchannel_taps
# pass at one time took 16.1 s at 0.5M, 8.2 s at 2M and 7.2 s at 4M (its columns,
# about 420 MB, set the peak at each); at 2M a 32 x 32 surface peaks under 100 MB
# (tracemalloc) with its columns
_BLOCK_FLOATS = 2_000_000
# bytes per visible tap and time of a row_0_tap_sums block that its arrays hold
# at once: d, P and g of the taps, the three stacked products summed per pair
# and their index (about ten complex arrays)
_TAP_BYTES = 160


def rician_weights(k_factor: float) -> tuple[float, float]:
    """Rician weights sqrt(K/(K+1)) of the LoS and sqrt(1/(K+1)) of the rays."""
    return np.sqrt(k_factor / (k_factor + 1.0)), np.sqrt(1.0 / (k_factor + 1.0))


def _norms(diff: np.ndarray, v: np.ndarray, t) -> np.ndarray:
    """|diff - v t| taken one component at a time, for any broadcast shapes.

    Component c is diff[..., c] - v[..., c] t and the squares add as (x0^2 +
    x1^2) + x2^2, the order of ``np.linalg.norm(..., axis=-1)``, so the result
    equals the norm of the broadcast difference bit for bit, without forming
    it; ``t`` carries the time axis where the result should have it.
    """
    acc = None
    for c in range(3):
        x = diff[..., c] - v[..., c] * t
        x *= x
        acc = x if acc is None else np.add(acc, x, out=acc)
    return np.sqrt(acc, out=acc)


def _sweep_pairs(link, sweep: str | None) -> tuple[np.ndarray, np.ndarray]:
    """0-based (tx, rx) element indices of element 1 against every element of the swept side.

    ``sweep`` None gives the one pair (1, 1); "tx" or "rx" pairs each
    element of that side with element 1 of the other.
    """
    n = 1 if sweep is None else getattr(link, f"{sweep}_layout").num_elements
    fixed, swept = np.zeros(n, dtype=int), np.arange(n)
    return (swept, fixed) if sweep == "tx" else (fixed, swept)


def _los_norms(link, tx: np.ndarray, rx: np.ndarray, times: np.ndarray) -> np.ndarray:
    """|D(t)| of the element pairs (tx[p], rx[p]) (0-based), shape (T, P).

    ``link`` is a realization or its ``LinkEnds``; D(t) = D0 - l_tx + l_rx -
    (v_tx - v_rx) t, which equals D0 - l_tx + l_rx + (v_rx - v_tx) t exactly.
    """
    d0 = (link.rx_ref - link.tx_ref) - link.tx_layout.offsets[tx] + link.rx_layout.offsets[rx]
    return _norms(d0, link.v_tx - link.v_rx, times[:, None])


def los_phasor(link, times, fc_hz: float, f: float = 0.0,
               sweep: str | None = None) -> np.ndarray:
    """LoS phasor exp(j kappa |D(t)|) of element 1's pairs over times, shape (E, T).

    ``link`` is a realization or the ``LinkEnds`` of its sub-channel: the LoS
    depends only on the link ends, the element offsets, the times and the
    frequency, never on a trial's draws, so an ensemble computes it once.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    kappa = TWO_PI * (fc_hz - f) / SPEED_OF_LIGHT
    return np.exp(1j * kappa * _los_norms(link, *_sweep_pairs(link, sweep), times)).T.copy()


def _rays_per_cluster(real: ClusterRealization) -> int:
    """Rays of each cluster (a cluster set is rectangular); 0 for a set without clusters."""
    return real.num_rays // max(len(real.clusters), 1)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges [starts[i], starts[i] + counts[i]) joined, and the i each value is from."""
    owner = np.repeat(np.arange(counts.size), counts)
    return np.arange(owner.size) + (starts - np.cumsum(counts) + counts)[owner], owner


def _tap_norms(d0, v_rel, offsets, elements, pair, ray, times) -> np.ndarray:
    """|d0 - l - v_rel t| of each tap (pair, ray) on one side, shape (T, K).

    Formed per tap or, where that is less work, for every ray of every
    pair's element (or of the one element all pairs share) and gathered:
    both give the same bits.
    """
    if (elements == elements[0]).all():
        elements, pair = elements[:1], np.zeros_like(pair)
    if elements.size * d0.shape[0] > 2 * ray.size:
        return _norms(d0[ray] - offsets[elements[pair]], v_rel[ray], times[:, None])
    return _norms(d0 - offsets[elements, None], v_rel, times[:, None, None])[:, pair, ray]


def _block_steps(n_rays: float, n_times: int) -> tuple[int, int]:
    """Pairs and times of a :func:`_tap_blocks` block: pairs x rays x times <= _BLOCK_FLOATS.

    All times go in one block unless a single pair's rays over them exceed the
    bound; ``n_rays`` may be an expected (float) count.
    """
    t_step = max(1, min(n_times, int(_BLOCK_FLOATS // max(1, n_rays))))
    return max(1, int(_BLOCK_FLOATS // (max(1, n_rays) * t_step))), t_step


def _normalized(w: np.ndarray, pair: np.ndarray, ray: np.ndarray, n_pairs: int,
                n_rays: int) -> np.ndarray:
    """Tap weights w (T, K) divided by their pair's sum at each time; 0 where it is 0.

    Each sum runs pairwise over the full ray axis, zero-padded where a ray is
    not visible, so it rounds as a sum over all the pair's rays does.
    """
    full = np.zeros((w.shape[0], n_pairs, n_rays))
    full[:, pair, ray] = w
    total = full.sum(axis=-1)[:, pair]
    return np.divide(w, total, out=np.zeros(w.shape), where=total > 0)


class TapBlock(NamedTuple):
    """The visible NLoS taps of a block of element pairs over a block of times.

    ``pairs`` and ``steps`` slice the caller's pairs and times.  Tap k has
    its pair ``pair[k]`` (within the block) and ray ``ray[k]``, sorted by
    pair and then ray.  ``d``, ``power`` and ``g`` are (T_b, K): the path
    length |d_tx| + |d_rx|, the power P normalized over the pair's visible
    rays at each time, and the phasor sqrt(P) exp(j kappa d).
    """

    pairs: slice
    steps: slice
    pair: np.ndarray
    ray: np.ndarray
    d: np.ndarray
    power: np.ndarray
    g: np.ndarray


def _tap_blocks(real: ClusterRealization, times: np.ndarray, f: float,
                tx: np.ndarray, rx: np.ndarray):
    """The taps of the element pairs (tx[p], rx[p]), one :class:`TapBlock` per block.

    ``tx`` and ``rx`` are 0-based element indices, one per pair.  Blocks of
    pairs and times keep pairs x rays x times within ``_BLOCK_FLOATS`` and
    run pair-major.
    Visibility does not depend on t, so the taps are found once per block of
    pairs.
    """
    rays, n_rays = real.rays, real.num_rays
    kappa = TWO_PI * (real.fc_hz - f) / SPEED_OF_LIGHT
    # a pair's visible clusters are the entries [e n, (e + 1) n) of the sorted
    # flat visibility, e its evolved-side element; cluster c's rays are
    # c m ... c m + m - 1
    n, flat = real.visibility.n_clusters, real.visibility.flat
    evolved = tx if real.evolved_side == "tx" else rx
    m = _rays_per_cluster(real)
    p_step, t_step = _block_steps(n_rays, times.size)
    for p0 in range(0, tx.size, p_step):
        pairs = slice(p0, p0 + p_step)
        b_tx, b_rx = tx[pairs], rx[pairs]
        if flat.size == real.visibility.shape[0] * real.visibility.shape[1] * n:
            # every element sees every cluster: the taps are the (pair, ray)
            # grid, without the lookup (about 6 % of an acf-element trial)
            pair, ray = np.divmod(np.arange(b_tx.size * n_rays), n_rays)
        else:
            lo, hi = np.searchsorted(flat, [evolved[pairs] * n, (evolved[pairs] + 1) * n])
            entry, entry_pair = _ranges(lo, hi - lo)
            ray = ((flat[entry] % n)[:, None] * m + np.arange(m)).ravel()
            pair = np.repeat(entry_pair, m)
        for t0 in range(0, times.size, t_step):
            steps = slice(t0, t0 + t_step)
            t = times[steps]
            d = (_tap_norms(rays["d0_tx"], rays["v_rel_tx"], real.tx_layout.offsets, b_tx,
                            pair, ray, t)
                 + _tap_norms(rays["d0_rx"], rays["v_rel_rx"], real.rx_layout.offsets, b_rx,
                              pair, ray, t))
            power = _normalized(
                np.exp(-(d / SPEED_OF_LIGHT + rays["tau_v"][ray]) / real.gamma_ds),
                pair, ray, b_tx.size, n_rays)
            g = np.exp(1j * kappa * d)
            g *= np.sqrt(power)
            yield TapBlock(pairs, steps, pair, ray, d, power, g)


def _pair_sums(values: np.ndarray, pair: np.ndarray, n_pairs: int) -> np.ndarray:
    """Sums of (..., K) tap values per pair, shape (..., n_pairs).

    ``np.add.at`` adds a pair's taps in tap order, from zero, so a pair
    without a tap sums to 0.
    """
    lead = values.shape[:-1]
    out = np.zeros(int(np.prod(lead)) * n_pairs, dtype=values.dtype)
    np.add.at(out, (np.arange(out.size // n_pairs)[:, None] * n_pairs + pair).ravel(),
              values.ravel())
    return out.reshape(lead + (n_pairs,))


def _vlink(real: ClusterRealization, f: float) -> np.ndarray:
    """Per-ray virtual-link phasor exp(j 2 pi (f_c - f) tau_v), shape (n_rays,)."""
    return np.exp(1j * TWO_PI * (real.fc_hz - f) * real.rays["tau_v"])


# ---------------------------------------------------------------------------
# the reductions of the taps that the statistics read; none of them yields a
# block, and each is independent of how the blocks split

def stacked_phasors(real: ClusterRealization, times, f: float, sweep: str | None,
                    u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Transfer values h (E, T) and stacked phasors x (1 + N, E, T) of one sub-channel.

    x is the one definition behind every analytical correlation: its row 0
    is the LoS phasor ``u`` (E, T) of element 1's pairs (see ``los_phasor``)
    weighted sqrt(K/(K+1)), row 1 + n ray n's tap phasor sqrt(P) exp(j kappa
    d) weighted sqrt(1/(K+1)), 0 where the ray is not visible.  A
    correlation is a contraction of x with its conjugate over the first axis.
    h = x[0] + sqrt(1/(K+1)) sum_n sqrt(P_n) exp(j kappa d_n) vlink_n, the
    rays added in ray order, as :func:`subchannel_taps` adds them.
    """
    x = np.zeros((1 + real.num_rays,) + u.shape, dtype=complex)
    for b in _tap_blocks(real, np.atleast_1d(times), f, *_sweep_pairs(real, sweep)):
        x[1 + b.ray, b.pair + b.pairs.start, b.steps] = b.g.T
    # row 0 is still zero and comes first, so the sum over the ray axis adds
    # the rays one by one from zero; summed as floats, a column of one pair
    # at one time is not summed pairwise
    terms = x * np.concatenate([[0.0], _vlink(real, f)])[:, None, None]
    w_los, w_nlos = rician_weights(real.k_factor)
    h = w_los * u + w_nlos * terms.view(float).sum(axis=0).view(complex)
    x[0] = w_los * u
    x[1:] *= w_nlos
    return h, x


def row_0_tap_sums(real: ClusterRealization, times: np.ndarray, f: float,
                   sweep: str | None) -> np.ndarray:
    """Per-pair tap sums of element 1's sweep against element 1 at times[0], (3, T, E).

    With x_n = sqrt(1/(K+1)) sqrt(P_n) exp(j kappa d_n), the tap phasor of
    :func:`stacked_phasors` row 1 + n, and x_ref the column of x of element
    pair 1 at times[0], the three sums over each pair's visible taps, at
    every time, are

    - sum_n sqrt(P_n) exp(j kappa d_n) vlink_n, h's NLoS part before its weight;
    - sum_n x_ref[n] conj(x_n), the NLoS part of row 0 of the CCF contraction;
    - sum_n |x_n|^2 (real, held as complex), that of the equal-time one.

    Each pair's taps are added in ray order from zero.  x_ref is read from
    the first block, whose pair 0 is element 1 and whose first time is
    times[0], so one kernel pass serves the anchor and the sweep, and no
    array larger than a block's taps or the (3, T, E) sums forms: the work
    and memory are O(visible taps x T).
    """
    tx, rx = _sweep_pairs(real, sweep)
    w_nlos, vlink = rician_weights(real.k_factor)[1], _vlink(real, f)
    sums = np.empty((3, times.size, tx.size), dtype=complex)
    x_ref = np.zeros(real.num_rays, dtype=complex)
    for b in _tap_blocks(real, times, f, tx, rx):
        xt = w_nlos * b.g
        if not (b.pairs.start or b.steps.start):   # the first block: pair 0 at times[0]
            x_ref[b.ray[b.pair == 0]] = xt[0, b.pair == 0]
        sums[:, b.steps, b.pairs] = _pair_sums(
            np.stack([b.g * vlink[b.ray], x_ref[b.ray] * np.conj(xt),
                      xt.real ** 2 + xt.imag ** 2]), b.pair, tx[b.pairs].size)
    return sums


def element_1_taps(real: ClusterRealization, times):
    """(ray, delay, power, rate) of element pair (1, 1)'s visible taps over ``times``.

    One tap-kernel call over all the times.  ``ray`` (K,) holds the rays'
    indices in ray order, one set for every time since visibility does not
    depend on t.  ``delay``, ``power`` and ``rate`` are (T, K): the delay
    |d|/c + tau_v, the normalized power and the path rate d|d|/dt in m/s.
    The path rate is d|a - v t|/dt = -v . (a - v t)/|a - v t| summed over
    the two sides, with a = d0 - l_1 and v the ray's relative velocity on
    that side.  The dot product adds its components as (v0 x0 + v2 x2) +
    v1 x1, the order of numpy's ``einsum("ij,ij->i")``.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    blocks = list(_tap_blocks(real, times, 0.0, *_sweep_pairs(real, None)))
    ray, rays = blocks[0].ray, real.rays    # one pair: blocks split only the times
    d = np.concatenate([b.d for b in blocks])
    rate = np.zeros(d.shape)
    for side, layout in (("tx", real.tx_layout), ("rx", real.rx_layout)):
        a, v = rays[f"d0_{side}"][ray] - element_offset(layout, 1), rays[f"v_rel_{side}"][ray]
        x = a - v * times[:, None, None]
        dot = (v[:, 0] * x[..., 0] + v[:, 2] * x[..., 2]) + v[:, 1] * x[..., 1]
        rate -= dot / _norms(a, v, times[:, None])
    return (ray, d / SPEED_OF_LIGHT + rays["tau_v"][ray],
            np.concatenate([b.power for b in blocks]), rate)


def tap_block_bytes(n_rays: float, n_taps: float, n_pairs: int, n_times: int) -> float:
    """Bytes a :func:`row_0_tap_sums` block holds, for ``n_pairs`` pairs over ``n_times`` times.

    A block spans the pairs and times of :func:`_block_steps`, at most
    ``n_pairs``: 8 bytes per pair, ray and time for the zero-padded
    normalizer and ``_TAP_BYTES`` per visible tap and time, at ``n_rays``
    rays and ``n_taps`` visible taps per pair (either may be an expected,
    float count).
    """
    pairs, steps = _block_steps(n_rays, n_times)
    return min(pairs, n_pairs) * steps * (8 * n_rays + _TAP_BYTES * n_taps)


CIR_HEADER = ["t", "tx", "rx", "cluster", "ray", "delay_s", "amplitude",
              "phase_rad", "is_los"]


def cir_row_count(real: ClusterRealization, n_times: int) -> int:
    """CIR rows :func:`subchannel_taps` forms for ``n_times`` instants.

    One LoS row plus one row per visible ray for every (time, tx, rx),
    counted from the visible (element, cluster) entries, so the dense
    visibility view is not built.
    """
    m_x, m_y, _ = real.visibility.shape
    taps = m_x * m_y + real.visibility.flat.size * _rays_per_cluster(real)
    other = real.rx_layout if real.evolved_side == "tx" else real.tx_layout
    return n_times * other.num_elements * taps


def subchannel_taps(real: ClusterRealization, times, f: float = 0.0
                    ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The visible taps of every (time, tx, rx): CIR columns and transfer matrix.

    The taps of :func:`_tap_blocks`, over every (tx, rx) pair in C order,
    and each pair's LoS tap (d = |D|, power 1) fill

    - the columns in :data:`CIR_HEADER` order, allocated once at
      :func:`cir_row_count` rows.  Rows run in C order over (t, tx, rx,
      [LoS, visible rays...]) and hold exactly the values of the per-tap test
      oracle ``tests/cir_oracle.py``, ``weighted_taps(real, t, tx, rx)``;
    - the Rician-weighted transfer matrix of every time, shape (T, n_rx,
      n_tx): the Fourier sum of those taps, per element pair w_los e^{j kappa
      |D|} + w_nlos sum_n sqrt(P_n) e^{j kappa d_n} vlink_n, the rays of a
      pair added in ray order.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    rays = real.rays
    n_tx, n_rx = real.tx_layout.num_elements, real.rx_layout.num_elements
    tx, rx = np.divmod(np.arange(n_tx * n_rx), n_rx)
    w_los, w_nlos = rician_weights(real.k_factor)
    kappa = TWO_PI * (real.fc_hz - f) / SPEED_OF_LIGHT
    vlink = _vlink(real, f)
    # rows per time, and the first row of the block's pairs at each time
    per_time, lo = cir_row_count(real, 1), 0
    columns = tuple(np.empty(times.size * per_time, dtype=dt)
                    for dt in (float, int, int, int, int, float, float, float, bool))
    h = np.empty((times.size, n_tx * n_rx), dtype=complex)

    for b in _tap_blocks(real, times, f, tx, rx):
        b_tx, b_rx = tx[b.pairs], rx[b.pairs]
        d_los = _los_norms(real, b_tx, b_rx, times[b.steps])
        np.multiply(b.g, vlink[b.ray], out=b.g)
        h[b.steps, b.pairs] = (w_los * np.exp(1j * kappa * d_los)
                               + w_nlos * _pair_sums(b.g, b.pair, b_tx.size))

        # the block's rows at each time: pair by pair, its LoS row and its taps
        is_los = np.ones(b_tx.size + b.pair.size, dtype=bool)
        is_los[np.arange(b.pair.size) + b.pair + 1] = False
        row_pair = np.cumsum(is_los) - 1
        delay = np.empty((b.d.shape[0], row_pair.size))
        delay[:, is_los] = d_los / SPEED_OF_LIGHT
        delay[:, ~is_los] = b.d / SPEED_OF_LIGHT + rays["tau_v"][b.ray]
        amplitude = np.full(delay.shape, w_los)
        amplitude[:, ~is_los] = w_nlos * np.sqrt(b.power)
        cluster, ray_id = np.full((2, row_pair.size), -1)
        cluster[~is_los], ray_id[~is_los] = rays["cluster_ids"][b.ray], rays["ray_ids"][b.ray]
        for col, values in zip(columns, (
                times[b.steps, None], b_tx[row_pair] + 1, b_rx[row_pair] + 1, cluster, ray_id,
                delay, amplitude, np.mod(TWO_PI * real.fc_hz * delay, TWO_PI), is_los)):
            col.reshape(times.size, per_time)[b.steps, lo:lo + row_pair.size] = values
        if b.steps.stop >= times.size:   # the block's last times: the next block's pairs follow
            lo += row_pair.size
    return columns, h.reshape(-1, n_tx, n_rx).transpose(0, 2, 1)
