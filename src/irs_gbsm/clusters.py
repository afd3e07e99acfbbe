"""Twin-cluster generation, scatterer placement, and birth-death evolution.

Each propagation path of a sub-channel sees a first-bounce cluster near the
transmitter and a last-bounce cluster near the receiver; everything between
them is a virtual link with an exponentially distributed extra delay.
Scatterers are placed i.i.d. Gaussian in a cluster-local frame and rotated
into world coordinates.

A realization's clusters form one :class:`ClusterSet`: arrays with a leading
cluster axis (C, ...), scatterers (C, M_n, 3).  The per-ray arrays of
``ClusterRealization.rays`` are reshapes and repeats of it, in (cluster, ray)
order; iterating the set yields per-cluster :class:`ClusterPair` views.

Realizations are built a chunk at a time (:func:`realize_subchannels`; a
single realization is the chunk of one).  The random draws stay on each
trial's own generator, in the order a realization built alone makes them, so
trial k's realization does not depend on which trials share its chunk.  What
follows the draws is elementwise or per cluster (center and scatterer
geometry, velocities, ray arrays) and runs once over every cluster of the
chunk: at about ten clusters per realization that work is set by numpy's
per-call overhead, not by arithmetic.  Each realization's arrays
are views into the chunk's.  The ensemble keeps chunks small (16 trials),
because all of a chunk's realizations are alive at once.

Space-domain non-stationarity: which clusters are visible to which array
element follows a sequential birth-death chain along the array.  The
per-step survival probability is p = exp(-rate * delta * cos(beta_E) / D_C)
and new clusters arrive Poisson with mean (lambda_B / lambda_D) * (1 - p);
treating p as survival (not death) is what keeps the expected visible count
at lambda_B / lambda_D for every element.  On the planar IRS the chain runs
along the X direction first; each row's result seeds an independent chain
along Y.  Visibility is sparse (about 0.3 % of the cells of a 128 x 128
surface), so a :class:`VisibilityTensor` holds only the sorted flat indices
of its visible (x, y, cluster) entries; the dense boolean grid is a view
built when first read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import ClusterParams, ScenarioConfig
from .geometry import (
    SPEED_OF_LIGHT,
    RotationAngles,
    TerminalLayout,
    rotation_matrices,
)


@dataclass(frozen=True)
class ClusterPair:
    """One twin cluster: paired first/last-bounce scatterer sets.

    A per-cluster view of a :class:`ClusterSet`, made when the set is iterated.
    """

    id: int
    center_a: np.ndarray          # first-bounce center, GCS meters
    center_z: np.ndarray          # last-bounce center, GCS meters
    angles_a: RotationAngles
    angles_z: RotationAngles
    sigma: tuple[float, float, float]
    scatter_a: np.ndarray         # (M_n, 3) GCS positions
    scatter_z: np.ndarray         # (M_n, 3) GCS positions
    virtual_delay: float          # seconds, >= 0
    vel_a: np.ndarray             # (3,) m/s, zero vertical component
    vel_z: np.ndarray

    @property
    def num_rays(self) -> int:
        return self.scatter_a.shape[0]


@dataclass(frozen=True)
class ClusterSet:
    """Every twin cluster of a realization, stacked along a leading cluster axis.

    Cluster c has id c.  ``len()`` counts the clusters and iteration yields one
    :class:`ClusterPair` view per cluster.
    """

    center_a: np.ndarray          # (C, 3) first-bounce centers, GCS meters
    center_z: np.ndarray          # (C, 3) last-bounce centers
    angles_a: np.ndarray          # (C, 3) bearing, downtilt, slant, radians
    angles_z: np.ndarray          # (C, 3)
    sigma: tuple[float, float, float]
    scatter_a: np.ndarray         # (C, M_n, 3) GCS positions
    scatter_z: np.ndarray         # (C, M_n, 3)
    virtual_delay: np.ndarray     # (C,) seconds, >= 0
    vel_a: np.ndarray             # (C, 3) m/s, zero vertical component
    vel_z: np.ndarray             # (C, 3)

    def __len__(self) -> int:
        return self.virtual_delay.size

    def __iter__(self):
        for cid in range(len(self)):
            yield ClusterPair(
                id=cid, center_a=self.center_a[cid], center_z=self.center_z[cid],
                angles_a=RotationAngles(*self.angles_a[cid]),
                angles_z=RotationAngles(*self.angles_z[cid]),
                sigma=self.sigma, scatter_a=self.scatter_a[cid],
                scatter_z=self.scatter_z[cid],
                virtual_delay=float(self.virtual_delay[cid]),
                vel_a=self.vel_a[cid], vel_z=self.vel_z[cid])


def _unit_rows(azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    ce = np.cos(elevation)
    return np.stack([ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)], axis=-1)


def _planar_velocity(speed, azimuth: np.ndarray) -> np.ndarray:
    return speed * np.stack([np.cos(azimuth), np.sin(azimuth), np.zeros_like(azimuth)], axis=-1)


def _draw(params: ClusterParams, rng: np.random.Generator, count: int) -> dict:
    """One cluster set's draws from its own generator, as per-side lists.

    The order is fixed: center azimuth, elevation, distance and frame angles
    of side a, the same of side z, both sides' scatterer normals as one
    (2C, M, 3) draw (equal, bit for bit, to side a's (C, M, 3) draw followed
    by side z's), the virtual delays, then each side's velocity azimuth unless
    it is fixed.  A zero-size draw consumes nothing, so an empty set draws
    nothing.
    """
    el_max = math.radians(params.center_elevation_max_deg)
    out: dict = {"az": [], "el": [], "dist": [], "angles": []}
    for _ in range(2):
        out["az"].append(rng.uniform(-np.pi, np.pi, count))
        out["el"].append(rng.uniform(-el_max, el_max, count))
        out["dist"].append(rng.exponential(params.center_distance_mean_m, count))
        out["angles"].append(rng.uniform(-np.pi, np.pi, (count, 3)))
    normals = rng.standard_normal((2 * count, params.rays_per_cluster, 3))
    out["normals"] = [normals[:count], normals[count:]]
    out["tau_v"] = [rng.exponential(params.virtual_delay_mean_ns * 1e-9, count)]
    out["alpha"] = [rng.uniform(-np.pi, np.pi, count) if fixed is None
                    else np.full(count, math.radians(fixed))
                    for fixed in (params.velocity_azimuth_a_deg, params.velocity_azimuth_z_deg)]
    return out


def _ray_arrays(refs, velocities, scatter, vel, tau_v, bounds) -> list[dict]:
    """Per-ray arrays of stacked cluster sets, in (cluster, ray) order.

    ``refs`` and ``velocities`` are the (2, 3) tx/rx link ends, ``scatter``
    (2, C, M, 3), ``vel`` (2, C, 3) and ``tau_v`` (C,) the stacked clusters,
    and set i owns clusters bounds[i]:bounds[i + 1].  Returns one dict of
    ray arrays per set, each a view into arrays over every set's rays.
    """
    m_n = scatter.shape[2]
    n = tau_v.size
    counts = np.diff(bounds)
    d0 = scatter.reshape(2, n * m_n, 3) - refs[:, None, :]
    v_rel = np.repeat(velocities[:, None, :] - vel, m_n, axis=1)
    tau_rays = np.repeat(tau_v, m_n)
    cluster_ids = np.repeat(np.arange(n) - np.repeat(bounds[:-1], counts), m_n)
    ray_ids = np.tile(np.arange(m_n), n)
    sets = []
    for lo, hi in zip(bounds[:-1] * m_n, bounds[1:] * m_n):
        sets.append({"d0_tx": d0[0, lo:hi], "d0_rx": d0[1, lo:hi],
                     "v_rel_tx": v_rel[0, lo:hi], "v_rel_rx": v_rel[1, lo:hi],
                     "tau_v": tau_rays[lo:hi], "cluster_ids": cluster_ids[lo:hi],
                     "ray_ids": ray_ids[lo:hi]})
    return sets


def _build(params: ClusterParams, refs: np.ndarray, velocities: np.ndarray,
           draws: list[dict]) -> list[tuple[ClusterSet, dict]]:
    """Every drawn cluster set and its ray arrays, from one pass over all clusters.

    ``refs`` and ``velocities`` are the (2, 3) tx/rx link ends.  Each set's
    arrays are views into arrays over the clusters of every set; every step
    is elementwise or per cluster, so a set equals the one built alone bit
    for bit.
    """
    sigma = np.asarray(params.sigma_xyz_m, dtype=float)
    if np.any(sigma < 0):
        raise ValueError(f"scatterer sigmas must be >= 0, got {tuple(sigma)}")
    if not draws:
        return []
    m_n = params.rays_per_cluster

    def stacked(key):  # side-major: every set's side a, then every set's side z
        return np.concatenate([x for side in zip(*(d[key] for d in draws)) for x in side])

    bounds = np.cumsum([0] + [d["tau_v"][0].size for d in draws])
    n = int(bounds[-1])
    az, el, dist, alpha = (stacked(key).reshape(2, n) for key in ("az", "el", "dist", "alpha"))
    dist = params.center_distance_min_m + dist
    centers = refs[:, None, :] + dist[..., None] * _unit_rows(az, el)
    angles = stacked("angles")
    rot = rotation_matrices(*angles.T)
    # row-vector LCS -> GCS: p @ R.T + center, per cluster
    scatter = (np.einsum("nmi,nji->nmj", stacked("normals") * sigma, rot)
               + centers.reshape(2 * n, 1, 3)).reshape(2, n, m_n, 3)
    tau_v = stacked("tau_v")
    vel = _planar_velocity(np.array([params.speed_a_mps, params.speed_z_mps])[:, None, None],
                           alpha)
    rays = _ray_arrays(refs, velocities, scatter, vel, tau_v, bounds)
    angles = angles.reshape(2, n, 3)
    out = []
    for lo, hi, set_rays in zip(bounds[:-1], bounds[1:], rays):
        clusters = ClusterSet(
            center_a=centers[0, lo:hi], center_z=centers[1, lo:hi],
            angles_a=angles[0, lo:hi], angles_z=angles[1, lo:hi], sigma=tuple(sigma),
            scatter_a=scatter[0, lo:hi], scatter_z=scatter[1, lo:hi],
            virtual_delay=tau_v[lo:hi], vel_a=vel[0, lo:hi], vel_z=vel[1, lo:hi])
        out.append((clusters, set_rays))
    return out


@dataclass(frozen=True)
class VisibilityTensor:
    """Per-element cluster visibility from the sequential birth-death chain.

    ``shape`` is (m_x, m_y, n_clusters); linear arrays use m_y = 1.  ``flat``
    holds the sorted flat indices of the visible (x, y, cluster) entries in
    that shape, i.e. ``np.flatnonzero(grid)``, and is all that is stored.
    ``grid`` and ``matrix`` are a read-only dense view, built from ``flat``
    when first read and cached (about 97 MB at 128 x 128, so paths that only
    count or list the entries never read it).  Flat element order matches
    the row-major IRS flat index.
    """

    shape: tuple[int, int, int]
    flat: np.ndarray

    @property
    def n_clusters(self) -> int:
        return self.shape[2]

    @cached_property
    def grid(self) -> np.ndarray:
        """Dense (m_x, m_y, n_clusters) boolean view, read-only."""
        grid = np.zeros(self.shape, dtype=bool)
        grid.reshape(-1)[self.flat] = True
        grid.flags.writeable = False
        return grid

    @property
    def matrix(self) -> np.ndarray:
        """(n_elements, n_clusters) boolean view in flat element order."""
        m_x, m_y, n = self.shape
        return self.grid.reshape(m_x * m_y, n)

    def mean_visible(self) -> float:
        m_x, m_y, _ = self.shape
        return self.flat.size / (m_x * m_y)

    def columns(self) -> tuple[np.ndarray, ...]:
        """CSV columns (x, y, cluster_id, visible) of the visible entries.

        Equal to ``np.nonzero(grid)`` (1-based x, y), in the grid's C order.
        """
        xs, ys, cs = np.unravel_index(self.flat, self.shape)
        return xs + 1, ys + 1, cs, np.ones(cs.size, dtype=bool)


def _survival_probability(params: ClusterParams, spacing: float, elevation: float) -> float:
    return math.exp(-params.chain_rate * spacing * math.cos(elevation)
                    / params.correlation_factor_m)


def _chain(layout: TerminalLayout, params: ClusterParams) -> tuple[int, int, float, float]:
    """(m_x, m_y, p_x, p_y) of the chain over an array; a linear one is one X column."""
    p = [_survival_probability(params, s, e) for s, e in zip(layout.spacings, layout.elevations)]
    if layout.kind == "IRS":
        return (*layout.counts, *p)
    return layout.counts[0], 1, p[0], 1.0


def expected_cluster_count(layout: TerminalLayout, params: ClusterParams) -> float:
    """Mean cluster count (``n_clusters``) of the chain over an array.

    The first element sees lambda = lambda_B / lambda_D clusters on average;
    each X step adds lambda (1 - p_x) births and each Y step m_x lambda
    (1 - p_y), one per row: lambda + (m_x - 1) lambda (1 - p_x) + m_x (m_y -
    1) lambda (1 - p_y).  A linear array keeps the first two terms.
    """
    m_x, m_y, p_x, p_y = _chain(layout, params)
    return params.mean_count * (1.0 + (m_x - 1) * (1.0 - p_x) + m_x * (m_y - 1) * (1.0 - p_y))


def evolve_visibility(layout: TerminalLayout, params: ClusterParams,
                      rng: np.random.Generator) -> VisibilityTensor:
    """Run the birth-death chain over an array and return the visibility tensor.

    The initial element sees Poisson(lambda_B / lambda_D) clusters.  Moving to
    the next element, each visible cluster survives with probability p and
    Poisson(mean * (1 - p)) new clusters appear, indexed after all existing
    ones.  For the IRS the X chain over the first column runs first and each
    row state then evolves independently along Y.  Only the visible entries
    of each Y step are kept, so memory follows the visible count, not the
    m_x x m_y x n_clusters grid.

    A Y step draws its (m_x, width) uniforms with ``rng.random(out=...)`` into
    one float64 buffer and compares them with ``np.less(..., out=...)`` into
    one bool buffer; every step reuses both.  The Y pass adds Poisson births
    with mean m_x * mean * (1 - p) per step, so the buffers are first sized
    for the expected final width plus four standard deviations of the
    births: one allocation nearly always serves the whole pass, and a
    process that runs many chains leaves no trail of growing buffers on the
    heap.  Wider states grow them by half again.  The draws are those of
    ``rng.random((m_x, width))`` in the same order, so the stream and the
    result do not depend on the buffers.
    """
    mean_n = params.mean_count
    m_x, m_y, p_x, p_y = _chain(layout, params)

    n0 = int(rng.poisson(mean_n))

    # X pass along the first column; rows keep ragged states until padded.
    row_states: list[np.ndarray] = [np.ones(n0, dtype=bool)]
    for _ in range(1, m_x):
        prev = row_states[-1]
        row = prev & (rng.random(prev.size) < p_x)
        n_new = int(rng.poisson(mean_n * (1.0 - p_x)))
        if n_new:
            row = np.concatenate([row, np.ones(n_new, dtype=bool)])
        row_states.append(row)
    state = np.zeros((m_x, row_states[-1].size), dtype=bool)
    for x, row in enumerate(row_states):
        state[x, : row.size] = row

    if m_y == 1:
        flat = state.reshape(-1).nonzero()[0]  # (x, c) of (m_x, n) is (x, 0, c)
    else:
        # Y pass: all rows advance in lockstep, births are appended per row
        # (row x's as copies of column x of the identity).  Each step keeps
        # only the flat indices of its visible entries in its own (m_x, width)
        # state, and its width.  Array methods, not numpy functions: at a few
        # elements per row the call overhead is the cost, and a 1-D nonzero
        # is several times faster than a 2-D one.
        found, widths = [state.reshape(-1).nonzero()[0]], [state.shape[1]]
        births_mean = (m_y - 1) * m_x * mean_n * (1.0 - p_y)
        size = m_x * (state.shape[1] + int(births_mean + 4.0 * math.sqrt(births_mean)) + 1)
        draws, keep = np.empty(size), np.empty(size, dtype=bool)
        for _ in range(1, m_y):
            if state.size > draws.size:
                draws = np.empty(max(state.size, draws.size + draws.size // 2))
                keep = np.empty(draws.size, dtype=bool)
            u = rng.random(out=draws[: state.size].reshape(state.shape))
            state &= np.less(u, p_y, out=keep[: state.size].reshape(state.shape))
            births = rng.poisson(mean_n * (1.0 - p_y), size=m_x)
            if np.count_nonzero(births):
                state = np.concatenate(
                    [state, np.eye(m_x, dtype=bool).repeat(births, axis=1)], axis=1)
            found.append(state.reshape(-1).nonzero()[0])
            widths.append(state.shape[1])
        # freed before the entry arrays below are built, which then reuse the
        # heap instead of growing it past the buffers
        del draws, keep, u
        counts = [f.size for f in found]
        xs, cs = np.divmod(np.concatenate(found), np.repeat(widths, counts))
        flat = xs * m_y
        flat += np.arange(m_y).repeat(counts)
        flat *= state.shape[1]
        flat += cs
        flat.sort()
    flat.flags.writeable = False
    return VisibilityTensor(shape=(m_x, m_y, state.shape[1]), flat=flat)


def lag1_autocorrelation(tensor: VisibilityTensor) -> float:
    """Pooled lag-1 Pearson correlation of the visibility indicator.

    Computed along the chain direction (Y within rows for planar arrays, X
    for linear ones); i.i.d. visibility would give ~0, contiguous runs give
    values near 1.  Over the N element pairs one step apart, with n_a and
    n_b the visible counts of the first and second member and n_ab the
    pairs where both are visible, the 0/1 Pearson correlation is
    (N n_ab - n_a n_b) / sqrt(n_a (N - n_a) n_b (N - n_b)), computed from
    the visible entries alone.  It is 1.0 when either indicator is constant,
    including when there are no pairs.
    """
    m_x, m_y, n = tensor.shape
    flat = tensor.flat
    # element e = x m_y + y; its neighbour along the chain is flat index + n
    length = m_y if m_y > 1 else m_x
    n_pairs = m_x * m_y // length * (length - 1) * n
    pos = flat // n % length
    first = pos < length - 1
    n_a = int(first.sum())
    n_b = int((pos > 0).sum())
    n_ab = int(np.isin(flat[first] + n, flat, assume_unique=True).sum())
    if n_a in (0, n_pairs) or n_b in (0, n_pairs):
        return 1.0
    return float((n_pairs * n_ab - n_a * n_b)
                 / math.sqrt(n_a * (n_pairs - n_a) * n_b * (n_pairs - n_b)))


@dataclass(frozen=True)
class ClusterRealization:
    """Cluster set, motion state, and visibility for one sub-channel."""

    subchannel: str
    tx_ref: np.ndarray
    rx_ref: np.ndarray
    tx_layout: TerminalLayout
    rx_layout: TerminalLayout
    v_tx: np.ndarray
    v_rx: np.ndarray
    clusters: ClusterSet
    visibility: VisibilityTensor
    evolved_side: str            # "tx" | "rx": the array the chain ran over
    k_factor: float              # linear Rician factor
    gamma_ds: float              # power-decay timescale, seconds
    fc_hz: float

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.fc_hz

    @cached_property
    def rays(self) -> dict[str, np.ndarray]:
        """Per-ray arrays in (cluster, ray) order, reshaped from the cluster set.

        :func:`realize_subchannels` fills this from the pass that built the
        set; a realization made otherwise (e.g. by ``dataclasses.replace``)
        computes it here, by the same function.
        """
        c = self.clusters
        return _ray_arrays(np.stack([self.tx_ref, self.rx_ref]),
                           np.stack([self.v_tx, self.v_rx]),
                           np.stack([c.scatter_a, c.scatter_z]), np.stack([c.vel_a, c.vel_z]),
                           c.virtual_delay, np.array([0, len(c)]))[0]

    @property
    def num_rays(self) -> int:
        return int(self.rays["tau_v"].size)


def realize_subchannels(cfg: ScenarioConfig, subchannel: str,
                        rngs) -> list[ClusterRealization]:
    """One sub-channel realization per generator, built together.

    Each generator, in order, runs its birth-death chain and then its cluster
    draws, exactly as a realization built alone would: the draws stay on
    the trial's own stream, so a trial's realization never depends on the
    others built with it.  The geometry of every drawn cluster (frames,
    scatterers, velocities, ray arrays) is then computed in one pass, and
    each realization's arrays are views into it.

    The birth-death chain runs over the sub-channel's large-array side (the
    IRS for BI/IU, the BS for BU); the opposite side sees every cluster.
    Each sub-channel owns an independent cluster set.  The link ends come
    from ``cfg.links``, built once per config and shared by every realization.
    """
    if subchannel not in cfg.links:
        raise ValueError(f"unknown sub-channel {subchannel!r}")
    params = cfg.clusters
    ends = cfg.links[subchannel]
    evolved_layout = ends.tx_layout if ends.evolved_side == "tx" else ends.rx_layout
    visibility, draws = [], []
    for rng in rngs:
        visibility.append(evolve_visibility(evolved_layout, params, rng))
        draws.append(_draw(params, rng, visibility[-1].n_clusters))
    built = _build(params, np.stack([ends.tx_ref, ends.rx_ref]),
                   np.stack([ends.v_tx, ends.v_rx]), draws)
    out = []
    for vis, (clusters, rays) in zip(visibility, built):
        real = ClusterRealization(
            subchannel=subchannel, tx_ref=ends.tx_ref, rx_ref=ends.rx_ref,
            tx_layout=ends.tx_layout, rx_layout=ends.rx_layout,
            v_tx=ends.v_tx, v_rx=ends.v_rx, clusters=clusters, visibility=vis,
            evolved_side=ends.evolved_side, k_factor=cfg.k_linear,
            gamma_ds=params.power_decay_ns * 1e-9, fc_hz=cfg.fc_hz)
        real.__dict__["rays"] = rays  # the cached property, filled from the shared pass
        out.append(real)
    return out


def realize_subchannel(cfg: ScenarioConfig, subchannel: str,
                       rng: np.random.Generator) -> ClusterRealization:
    """Build one sub-channel's cluster realization (see :func:`realize_subchannels`)."""
    return realize_subchannels(cfg, subchannel, [rng])[0]
