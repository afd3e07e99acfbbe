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
geometry, velocities, reference powers, ray arrays) and runs once over every
cluster of the chunk: at about ten clusters per realization that work is set
by numpy's per-call overhead, not by arithmetic.  Each realization's arrays
are views into the chunk's.  The ensemble keeps chunks small (16 trials),
because all of a chunk's realizations are alive at once.

Space-domain non-stationarity: which clusters are visible to which array
element follows a sequential birth-death chain along the array.  The
per-step survival probability is p = exp(-rate * delta * cos(beta_E) / D_C)
and new clusters arrive Poisson with mean (lambda_B / lambda_D) * (1 - p);
treating p as survival (not death) is what keeps the expected visible count
at lambda_B / lambda_D for every element.  On the planar IRS the chain runs
along the X direction first; each row's result seeds an independent chain
along Y.
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
    element_offsets,
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
    ray_powers: np.ndarray        # (M_n,) reference normalized powers at t=0

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
    ray_powers: np.ndarray        # (C, M_n) reference normalized powers at t=0

    @classmethod
    def empty(cls, rays_per_cluster: int, sigma) -> ClusterSet:
        """A set with no clusters (every array has a zero-length cluster axis)."""
        none3 = np.zeros((0, 3))
        rays3 = np.zeros((0, rays_per_cluster, 3))
        return cls(center_a=none3, center_z=none3, angles_a=none3, angles_z=none3,
                   sigma=tuple(sigma), scatter_a=rays3, scatter_z=rays3,
                   virtual_delay=np.zeros(0), vel_a=none3, vel_z=none3,
                   ray_powers=np.zeros((0, rays_per_cluster)))

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
                vel_a=self.vel_a[cid], vel_z=self.vel_z[cid],
                ray_powers=self.ray_powers[cid])


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


def _ray_arrays(refs, velocities, scatter, vel, tau_v, bounds) -> tuple[np.ndarray, list]:
    """Per-ray arrays of stacked cluster sets, in (cluster, ray) order.

    ``refs`` and ``velocities`` are the (2, 3) tx/rx link ends, ``scatter``
    (2, C, M, 3), ``vel`` (2, C, 3) and ``tau_v`` (C,) the stacked clusters,
    and set i owns clusters bounds[i]:bounds[i + 1].  Returns the
    reference-to-scatterer vectors d0, (2, C * M, 3), and one dict of ray
    arrays per set, each a view into the stacked ones.
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
    return d0, sets


def _build(params: ClusterParams, refs: np.ndarray, velocities: np.ndarray,
           draws: list[dict]) -> list[tuple[ClusterSet, dict]]:
    """Every drawn cluster set and its ray arrays, from one pass over all clusters.

    ``refs`` and ``velocities`` are the (2, 3) tx/rx link ends.  Each set's
    arrays are views into arrays over the clusters of every set; every step
    is elementwise or per cluster, so a set equals the one built alone bit
    for bit.  Reference powers are normalized over each set's own slice.
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
    d0, rays = _ray_arrays(refs, velocities, scatter, vel, tau_v, bounds)
    d_ref = np.linalg.norm(d0, axis=-1)
    tau_ref = (d_ref[0] + d_ref[1]).reshape(n, m_n) / SPEED_OF_LIGHT + tau_v[:, None]
    weights = np.exp(-tau_ref / (params.power_decay_ns * 1e-9))
    angles = angles.reshape(2, n, 3)
    out = []
    for lo, hi, set_rays in zip(bounds[:-1], bounds[1:], rays):
        w = weights[lo:hi]
        w /= w.sum()
        clusters = ClusterSet(
            center_a=centers[0, lo:hi], center_z=centers[1, lo:hi],
            angles_a=angles[0, lo:hi], angles_z=angles[1, lo:hi], sigma=tuple(sigma),
            scatter_a=scatter[0, lo:hi], scatter_z=scatter[1, lo:hi],
            virtual_delay=tau_v[lo:hi], vel_a=vel[0, lo:hi], vel_z=vel[1, lo:hi],
            ray_powers=w)
        out.append((clusters, set_rays))
    return out


def generate_cluster_pairs(params: ClusterParams, tx_ref: np.ndarray,
                           rx_ref: np.ndarray, rng: np.random.Generator,
                           count: int | None = None) -> ClusterSet:
    """Draw twin clusters around the two link-end references.

    Cluster centers use the configured priors (uniform azimuth, bounded
    uniform elevation, floored exponential distance).  Per-ray angles and
    distances are derived from the scatterer positions, never sampled.
    ``ray_powers`` hold the exponential power-delay-profile weights of the
    reference element pair at t = 0, normalized over the whole realization.
    Zero clusters draw nothing further and give an empty set.
    """
    if count is None:
        count = int(rng.poisson(params.mean_count))
    refs = np.array([tx_ref, rx_ref], dtype=float)
    return _build(params, refs, np.zeros((2, 3)), [_draw(params, rng, count)])[0][0]


@dataclass(frozen=True)
class VisibilityTensor:
    """Per-element cluster visibility from the sequential birth-death chain.

    ``grid`` has shape (m_x, m_y, n_clusters); linear arrays use m_y = 1.
    Flat element order matches the row-major IRS flat index.
    """

    grid: np.ndarray
    birth_rate: float
    death_rate: float
    correlation_factor: float
    initial_count: int

    @property
    def n_clusters(self) -> int:
        return self.grid.shape[2]

    @property
    def matrix(self) -> np.ndarray:
        """(n_elements, n_clusters) boolean view in flat element order."""
        m_x, m_y, n = self.grid.shape
        return self.grid.reshape(m_x * m_y, n)

    def mean_visible(self) -> float:
        return float(self.matrix.sum(axis=1).mean())

    def columns(self) -> tuple[np.ndarray, ...]:
        """CSV columns (x, y, cluster_id, visible) of the visible entries.

        Equal to ``np.nonzero(grid)`` (1-based x, y), from one flat scan,
        which is several times faster than the 3-D scan.
        """
        xs, ys, cs = np.unravel_index(np.flatnonzero(self.grid), self.grid.shape)
        return xs + 1, ys + 1, cs, np.ones(cs.size, dtype=bool)


def _survival_probability(params: ClusterParams, spacing: float, elevation: float) -> float:
    return math.exp(-params.chain_rate * spacing * math.cos(elevation)
                    / params.correlation_factor_m)


def evolve_visibility(layout: TerminalLayout, params: ClusterParams,
                      rng: np.random.Generator) -> VisibilityTensor:
    """Run the birth-death chain over an array and return the visibility tensor.

    The initial element sees Poisson(lambda_B / lambda_D) clusters.  Moving to
    the next element, each visible cluster survives with probability p and
    Poisson(mean * (1 - p)) new clusters appear, indexed after all existing
    ones.  For the IRS the X chain over the first column runs first and each
    row state then evolves independently along Y.
    """
    mean_n = params.mean_count
    if layout.kind == "IRS":
        m_x, m_y = layout.counts
        p_x = _survival_probability(params, layout.spacings[0], layout.elevations[0])
        p_y = _survival_probability(params, layout.spacings[1], layout.elevations[1])
    else:
        m_x, m_y = layout.counts[0], 1
        p_x = _survival_probability(params, layout.spacings[0], layout.elevations[0])
        p_y = 1.0

    n0 = int(rng.poisson(mean_n))

    # X pass along the first column; rows keep ragged states until padded.
    row_states: list[np.ndarray] = [np.ones(n0, dtype=bool)]
    for _ in range(1, m_x):
        prev = row_states[-1]
        survive = prev & (rng.random(prev.size) < p_x)
        n_new = int(rng.poisson(mean_n * (1.0 - p_x)))
        row_states.append(np.concatenate([survive, np.ones(n_new, dtype=bool)]))
    state = np.zeros((m_x, row_states[-1].size), dtype=bool)
    for x, row in enumerate(row_states):
        state[x, : row.size] = row

    # Y pass: all rows advance in lockstep, births are appended per row.  Each
    # slice keeps its own width; the grid is padded once, at its final size.
    slices = [state]
    for _ in range(1, m_y):
        state = state & (rng.random(state.shape) < p_y)
        births = rng.poisson(mean_n * (1.0 - p_y), size=m_x)
        total_new = int(births.sum())
        if total_new:
            fresh = np.zeros((m_x, total_new), dtype=bool)
            fresh[np.repeat(np.arange(m_x), births), np.arange(total_new)] = True
            state = np.concatenate([state, fresh], axis=1)
        slices.append(state)

    grid = np.zeros((m_x, m_y, state.shape[1]), dtype=bool)
    for y, s in enumerate(slices):
        grid[:, y, : s.shape[1]] = s
    grid.flags.writeable = False
    return VisibilityTensor(grid=grid, birth_rate=params.birth_rate,
                            death_rate=params.death_rate,
                            correlation_factor=params.correlation_factor_m,
                            initial_count=n0)


def lag1_autocorrelation(tensor: VisibilityTensor) -> float:
    """Pooled lag-1 Pearson correlation of the visibility indicator.

    Computed along the chain direction (Y within rows for planar arrays, X
    for linear ones); i.i.d. visibility would give ~0, contiguous runs give
    values near 1.
    """
    grid = tensor.grid
    if grid.shape[1] > 1:
        a = grid[:, :-1, :].reshape(-1).astype(float)
        b = grid[:, 1:, :].reshape(-1).astype(float)
    else:
        a = grid[:-1, 0, :].reshape(-1).astype(float)
        b = grid[1:, 0, :].reshape(-1).astype(float)
    if a.std() == 0 or b.std() == 0:
        return 1.0
    return float(np.corrcoef(a, b)[0, 1])


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
                           c.virtual_delay, np.array([0, len(c)]))[1][0]

    @property
    def num_rays(self) -> int:
        return int(self.rays["tau_v"].size)

    def ray_visibility(self, element: int) -> np.ndarray:
        """Boolean mask over stacked rays visible to one evolved-side element."""
        vis = self.visibility.matrix[element - 1]
        return vis[self.rays["cluster_ids"]]

    def visible_rays(self, tx_element: int, rx_element: int) -> np.ndarray:
        element = tx_element if self.evolved_side == "tx" else rx_element
        return self.ray_visibility(element)

    def tx_offsets(self) -> np.ndarray:
        return element_offsets(self.tx_layout)

    def rx_offsets(self) -> np.ndarray:
        return element_offsets(self.rx_layout)


def realize_subchannels(cfg: ScenarioConfig, subchannel: str,
                        rngs) -> list[ClusterRealization]:
    """One sub-channel realization per generator, built together.

    Each generator, in order, runs its birth-death chain and then its cluster
    draws, exactly as a realization built alone would: the draws stay on
    the trial's own stream, so a trial's realization never depends on the
    others built with it.  The geometry of every drawn cluster (frames,
    scatterers, velocities, reference powers, ray arrays) is then computed
    in one pass, and each realization's arrays are views into it.

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
