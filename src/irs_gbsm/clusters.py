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
from dataclasses import dataclass, replace
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


def _planar_velocity(speed: float, azimuth: np.ndarray) -> np.ndarray:
    return speed * np.stack([np.cos(azimuth), np.sin(azimuth), np.zeros_like(azimuth)], axis=-1)


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
    sigma = np.asarray(params.sigma_xyz_m, dtype=float)
    if np.any(sigma < 0):
        raise ValueError(f"scatterer sigmas must be >= 0, got {tuple(sigma)}")
    if count is None:
        count = int(rng.poisson(params.mean_count))
    m_n = params.rays_per_cluster
    if count == 0:
        return ClusterSet.empty(m_n, sigma)
    tx_ref = np.asarray(tx_ref, dtype=float)
    rx_ref = np.asarray(rx_ref, dtype=float)
    el_max = math.radians(params.center_elevation_max_deg)

    centers, angles, scatter, vel = {}, {}, {}, {}
    for side, ref in (("a", tx_ref), ("z", rx_ref)):
        az = rng.uniform(-np.pi, np.pi, count)
        el = rng.uniform(-el_max, el_max, count)
        dist = params.center_distance_min_m + rng.exponential(
            params.center_distance_mean_m, count)
        centers[side] = ref + dist[:, None] * _unit_rows(az, el)
        angles[side] = rng.uniform(-np.pi, np.pi, (count, 3))
    for side in ("a", "z"):
        local = rng.standard_normal((count, m_n, 3)) * sigma
        rot = rotation_matrices(*angles[side].T)
        # row-vector LCS -> GCS: p @ R.T + center, per cluster
        scatter[side] = np.einsum("nmi,nji->nmj", local, rot) + centers[side][:, None, :]
    tau_v = rng.exponential(params.virtual_delay_mean_ns * 1e-9, count)
    for side, speed, fixed in (
        ("a", params.speed_a_mps, params.velocity_azimuth_a_deg),
        ("z", params.speed_z_mps, params.velocity_azimuth_z_deg),
    ):
        alpha = (rng.uniform(-np.pi, np.pi, count) if fixed is None
                 else np.full(count, math.radians(fixed)))
        vel[side] = _planar_velocity(speed, alpha)

    d_ref = (np.linalg.norm(scatter["a"] - tx_ref, axis=2)
             + np.linalg.norm(scatter["z"] - rx_ref, axis=2))
    tau_ref = d_ref / SPEED_OF_LIGHT + tau_v[:, None]
    weights = np.exp(-tau_ref / (params.power_decay_ns * 1e-9))
    return ClusterSet(
        center_a=centers["a"], center_z=centers["z"],
        angles_a=angles["a"], angles_z=angles["z"], sigma=tuple(sigma),
        scatter_a=scatter["a"], scatter_z=scatter["z"], virtual_delay=tau_v,
        vel_a=vel["a"], vel_z=vel["z"], ray_powers=weights / weights.sum())


def advance_clusters(clusters: ClusterSet, dt: float) -> ClusterSet:
    """Translate cluster centers and scatterers by their velocities over dt."""
    shift_a = clusters.vel_a * dt
    shift_z = clusters.vel_z * dt
    return replace(
        clusters,
        center_a=clusters.center_a + shift_a, center_z=clusters.center_z + shift_z,
        scatter_a=clusters.scatter_a + shift_a[:, None, :],
        scatter_z=clusters.scatter_z + shift_z[:, None, :])


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
        """Per-ray arrays in (cluster, ray) order, reshaped from the cluster set."""
        c = self.clusters
        n_clusters, m_n = c.ray_powers.shape
        return {"d0_tx": c.scatter_a.reshape(-1, 3) - self.tx_ref,
                "d0_rx": c.scatter_z.reshape(-1, 3) - self.rx_ref,
                "v_rel_tx": np.repeat(self.v_tx - c.vel_a, m_n, axis=0),
                "v_rel_rx": np.repeat(self.v_rx - c.vel_z, m_n, axis=0),
                "tau_v": np.repeat(c.virtual_delay, m_n),
                "cluster_ids": np.repeat(np.arange(n_clusters), m_n),
                "ray_ids": np.tile(np.arange(m_n), n_clusters)}

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


def realize_subchannel(cfg: ScenarioConfig, subchannel: str,
                       rng: np.random.Generator) -> ClusterRealization:
    """Build one sub-channel's cluster realization from the scenario config.

    The birth-death chain runs over the sub-channel's large-array side (the
    IRS for BI/IU, the BS for BU); the opposite side sees every cluster.
    Each sub-channel owns an independent cluster set.  The link ends come
    from ``cfg.links``, built once per config and shared by every realization.
    """
    if subchannel not in cfg.links:
        raise ValueError(f"unknown sub-channel {subchannel!r}")
    ends = cfg.links[subchannel]
    evolved_layout = ends.tx_layout if ends.evolved_side == "tx" else ends.rx_layout
    vis = evolve_visibility(evolved_layout, cfg.clusters, rng)
    clusters = generate_cluster_pairs(cfg.clusters, ends.tx_ref, ends.rx_ref, rng,
                                      count=vis.n_clusters)
    return ClusterRealization(
        subchannel=subchannel, tx_ref=ends.tx_ref, rx_ref=ends.rx_ref,
        tx_layout=ends.tx_layout, rx_layout=ends.rx_layout,
        v_tx=ends.v_tx, v_rx=ends.v_rx, clusters=clusters, visibility=vis,
        evolved_side=ends.evolved_side, k_factor=cfg.k_linear,
        gamma_ds=cfg.clusters.power_decay_ns * 1e-9, fc_hz=cfg.fc_hz)
