"""Twin-cluster generation, scatterer placement, and birth-death evolution.

Each propagation path of a sub-channel sees a first-bounce cluster near the
transmitter and a last-bounce cluster near the receiver; everything between
them is a virtual link with an exponentially distributed extra delay.
Scatterers are placed i.i.d. Gaussian in a cluster-local frame and rotated
into world coordinates.

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
    """One twin cluster: paired first/last-bounce scatterer sets."""

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


def _unit_rows(azimuth: np.ndarray, elevation: np.ndarray) -> np.ndarray:
    ce = np.cos(elevation)
    return np.stack([ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)], axis=-1)


def _planar_velocity(speed: float, azimuth: np.ndarray) -> np.ndarray:
    return speed * np.stack([np.cos(azimuth), np.sin(azimuth), np.zeros_like(azimuth)], axis=-1)


def generate_cluster_pairs(params: ClusterParams, tx_ref: np.ndarray,
                           rx_ref: np.ndarray, rng: np.random.Generator,
                           count: int | None = None) -> list[ClusterPair]:
    """Draw twin clusters around the two link-end references.

    Cluster centers use the configured priors (uniform azimuth, bounded
    uniform elevation, floored exponential distance).  Per-ray angles and
    distances are derived from the scatterer positions, never sampled.
    ``ray_powers`` hold the exponential power-delay-profile weights of the
    reference element pair at t = 0, normalized over the whole realization.
    """
    sigma = np.asarray(params.sigma_xyz_m, dtype=float)
    if np.any(sigma < 0):
        raise ValueError(f"scatterer sigmas must be >= 0, got {tuple(sigma)}")
    if count is None:
        count = int(rng.poisson(params.mean_count))
    if count == 0:
        return []
    tx_ref = np.asarray(tx_ref, dtype=float)
    rx_ref = np.asarray(rx_ref, dtype=float)
    m_n = params.rays_per_cluster
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
    powers = weights / weights.sum()

    return [
        ClusterPair(
            id=cid,
            center_a=centers["a"][cid], center_z=centers["z"][cid],
            angles_a=RotationAngles(*angles["a"][cid]),
            angles_z=RotationAngles(*angles["z"][cid]),
            sigma=tuple(sigma),
            scatter_a=scatter["a"][cid], scatter_z=scatter["z"][cid],
            virtual_delay=float(tau_v[cid]),
            vel_a=vel["a"][cid], vel_z=vel["z"][cid],
            ray_powers=powers[cid])
        for cid in range(count)
    ]


def advance_clusters(clusters: list[ClusterPair], dt: float) -> list[ClusterPair]:
    """Translate cluster centers and scatterers by their velocities over dt."""
    out = []
    for c in clusters:
        shift_a = c.vel_a * dt
        shift_z = c.vel_z * dt
        out.append(replace(
            c,
            center_a=c.center_a + shift_a, center_z=c.center_z + shift_z,
            scatter_a=c.scatter_a + shift_a, scatter_z=c.scatter_z + shift_z))
    return out


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


_SUBCHANNELS = ("BI", "IU", "BU")


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
    clusters: tuple[ClusterPair, ...]
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
        """Stacked per-ray arrays in (cluster, ray) order."""
        if not self.clusters:
            empty3 = np.zeros((0, 3))
            return {"d0_tx": empty3, "d0_rx": empty3, "v_rel_tx": empty3,
                    "v_rel_rx": empty3, "tau_v": np.zeros(0),
                    "cluster_ids": np.zeros(0, dtype=int),
                    "ray_ids": np.zeros(0, dtype=int)}
        counts = np.array([c.num_rays for c in self.clusters])
        d0_tx = np.concatenate([c.scatter_a for c in self.clusters]) - self.tx_ref
        d0_rx = np.concatenate([c.scatter_z for c in self.clusters]) - self.rx_ref
        v_rel_tx = np.repeat(self.v_tx - np.stack([c.vel_a for c in self.clusters]),
                             counts, axis=0)
        v_rel_rx = np.repeat(self.v_rx - np.stack([c.vel_z for c in self.clusters]),
                             counts, axis=0)
        tau_v = np.repeat([c.virtual_delay for c in self.clusters], counts)
        cluster_ids = np.repeat([c.id for c in self.clusters], counts)
        ray_ids = np.concatenate([np.arange(c.num_rays) for c in self.clusters])
        return {"d0_tx": d0_tx, "d0_rx": d0_rx, "v_rel_tx": v_rel_tx,
                "v_rel_rx": v_rel_rx, "tau_v": tau_v, "cluster_ids": cluster_ids,
                "ray_ids": ray_ids}

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
    Each sub-channel owns an independent cluster set.
    """
    if subchannel not in _SUBCHANNELS:
        raise ValueError(f"unknown sub-channel {subchannel!r}")
    scene = cfg.scene()
    bs_layout = cfg.bs.layout("BS")
    user_layout = cfg.user.layout("USER")
    irs_layout = cfg.irs.layout()
    origin = np.zeros(3)
    v_bs = cfg.bs.velocity()
    v_user = cfg.user.velocity()
    v_irs = np.zeros(3)

    if subchannel == "BI":
        tx_ref, rx_ref = origin, scene.d_bi
        tx_layout, rx_layout = bs_layout, irs_layout
        v_tx, v_rx = v_bs, v_irs
        evolved = "rx"
    elif subchannel == "IU":
        tx_ref, rx_ref = scene.d_bi, scene.d_bu
        tx_layout, rx_layout = irs_layout, user_layout
        v_tx, v_rx = v_irs, v_user
        evolved = "tx"
    else:
        tx_ref, rx_ref = origin, scene.d_bu
        tx_layout, rx_layout = bs_layout, user_layout
        v_tx, v_rx = v_bs, v_user
        evolved = "tx"

    evolved_layout = tx_layout if evolved == "tx" else rx_layout
    vis = evolve_visibility(evolved_layout, cfg.clusters, rng)
    clusters = generate_cluster_pairs(cfg.clusters, tx_ref, rx_ref, rng,
                                      count=vis.n_clusters)
    return ClusterRealization(
        subchannel=subchannel, tx_ref=np.asarray(tx_ref, dtype=float),
        rx_ref=np.asarray(rx_ref, dtype=float),
        tx_layout=tx_layout, rx_layout=rx_layout,
        v_tx=v_tx, v_rx=v_rx, clusters=tuple(clusters), visibility=vis,
        evolved_side=evolved, k_factor=cfg.k_linear,
        gamma_ds=cfg.clusters.power_decay_ns * 1e-9, fc_hz=cfg.fc_hz)
