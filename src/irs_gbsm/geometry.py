"""Array element placement, IRS index mapping, and GCS/LCS coordinate rotation.

Conventions used throughout the package:

* All angles are in radians and stored in [-pi, pi).
* Element indices are 1-based (q on BS, p on USER, r on IRS) to match the
  usual channel-matrix notation.
* The world frame (GCS) is anchored at BS element 1.  BS/USER element
  offsets are referenced to the first element of the linear array, IRS
  element offsets to the panel center.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299792458.0


def wrap_angle(angle: float) -> float:
    """Wrap an angle (radians) into [-pi, pi)."""
    return float(np.mod(angle + np.pi, 2.0 * np.pi) - np.pi)


def unflatten_index(r: int, m_y: int, m_x: int | None = None) -> tuple[int, int]:
    """The 1-based (row, column) pair of a 1-based flat IRS element index.

    The panel is flattened row by row, r = (x - 1) * M_y + y.  Uses
    x = ceil(r / M_y), y = r - (x - 1) * M_y, the exact inverse for every r
    (a naive integer-division / modulo split fails at the column boundaries
    where mod(r, M_y) = 0).
    If ``m_x`` is given, r is range-checked against the full panel.
    """
    if m_y < 1:
        raise ValueError(f"column count must be >= 1, got {m_y}")
    if r < 1:
        raise ValueError(f"flat index must be >= 1, got {r}")
    if m_x is not None and r > m_x * m_y:
        raise ValueError(f"flat index {r} outside [1, {m_x * m_y}]")
    x = (r - 1) // m_y + 1
    y = r - (x - 1) * m_y
    return x, y


def _unit_from_angles(azimuth: float, elevation: float) -> np.ndarray:
    """Unit vector [cos(el)cos(az), cos(el)sin(az), sin(el)]."""
    ce = math.cos(elevation)
    return np.array(
        [ce * math.cos(azimuth), ce * math.sin(azimuth), math.sin(elevation)]
    )


@dataclass(frozen=True)
class TerminalLayout:
    """Geometry of one terminal's antenna array.

    BS and USER are uniform linear arrays described by one element count,
    spacing and pointing direction; the IRS is a uniform planar array with
    separate parameters for its two extending directions.

    Attributes
    ----------
    kind : str
        "BS", "USER" or "IRS".
    counts : tuple of int
        (M,) for linear arrays, (M_x, M_y) for the IRS.
    spacings : tuple of float
        Element intervals in meters, one entry per array direction.
    azimuths, elevations : tuple of float
        Pointing angles of each array direction, radians in [-pi, pi).
    """

    kind: str
    counts: tuple[int, ...]
    spacings: tuple[float, ...]
    azimuths: tuple[float, ...]
    elevations: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("BS", "USER", "IRS"):
            raise ValueError(f"unknown terminal kind {self.kind!r}")
        ndim = 2 if self.kind == "IRS" else 1
        for name, values in (
            ("counts", self.counts),
            ("spacings", self.spacings),
            ("azimuths", self.azimuths),
            ("elevations", self.elevations),
        ):
            if len(values) != ndim:
                raise ValueError(f"{self.kind} layout needs {ndim} {name}, got {len(values)}")
        if any(m < 1 for m in self.counts):
            raise ValueError(f"element counts must be >= 1, got {self.counts}")
        if any(d <= 0 for d in self.spacings):
            raise ValueError(f"spacings must be > 0, got {self.spacings}")
        object.__setattr__(self, "azimuths", tuple(wrap_angle(a) for a in self.azimuths))
        object.__setattr__(self, "elevations", tuple(wrap_angle(e) for e in self.elevations))

    @classmethod
    def linear(cls, kind: str, num_elements: int, spacing: float,
               azimuth: float, elevation: float) -> "TerminalLayout":
        return cls(kind, (num_elements,), (spacing,), (azimuth,), (elevation,))

    @classmethod
    def planar(cls, m_x: int, m_y: int, spacing_x: float, spacing_y: float,
               azimuth_x: float, elevation_x: float,
               azimuth_y: float, elevation_y: float) -> "TerminalLayout":
        return cls("IRS", (m_x, m_y), (spacing_x, spacing_y),
                   (azimuth_x, azimuth_y), (elevation_x, elevation_y))

    @property
    def num_elements(self) -> int:
        return math.prod(self.counts)

    def axis_vector(self, axis: int = 0) -> np.ndarray:
        """Spacing-scaled direction vector of one array axis."""
        return self.spacings[axis] * _unit_from_angles(self.azimuths[axis], self.elevations[axis])

    @cached_property
    def offsets(self) -> np.ndarray:
        """Offsets of every element, (num_elements, 3), flat-index order; read-only.

        For BS/USER, l_q = (q - 1) * delta * [cos(bE)cos(bA), cos(bE)sin(bA),
        sin(bE)], referenced to the first element.  For the IRS they are
        referenced to the panel center with the row/column weights
        ((M_x + 1)/2 - x) and (y - (M_y + 1)/2) on the two axis vectors.
        Computed once per layout.
        """
        if self.kind == "IRS":
            m_x, m_y = self.counts
            xs, ys = np.meshgrid(np.arange(1, m_x + 1), np.arange(1, m_y + 1), indexing="ij")
            wx = ((m_x + 1) / 2.0 - xs).reshape(-1)
            wy = (ys - (m_y + 1) / 2.0).reshape(-1)
            out = np.outer(wx, self.axis_vector(0)) + np.outer(wy, self.axis_vector(1))
        else:
            out = np.outer(np.arange(self.counts[0]), self.axis_vector(0))
        out.flags.writeable = False
        return out


def element_offset(layout: TerminalLayout, index: int) -> np.ndarray:
    """Offset vector of one 1-based element, meters in the GCS orientation.

    A read-only row of :attr:`TerminalLayout.offsets`.
    """
    if not 1 <= index <= layout.num_elements:
        raise ValueError(f"element index {index} outside [1, {layout.num_elements}]")
    return layout.offsets[index - 1]


@dataclass(frozen=True)
class SceneGeometry:
    """Pointing vectors among the three terminals at the initial time.

    d_bi points from BS element 1 to the IRS center, d_iu from the IRS
    center to USER element 1, d_bu from BS element 1 to USER element 1.
    Exactly two of the three must be supplied; the third is derived from
    the closure d_bu = d_bi + d_iu.
    """

    d_bi: np.ndarray
    d_iu: np.ndarray
    d_bu: np.ndarray

    def __init__(self, d_bi=None, d_iu=None, d_bu=None):
        given = [v is not None for v in (d_bi, d_iu, d_bu)]
        if sum(given) < 2:
            raise ValueError("need at least two of d_bi, d_iu, d_bu")
        if d_bi is not None and d_iu is not None:
            d_bi = np.asarray(d_bi, dtype=float)
            d_iu = np.asarray(d_iu, dtype=float)
            derived_bu = d_bi + d_iu
            if d_bu is not None and not np.array_equal(np.asarray(d_bu, dtype=float), derived_bu):
                raise ValueError("d_bu inconsistent with d_bi + d_iu")
            d_bu = derived_bu
        elif d_bi is None:
            d_iu = np.asarray(d_iu, dtype=float)
            d_bu = np.asarray(d_bu, dtype=float)
            d_bi = d_bu - d_iu
        else:
            d_bi = np.asarray(d_bi, dtype=float)
            d_bu = np.asarray(d_bu, dtype=float)
            d_iu = d_bu - d_bi
        for name, v in (("d_bi", d_bi), ("d_iu", d_iu), ("d_bu", d_bu)):
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
            v.flags.writeable = False
        object.__setattr__(self, "d_bi", d_bi)
        object.__setattr__(self, "d_iu", d_iu)
        object.__setattr__(self, "d_bu", d_bu)


@dataclass(frozen=True)
class RotationAngles:
    """Bearing / downtilt / slant angles of a local coordinate system."""

    bearing: float
    downtilt: float
    slant: float


def rotation_matrices(bearing: np.ndarray, downtilt: np.ndarray,
                      slant: np.ndarray) -> np.ndarray:
    """Stacked R = R_z(bearing) @ R_y(downtilt) @ R_x(slant), shape (n, 3, 3).

    A local-frame (LCS) row vector p is p @ R.T in the GCS.
    """
    ca, sa = np.cos(bearing), np.sin(bearing)
    cb, sb = np.cos(downtilt), np.sin(downtilt)
    cg, sg = np.cos(slant), np.sin(slant)
    n = ca.shape[0]
    out = np.empty((n, 3, 3))
    out[:, 0, 0] = ca * cb
    out[:, 0, 1] = ca * sb * sg - sa * cg
    out[:, 0, 2] = ca * sb * cg + sa * sg
    out[:, 1, 0] = sa * cb
    out[:, 1, 1] = sa * sb * sg + ca * cg
    out[:, 1, 2] = sa * sb * cg - ca * sg
    out[:, 2, 0] = -sb
    out[:, 2, 1] = cb * sg
    out[:, 2, 2] = cb * cg
    return out
