import math

import numpy as np
import pytest

from irs_gbsm.geometry import (
    RotationAngles,
    SceneGeometry,
    TerminalLayout,
    element_offset,
    rotation_matrices,
    unflatten_index,
)


def rotation_matrix(angles: RotationAngles) -> np.ndarray:
    """R = R_z(bearing) @ R_y(downtilt) @ R_x(slant) of one angle triple (oracle)."""
    ca, sa = math.cos(angles.bearing), math.sin(angles.bearing)
    cb, sb = math.cos(angles.downtilt), math.sin(angles.downtilt)
    cg, sg = math.cos(angles.slant), math.sin(angles.slant)
    r_z = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    r_y = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    r_x = np.array([[1.0, 0.0, 0.0], [0.0, cg, -sg], [0.0, sg, cg]])
    return r_z @ r_y @ r_x


def rotations(angles) -> np.ndarray:
    """rotation_matrices of an (n, 3) array of (bearing, downtilt, slant) rows."""
    return rotation_matrices(*np.asarray(angles, dtype=float).reshape(-1, 3).T)


class TestIndexMaps:
    @pytest.mark.parametrize("r,m_y,xy", [(1, 4, (1, 1)), (7, 4, (2, 3)), (8, 4, (2, 4))])
    def test_unflatten_examples(self, r, m_y, xy):
        # (8, 4) is the column-boundary case where a naive mod split yields y=0
        assert unflatten_index(r, m_y) == xy

    def test_round_trip_exhaustive(self):
        for m_x in range(1, 17):
            for m_y in range(1, 17):
                for x in range(1, m_x + 1):
                    for y in range(1, m_y + 1):
                        r = (x - 1) * m_y + y  # row-major
                        assert 1 <= r <= m_x * m_y
                        assert unflatten_index(r, m_y, m_x) == (x, y)

    def test_unflatten_range_errors(self):
        with pytest.raises(ValueError):
            unflatten_index(0, 4)
        with pytest.raises(ValueError):
            unflatten_index(13, 4, m_x=3)


class TestElementOffsets:
    def test_bs_first_element_is_origin(self):
        layout = TerminalLayout.linear("BS", 4, 0.5, 0.7, -0.2)
        assert np.allclose(element_offset(layout, 1), 0.0)

    def test_bs_second_element_axis_aligned(self):
        layout = TerminalLayout.linear("BS", 2, 0.5, 0.0, 0.0)
        assert np.allclose(element_offset(layout, 2), [0.5, 0.0, 0.0])

    def test_irs_center_element_is_origin(self):
        layout = TerminalLayout.planar(3, 3, 0.01, 0.01, 0.0, 0.0, np.pi / 2, 0.0)
        assert np.allclose(element_offset(layout, 5), 0.0)  # (x, y) = (2, 2)

    def test_linear_norm_law(self):
        layout = TerminalLayout.linear("USER", 6, 0.37, 1.1, 0.4)
        for q in range(1, 7):
            norm = np.linalg.norm(element_offset(layout, q))
            assert norm == pytest.approx((q - 1) * 0.37, abs=1e-12)

    def test_irs_offset_matches_axis_decomposition(self):
        layout = TerminalLayout.planar(4, 5, 0.02, 0.03, 0.3, 0.2, 1.8, -0.4)
        l_x, l_y = layout.axis_vector(0), layout.axis_vector(1)
        for r in range(1, 21):
            x, y = unflatten_index(r, 5)
            expect = ((4 + 1) / 2 - x) * l_x + (y - (5 + 1) / 2) * l_y
            assert np.allclose(element_offset(layout, r), expect, atol=1e-12)

    def test_irs_axis_norm_law(self):
        layout = TerminalLayout.planar(5, 5, 0.02, 0.03, 0.3, 0.2, 1.8, -0.4)
        center, along_x, along_y = 13, 18, 14  # (x, y) = (3, 3), (4, 3), (3, 4)
        assert np.linalg.norm(element_offset(layout, along_x)) == pytest.approx(0.02, abs=1e-12)
        assert np.linalg.norm(element_offset(layout, along_y)) == pytest.approx(0.03, abs=1e-12)
        assert np.allclose(element_offset(layout, center), 0.0)

    def test_vectorized_matches_scalar(self):
        # the per-element form each offset was once computed by, as oracle
        def per_element(layout, index):
            if layout.kind == "IRS":
                m_x, m_y = layout.counts
                x, y = unflatten_index(index, m_y, m_x)
                return (((m_x + 1) / 2.0 - x) * layout.axis_vector(0)
                        + (y - (m_y + 1) / 2.0) * layout.axis_vector(1))
            return (index - 1) * layout.axis_vector(0)

        for layout in (TerminalLayout.linear("BS", 5, 0.4, 0.3, 0.1),
                       TerminalLayout.linear("USER", 7, 0.0024, 1.7, -0.6),
                       TerminalLayout.planar(3, 4, 0.02, 0.05, 0.1, -0.2, 1.4, 0.3),
                       TerminalLayout.planar(8, 5, 0.0024, 0.0024, 0.0, np.pi / 3,
                                             np.pi / 2, np.pi / 6)):
            stacked = layout.offsets
            assert stacked is layout.offsets  # built once
            assert not stacked.flags.writeable
            for idx in range(1, layout.num_elements + 1):
                assert np.array_equal(stacked[idx - 1], per_element(layout, idx))
                assert np.array_equal(element_offset(layout, idx), per_element(layout, idx))

    def test_invalid_index(self):
        layout = TerminalLayout.linear("BS", 3, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            element_offset(layout, 0)
        with pytest.raises(ValueError):
            element_offset(layout, 4)

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            TerminalLayout.linear("BS", 0, 0.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            TerminalLayout.linear("USER", 2, -0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            TerminalLayout("IRS", (2,), (0.1,), (0.0,), (0.0,))
        with pytest.raises(ValueError):
            TerminalLayout.linear("DRONE", 2, 0.1, 0.0, 0.0)

    def test_angles_wrapped(self):
        layout = TerminalLayout.linear("BS", 2, 0.5, 3 * np.pi, -np.pi)
        assert -np.pi <= layout.azimuths[0] < np.pi
        assert -np.pi <= layout.elevations[0] < np.pi


class TestRotation:
    def test_identity(self):
        assert np.allclose(rotations([0, 0, 0])[0], np.eye(3))

    def test_pure_bearing_quarter_turn(self):
        r = rotations([np.pi / 2, 0, 0])[0]
        assert np.allclose(r, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-15)

    def test_orthonormal_and_proper(self):
        r = rotations(np.random.default_rng(3).uniform(-np.pi, np.pi, (25, 3)))
        assert np.allclose(r.transpose(0, 2, 1) @ r, np.eye(3), rtol=0, atol=1e-12)
        assert np.allclose(np.linalg.det(r), 1.0, rtol=0, atol=1e-12)

    def test_matches_three_factor_product(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b, g = rng.uniform(-np.pi, np.pi, 3)
            r_z = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0], [0, 0, 1]])
            r_y = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
            r_x = np.array([[1, 0, 0], [0, np.cos(g), -np.sin(g)], [0, np.sin(g), np.cos(g)]])
            assert np.allclose(rotations([a, b, g])[0], r_z @ r_y @ r_x, atol=1e-14)

    def test_stacked_matches_scalar(self):
        rng = np.random.default_rng(5)
        angles = rng.uniform(-np.pi, np.pi, (10, 3))
        stacked = rotation_matrices(angles[:, 0], angles[:, 1], angles[:, 2])
        for i in range(10):
            assert np.allclose(stacked[i], rotation_matrix(RotationAngles(*angles[i])),
                               atol=1e-14)


class TestSceneGeometry:
    def test_derive_bu(self):
        s = SceneGeometry(d_bi=[1.0, 2.0, 3.0], d_iu=[4.0, 5.0, 6.0])
        assert np.array_equal(s.d_bu, np.array([5.0, 7.0, 9.0]))

    def test_derive_iu(self):
        s = SceneGeometry(d_bi=[1.0, 0.0, 0.0], d_bu=[3.0, 1.0, 0.0])
        assert np.array_equal(s.d_iu, np.array([2.0, 1.0, 0.0]))

    def test_derive_bi(self):
        s = SceneGeometry(d_iu=[1.0, 1.0, 0.0], d_bu=[3.0, 1.0, 0.0])
        assert np.array_equal(s.d_bi, np.array([2.0, 0.0, 0.0]))

    def test_closure_exact_in_derivation_direction(self):
        s = SceneGeometry(d_bi=[0.1, 0.2, 0.3], d_iu=[0.4, 0.5, 0.6])
        assert np.array_equal(s.d_bu, s.d_bi + s.d_iu)
        s2 = SceneGeometry(d_bi=[0.1, 0.2, 0.3], d_bu=[0.7, 0.9, 1.1])
        assert np.array_equal(s2.d_iu, s2.d_bu - s2.d_bi)

    def test_requires_two(self):
        with pytest.raises(ValueError):
            SceneGeometry(d_bi=[1.0, 0.0, 0.0])

    def test_inconsistent_triple_rejected(self):
        with pytest.raises(ValueError):
            SceneGeometry(d_bi=[1, 0, 0], d_iu=[1, 0, 0], d_bu=[3, 0, 0])
