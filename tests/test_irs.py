import numpy as np
import pytest

from irs_gbsm.geometry import TerminalLayout
from irs_gbsm.irs import (
    IrsPhaseModel,
    PhasePlan,
    cascaded_path_loss,
    optimal_phase,
    phase_set,
    quantize_phase,
    received_power,
    steering_vector,
)

WL = 0.005  # 5 mm carrier wavelength for the deterministic checks


def circ_dist(a, b):
    return np.abs(np.mod(a - b + np.pi, 2 * np.pi) - np.pi)


class TestOptimalPhase:
    def test_two_wavelengths_round_trip(self):
        assert optimal_phase(WL, WL, WL) == pytest.approx(0.0, abs=1e-12)

    def test_quarter_wavelength_excess(self):
        assert optimal_phase(1.25 * WL, WL, WL) == pytest.approx(np.pi / 2, rel=1e-12)

    def test_half_wavelength_total(self):
        assert optimal_phase(0.25 * WL, 0.25 * WL, WL) == pytest.approx(np.pi, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimal_phase(0.0, 1.0, WL)
        with pytest.raises(ValueError):
            optimal_phase(1.0, -1.0, WL)
        with pytest.raises(ValueError):
            optimal_phase(1.0, 1.0, 0.0)


class TestQuantizePhase:
    def test_two_bit_set(self):
        assert np.allclose(phase_set(2), [np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4,
                                          7 * np.pi / 4])

    def test_examples(self):
        assert quantize_phase(0.8, 2) == pytest.approx(np.pi / 4)
        assert quantize_phase(3.0, 2) == pytest.approx(3 * np.pi / 4)

    def test_exact_tie_goes_to_smaller_value(self):
        # phi = 0 sits exactly between pi/4 and 7pi/4 (circular distance pi/4
        # to both, verified by scanning the candidate set); the deterministic
        # rule picks the smaller member.
        levels = phase_set(2)
        dist = circ_dist(0.0, levels)
        tied = levels[np.isclose(dist, dist.min(), atol=1e-12)]
        assert len(tied) == 2 and tied[0] == pytest.approx(np.pi / 4) \
            and tied[1] == pytest.approx(7 * np.pi / 4)
        assert quantize_phase(0.0, 2) == pytest.approx(np.pi / 4)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        for bits in (1, 2, 3):
            phi = rng.uniform(0, 2 * np.pi, 200)
            once = quantize_phase(phi, bits)
            assert np.array_equal(quantize_phase(once, bits), once)

    def test_output_in_level_set(self):
        rng = np.random.default_rng(1)
        phi = rng.uniform(-10, 10, 500)
        out = quantize_phase(phi, 2)
        assert np.isin(np.round(out, 12), np.round(phase_set(2), 12)).all()

    def test_quantization_error_bounded(self):
        rng = np.random.default_rng(2)
        phi = rng.uniform(0, 2 * np.pi, 500)
        err = circ_dist(quantize_phase(phi, 2), phi)
        assert np.all(err <= np.pi / 4 + 1e-12)

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            quantize_phase(1.0, 0)


class TestPhasePlan:
    def test_phases_wrapped_and_quantized(self):
        plan = PhasePlan(np.array([0.1, 7.0, -0.5]), bits=2, m_y=3)
        assert np.all(plan.raw_phases >= 0) and np.all(plan.raw_phases < 2 * np.pi)
        assert np.isin(np.round(plan.phases, 12), np.round(phase_set(2), 12)).all()

    def test_continuous_passthrough(self):
        plan = PhasePlan(np.array([0.1, 1.0]))
        assert np.array_equal(plan.phases, plan.raw_phases)

    def test_rows_layout(self):
        plan = PhasePlan(np.array([0.1, 0.2, 0.3, 0.4]), bits=2, m_y=2)
        rows = list(plan.rows())
        assert [r[:3] for r in rows] == [(1, 1, 1), (2, 1, 2), (3, 2, 1), (4, 2, 2)]
        for _, _, _, raw, quant in rows:
            assert quant == pytest.approx(np.pi / 4)
            assert 0 <= raw < 2 * np.pi


class TestReceivedPower:
    def layout(self, m=1):
        return TerminalLayout.planar(m, m, 0.002, 0.002, 0.0, 0.0, np.pi / 2, 0.0)

    def test_single_element_optimal(self):
        d = 25.0
        layout = self.layout(1)
        phi = optimal_phase(d, d, WL)
        expect = 0.002 * 0.002 * WL**2 / (64 * np.pi**3 * d**4)
        assert received_power(1.0, layout, [d], [d], [phi], WL) == pytest.approx(
            expect, rel=1e-12, abs=0)

    def test_any_plan_below_optimal(self):
        rng = np.random.default_rng(3)
        layout = self.layout(3)
        r_t = rng.uniform(10, 50, 9)
        r_r = rng.uniform(10, 50, 9)
        best = received_power(2.0, layout, r_t, r_r, optimal_phase(r_t, r_r, WL), WL)
        for _ in range(25):
            p = received_power(2.0, layout, r_t, r_r, rng.uniform(0, 2 * np.pi, 9), WL)
            assert p <= best * (1 + 1e-9)

    def test_four_equal_elements_give_16x(self):
        # coherent sum of 4 equal unit-phase terms, verified by direct
        # evaluation of the power expression
        layout = self.layout(2)
        d = 30.0
        r = np.full(4, d)
        phi = optimal_phase(r, r, WL)
        single = received_power(1.0, self.layout(1), [d], [d], [phi[0]], WL)
        terms = np.exp(-1j * (2 * np.pi * (r + r) - WL * phi) / WL) / (d * d)
        direct = 1.0 * 0.002 * 0.002 * WL**2 / (64 * np.pi**3) * np.abs(terms.sum()) ** 2
        quad = received_power(1.0, layout, r, r, phi, WL)
        assert quad == pytest.approx(16 * single, rel=1e-12, abs=0)
        assert quad == pytest.approx(direct, rel=1e-12, abs=0)

    def test_quantized_plan_positive_and_below_optimal(self):
        rng = np.random.default_rng(6)
        layout = self.layout(2)
        r_t = rng.uniform(5, 50, 4)
        r_r = rng.uniform(5, 50, 4)
        phi = optimal_phase(r_t, r_r, WL)
        best = received_power(1.0, layout, r_t, r_r, phi, WL)
        quant = received_power(1.0, layout, r_t, r_r, quantize_phase(phi, 2), WL)
        assert 0.0 < quant <= best * (1 + 1e-9)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(4)
        layout = self.layout(2)
        r_t = rng.uniform(5, 50, 4)
        r_r = rng.uniform(5, 50, 4)
        phi = rng.uniform(0, 2 * np.pi, 4)
        base = received_power(1.0, layout, r_t, r_r, phi, WL)
        shifted = received_power(1.0, layout, r_t, r_r, phi + 1.234, WL)
        assert shifted == pytest.approx(base, rel=1e-9, abs=0)

    def test_domain_errors(self):
        layout = self.layout(1)
        with pytest.raises(ValueError):
            received_power(1.0, layout, [0.0], [1.0], [0.0], WL)
        with pytest.raises(ValueError):
            received_power(1.0, TerminalLayout.linear("BS", 1, 0.1, 0, 0),
                           [1.0], [1.0], [0.0], WL)


class TestCascadedPathLoss:
    def layout(self, m=1):
        return TerminalLayout.planar(m, m, 0.002, 0.002, 0.0, 0.0, np.pi / 2, 0.0)

    def test_unit_distances(self):
        expect = 0.002 * 0.002 * WL**2 / (64 * np.pi**3)
        assert cascaded_path_loss(self.layout(1), [1.0], [1.0], WL) == pytest.approx(
            expect, rel=1e-12, abs=0)

    def test_matches_received_power_at_optimum(self):
        rng = np.random.default_rng(5)
        layout = self.layout(2)
        r_t = rng.uniform(5, 40, 4)
        r_r = rng.uniform(5, 40, 4)
        pl = cascaded_path_loss(layout, r_t, r_r, WL)
        pr = received_power(1.0, layout, r_t, r_r, optimal_phase(r_t, r_r, WL), WL)
        assert pl == pytest.approx(pr, rel=1e-12, abs=0)

    def test_distance_scaling(self):
        layout = self.layout(2)
        r = np.array([10.0, 12.0, 14.0, 16.0])
        near = cascaded_path_loss(layout, r, r, WL)
        far = cascaded_path_loss(layout, 2 * r, 2 * r, WL)
        assert far == pytest.approx(near / 16.0, rel=1e-12, abs=0)


class TestSteeringVector:
    def test_single_element_unity(self):
        layout = TerminalLayout.linear("BS", 1, WL / 2, 0.0, 0.0)
        sv = steering_vector(layout, (0.4, 0.1), WL)
        assert sv.coefficients[0] == pytest.approx(1.0 + 0j)

    def test_unit_modulus(self):
        layout = TerminalLayout.linear("BS", 8, WL / 2, 0.3, -0.1)
        sv = steering_vector(layout, (1.2, 0.5), WL, doppler=100.0, t=0.37)
        assert np.allclose(np.abs(sv.coefficients), 1.0, atol=1e-12)

    def test_half_wavelength_broadside_pair(self):
        # two elements lambda/2 apart along x, departure along x: the dot
        # product <e, delta_r> = lambda/2 so the phase difference is pi
        layout = TerminalLayout.linear("BS", 2, WL / 2, 0.0, 0.0)
        sv = steering_vector(layout, (0.0, 0.0), WL)
        dphi = np.angle(sv.coefficients[1] / sv.coefficients[0])
        e = np.array([1.0, 0.0, 0.0])
        delta_r = np.array([WL / 2, 0.0, 0.0])
        oracle = 2 * np.pi / WL * float(e @ delta_r)
        assert abs(dphi) == pytest.approx(np.pi, abs=1e-12)
        assert np.exp(1j * dphi) == pytest.approx(np.exp(1j * oracle), abs=1e-12)

    def test_doppler_term(self):
        layout = TerminalLayout.linear("BS", 2, WL / 2, 0.0, 0.0)
        still = steering_vector(layout, (0.7, 0.2), WL, doppler=50.0, t=0.0)
        later = steering_vector(layout, (0.7, 0.2), WL, doppler=50.0, t=0.01)
        rotation = later.coefficients / still.coefficients
        assert np.allclose(rotation, np.exp(1j * 2 * np.pi * 50.0 * 0.01), atol=1e-12)


class TestPhaseModel:
    def model(self, bits=None, v_bs=0.0, v_user=0.0):
        layout = TerminalLayout.planar(2, 2, WL / 2, WL / 2, 0.0, 0.0, np.pi / 2, 0.0)
        return IrsPhaseModel(
            irs_layout=layout, d_bi=np.array([40.0, 0.0, 0.0]),
            d_iu=np.array([30.0, 20.0, 0.0]), wavelength=WL,
            v_bs=np.array([v_bs, 0.0, 0.0]), v_user=np.array([0.0, v_user, 0.0]),
            bits=bits)

    def test_static_is_time_invariant(self):
        m = self.model()
        assert np.allclose(m.profile(0.0), m.profile(17.3), atol=1e-12)

    def test_equals_optimal_phase_of_distance_sum(self):
        m = self.model(v_bs=3.0, v_user=2.0)
        t = 0.8
        for r in range(1, 5):
            from irs_gbsm.geometry import element_offset
            l_r = element_offset(m.irs_layout, r)
            d1 = np.linalg.norm(m.d_bi + l_r - m.v_bs * t)
            d2 = np.linalg.norm(m.d_iu - l_r + m.v_user * t)
            assert m.applied_profile(t)[r - 1] == pytest.approx(
                optimal_phase(d1, d2, WL), abs=1e-9)

    def test_quantized_within_cell_radius(self):
        cont = self.model(bits=None)
        disc = self.model(bits=2)
        err = circ_dist(cont.applied_profile(0.3), disc.applied_profile(0.3))
        assert np.all(err <= np.pi / 4 + 1e-12)

    def test_degenerate_geometry_rejected(self):
        layout = TerminalLayout.planar(1, 1, WL / 2, WL / 2, 0.0, 0.0, np.pi / 2, 0.0)
        m = IrsPhaseModel(irs_layout=layout, d_bi=np.zeros(3),
                          d_iu=np.array([1.0, 0, 0]), wavelength=WL)
        with pytest.raises(ValueError):
            m.profile(0.0)

    def test_plan_round_trip(self):
        m = self.model(bits=2)
        plan = m.plan(0.0)
        assert plan.bits == 2 and plan.timestamp == 0.0
        assert np.allclose(plan.raw_phases, m.profile(0.0))
        assert np.allclose(plan.phases, m.applied_profile(0.0))
