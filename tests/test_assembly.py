import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from irs_gbsm import cli
from irs_gbsm.assembly import apply_steering, cascade, large_scale_factors, phase_model_for
from irs_gbsm.cli import main as cli_main
from irs_gbsm.clusters import realize_subchannel
from irs_gbsm.config import parse_config
from irs_gbsm.irs import SteeringVector, steering_vector
from irs_gbsm.largescale import db_to_linear, path_loss_bu_db
from irs_gbsm.rng import rng_stream
from irs_gbsm.smallscale import los_phasor, subchannel_taps
from tests.conftest import make_config
from tests.field_oracle import reference_ray_field, reference_single_pair

CONFIG_128 = Path(__file__).resolve().parents[1] / "configs" / "cluster_evolution_128.json"
# large-scale amplitudes that keep the cascade and drop the direct term exactly
CASCADE_ONLY = {"cascade_amp": 1.0, "direct_amp": 0.0}


def realize_all(cfg, seed=0):
    return {k: realize_subchannel(cfg, k, rng_stream(seed, "trial", 0, k))
            for k in ("BI", "IU", "BU")}


def subchannel_matrix(real, times, f=0.0):
    """The transfer matrix of the one-pass tap kernel, (T, n_rx, n_tx)."""
    return subchannel_taps(real, times, f)[1]


def end_to_end(times, f, reals, model, large_scale=None):
    """``cascade`` of the three sub-channel matrices under ``model``'s phases."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    h = {kind: subchannel_matrix(real, times, f) for kind, real in reals.items()}
    return cascade(h, model.applied_profile(times), large_scale)


def transfer(real, t, f=0.0, tx_element=1, rx_element=1):
    """H of one element pair at one time, from the field oracle."""
    return reference_single_pair(real, t, f, tx_element, rx_element)["h"][0]


class TestCascade:
    def test_single_element_single_term(self):
        cfg = make_config(irs={"m_x": 1, "m_y": 1})
        reals = realize_all(cfg)
        model = phase_model_for(cfg)
        t = 0.4
        matrix = end_to_end(t, 0.0, reals, model, large_scale=CASCADE_ONLY)
        h_bi = transfer(reals["BI"], t)
        h_iu = transfer(reals["IU"], t)
        theta = model.applied_profile(t)[0]
        expect = h_bi * h_iu * np.exp(-1j * theta)
        assert matrix[0, 0, 0] == pytest.approx(expect, rel=1e-12)

    def test_global_phase_shift_leaves_magnitude(self):
        cfg = make_config(irs={"m_x": 1, "m_y": 1})
        reals = realize_all(cfg)
        model = phase_model_for(cfg)
        h_bi = subchannel_matrix(reals["BI"], 0.0)[0]
        h_iu = subchannel_matrix(reals["IU"], 0.0)[0]
        theta = model.applied_profile(0.0)
        base = (h_iu * np.exp(-1j * theta)[None, :]) @ h_bi
        shifted = (h_iu * np.exp(-1j * (theta + 1.234))[None, :]) @ h_bi
        assert np.abs(shifted[0, 0]) == pytest.approx(np.abs(base[0, 0]), rel=1e-12)

    def test_brute_force_triple_loop_oracle(self):
        cfg = make_config(bs={"num_elements": 2}, irs={"m_x": 2, "m_y": 2},
                          user={"num_elements": 1}, rician_k_db=3.0)
        reals = realize_all(cfg, seed=5)
        model = phase_model_for(cfg)
        times, f = np.array([0.0, 0.8]), 2e6
        matrix = end_to_end(times, f, reals, model)
        assert matrix.shape == (2, 1, 2)
        for i, t in enumerate(times):
            theta = model.applied_profile(t)
            for q in range(1, 3):
                for p in range(1, 2):
                    total = transfer(reals["BU"], t, f, q, p)
                    for r in range(1, 5):
                        total += (transfer(reals["BI"], t, f, q, r)
                                  * transfer(reals["IU"], t, f, r, p)
                                  * np.exp(-1j * theta[r - 1]))
                    assert matrix[i, p - 1, q - 1] == pytest.approx(total, rel=1e-12)

    def test_linearity_in_subchannel_scaling(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 1})
        reals = realize_all(cfg)
        model = phase_model_for(cfg)
        h_bi = subchannel_matrix(reals["BI"], 0.0)[0]
        h_iu = subchannel_matrix(reals["IU"], 0.0)[0]
        phases = np.exp(-1j * model.applied_profile(0.0))
        base = (h_iu * phases[None, :]) @ h_bi
        scaled = ((3.0 * h_iu) * phases[None, :]) @ h_bi
        assert np.allclose(scaled, 3.0 * base, rtol=1e-12)

    def test_coherent_combining_pure_los(self):
        cfg = make_config(rician_k_db=120.0, irs={"m_x": 3, "m_y": 3},
                          geometry={"d_bi_m": [40.0, 5.0, 2.0],
                                    "d_iu_m": [30.0, -12.0, -2.0]})
        reals = realize_all(cfg, seed=7)
        model = phase_model_for(cfg)
        assert model.bits is None
        h_bi = subchannel_matrix(reals["BI"], 0.0)[0]
        h_iu = subchannel_matrix(reals["IU"], 0.0)[0]
        terms = h_iu[0, :] * np.exp(-1j * model.applied_profile(0.0)) * h_bi[:, 0]
        assert np.abs(terms.sum()) == pytest.approx(np.abs(terms).sum(), rel=1e-6)

    def test_quantized_never_beats_continuous_pure_los(self):
        cfg = make_config(rician_k_db=120.0, irs={"m_x": 3, "m_y": 3},
                          geometry={"d_bi_m": [40.0, 5.0, 2.0],
                                    "d_iu_m": [30.0, -12.0, -2.0]})
        reals = realize_all(cfg, seed=8)
        model = phase_model_for(cfg)
        cont = end_to_end(0.0, 0.0, reals, model, large_scale=CASCADE_ONLY)
        disc = end_to_end(0.0, 0.0, reals, dataclasses.replace(model, bits=2),
                          large_scale=CASCADE_ONLY)
        assert np.abs(disc[0, 0, 0]) <= np.abs(cont[0, 0, 0]) * (1 + 1e-12)

    def test_direct_term_toggle(self):
        cfg = make_config()
        reals = realize_all(cfg)
        model = phase_model_for(cfg)
        with_direct = end_to_end(0.0, 0.0, reals, model)
        without = end_to_end(0.0, 0.0, reals, model, large_scale=CASCADE_ONLY)
        assert with_direct[0, 0, 0] - without[0, 0, 0] == pytest.approx(
            transfer(reals["BU"], 0.0), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        cfg = make_config(irs={"m_x": 2, "m_y": 2})
        cfg_small = make_config(irs={"m_x": 1, "m_y": 1})
        reals = realize_all(cfg)
        wrong_model = phase_model_for(cfg_small)
        with pytest.raises(ValueError):
            end_to_end(0.0, 0.0, reals, wrong_model)

    def test_rows_carry_resolution(self, tmp_path, monkeypatch):
        # simulate writes one row per (t, p, q), in C order of cascade's (T, M_U, M_B),
        # from one tap pass per sub-channel that also forms its CIR columns
        raw = {"seed": 3, "irs": {"m_x": 1, "m_y": 1, "phase_bits": 2},
               "bs": {"num_elements": 2}, "time": {"start_s": 0.0, "stop_s": 0.5, "num": 2}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        passes = []

        def counted(real, *args):
            passes.append(real.subchannel)
            return subchannel_taps(real, *args)

        monkeypatch.setattr(cli, "subchannel_taps", counted)
        assert cli_main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--threads", "1"]) == 0
        assert passes == ["BI", "IU", "BU"]
        rows = (tmp_path / "out" / "channel_matrix.csv").read_text().splitlines()[1:]
        cfg = parse_config(raw)
        times = cfg.time_grid()
        matrix = end_to_end(times, 0.0, realize_all(cfg, seed=cfg.seed), phase_model_for(cfg))
        assert rows == [f"{t!r},0.0,{q},1,{v.real!r},{v.imag!r},2bit"
                        for t, h in zip(times.tolist(), matrix.tolist()) for q, v in zip((1, 2), h[0])]


class TestSubchannelMatrix:
    """The tap sum of the CIR taps against the field oracle."""

    @pytest.mark.parametrize("kind", ["BI", "IU", "BU"])
    def test_equals_field_transfer(self, kind):
        cfg = make_config(bs={"num_elements": 2}, irs={"m_x": 3, "m_y": 2},
                          user={"num_elements": 3}, rician_k_db=3.0)
        real = realize_all(cfg, seed=11)[kind]
        times, f = np.array([0.0, 0.3, 1.1]), 2e6
        got = subchannel_matrix(real, times, f)
        n_tx, n_rx = real.tx_layout.num_elements, real.rx_layout.num_elements
        assert got.shape == (3, n_rx, n_tx)
        for q in range(1, n_tx + 1):
            expect = reference_ray_field(real, times, f, tx_element=q, sweep="rx")["transfer"]
            np.testing.assert_allclose(got[:, :, q - 1], expect.T, rtol=1e-12, atol=0)

    def test_no_visible_ray_leaves_the_los(self):
        cfg = make_config(rician_k_db=3.0, clusters={"birth_rate": 0.01})
        real = realize_all(cfg)["BI"]
        assert real.num_rays == 0
        k = real.k_factor
        expect = np.sqrt(k / (k + 1.0)) * los_phasor(real, 0.2, real.fc_hz)[0, 0]
        assert subchannel_matrix(real, 0.2)[0, 0, 0] == expect

    def test_large_irs_allocates_no_ray_element_field(self):
        # the cluster parameters of the 128 x 128 config on a 32 x 32 surface:
        # about 8600 BI and 7900 IU rays.  Dense n_rays x E field arrays take
        # 49 B per (ray, element): 432 MB for BI.  The tap kernel's blocks plus
        # the CIR columns it fills in the same pass peak at about 80 MB (BI)
        # and 70 MB (IU), and the pass reads visibility from its sparse
        # entries, never from the dense grid
        raw = json.loads(CONFIG_128.read_text())
        raw["irs"].update(m_x=32, m_y=32)
        cfg = parse_config(raw)
        reals = realize_all(cfg, seed=cfg.seed)
        for kind in ("BI", "IU"):
            tracemalloc.start()
            try:
                h = subchannel_matrix(reals[kind], 0.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert h.shape[1] * h.shape[2] == 1024
            assert peak < 100e6, f"{kind} peak {peak / 1e6:.1f} MB"
            assert "grid" not in reals[kind].visibility.__dict__


class TestSteering:
    def test_identity_for_single_antenna(self):
        h = np.array([[0.3 - 0.1j]])
        sv = SteeringVector(np.array([1.0 + 0j]), (0.0, 0.0))
        assert apply_steering(h, sv)[0] == h[0, 0]

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        layout_cfg = make_config(bs={"num_elements": 4})
        sv = steering_vector(layout_cfg.bs.layout("BS"), (0.3, 0.1),
                             layout_cfg.wavelength)
        out = apply_steering(h, sv)
        assert np.linalg.norm(out) <= np.linalg.norm(h, "fro") * 2.0 + 1e-12

    def test_hand_product(self):
        h = np.array([[1.0 + 0j, 2.0], [0.5j, 1.0 - 1.0j]])
        sv = SteeringVector(np.array([np.exp(0.3j), np.exp(-1.1j)]), (0.0, 0.0))
        expect = np.array([
            h[0, 0] * sv.coefficients[0] + h[0, 1] * sv.coefficients[1],
            h[1, 0] * sv.coefficients[0] + h[1, 1] * sv.coefficients[1]])
        assert np.allclose(apply_steering(h, sv), expect, rtol=1e-12)

    def test_mismatch_rejected(self):
        sv = SteeringVector(np.ones(3, dtype=complex), (0.0, 0.0))
        with pytest.raises(ValueError):
            apply_steering(np.ones((2, 2), dtype=complex), sv)


class TestLargeScale:
    def test_factor_composition(self):
        cfg = make_config(large_scale={"enabled": True})
        ls = large_scale_factors(cfg, rng_stream(cfg.seed, "ls"))
        assert ls["cascade_amp"] ** 2 == pytest.approx(
            ls["sf_bi"] * ls["sf_iu"] * ls["pl_biu"], rel=1e-12)
        assert ls["direct_amp"] ** 2 == pytest.approx(
            ls["sf_bu"] * db_to_linear(ls["pl_bu_db"]), rel=1e-12)

    def test_path_loss_matches_direct_formula(self):
        cfg = make_config()
        ls = large_scale_factors(cfg, rng_stream(1, "ls"))
        d_km = np.linalg.norm(cfg.scene().d_bu) / 1e3
        assert ls["pl_bu_db"] == pytest.approx(
            path_loss_bu_db(d_km, cfg.fc_ghz, cfg.large_scale.params("bu")), rel=1e-12)

    def test_amplitudes_scale_cascade(self):
        cfg = make_config(irs={"m_x": 1, "m_y": 1})
        reals = realize_all(cfg)
        model = phase_model_for(cfg)
        ls = large_scale_factors(cfg, rng_stream(2, "ls"))
        plain = end_to_end(0.0, 0.0, reals, model, large_scale=CASCADE_ONLY)
        scaled = end_to_end(0.0, 0.0, reals, model, large_scale=dict(ls, direct_amp=0.0))
        assert scaled[0, 0, 0] == pytest.approx(
            ls["cascade_amp"] * plain[0, 0, 0], rel=1e-12)
