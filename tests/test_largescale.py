import numpy as np
import pytest
from scipy import stats as sstats

from irs_gbsm.largescale import (
    LargeScaleParams,
    db_to_linear,
    path_loss_bu_db,
    sample_shadow_fading,
)


class TestShadowFading:
    def test_degenerate_sigma_zero(self):
        params = LargeScaleParams(sf_sigma_db=0.0, sf_mu_db=0.0)
        rng = np.random.default_rng(0)
        assert sample_shadow_fading(params, rng) == pytest.approx(1.0)

    def test_degenerate_mean_20db(self):
        params = LargeScaleParams(sf_sigma_db=0.0, sf_mu_db=20.0)
        rng = np.random.default_rng(0)
        assert sample_shadow_fading(params, rng) == pytest.approx(10.0)

    def test_ks_against_closed_form_cdf(self):
        params = LargeScaleParams(sf_sigma_db=4.0, sf_mu_db=1.0)
        rng = np.random.default_rng(42)
        samples = sample_shadow_fading(params, rng, size=1_000_000)

        def cdf(x):
            return sstats.norm.cdf((20.0 * np.log10(x) - params.sf_mu_db)
                                   / params.sf_sigma_db)

        ks = sstats.kstest(samples, cdf)
        assert ks.statistic < 0.01

    def test_db_mean_recovers_mu(self):
        params = LargeScaleParams(sf_sigma_db=6.0, sf_mu_db=-3.0)
        rng = np.random.default_rng(7)
        n = 200_000
        mean_db = np.mean(20.0 * np.log10(sample_shadow_fading(params, rng, size=n)))
        assert abs(mean_db - params.sf_mu_db) < 3 * params.sf_sigma_db / np.sqrt(n)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            LargeScaleParams(sf_sigma_db=-1.0)


class TestPathLoss:
    def test_one_km_one_ghz(self):
        params = LargeScaleParams(sf_sigma_db=0, pl_a=22.0, pl_b=28.0, pl_c=20.0)
        assert path_loss_bu_db(1.0, 1.0, params) == pytest.approx(-28.0)

    def test_ten_km_one_ghz(self):
        params = LargeScaleParams(sf_sigma_db=0, pl_a=22.0, pl_b=28.0, pl_c=20.0)
        assert path_loss_bu_db(10.0, 1.0, params) == pytest.approx(-50.0)

    def test_direct_arithmetic_case(self):
        params = LargeScaleParams(sf_sigma_db=0, pl_a=22.0, pl_b=28.0, pl_c=20.0)
        expect = 22.0 - 28.0 - 20.0 * np.log10(2.0)
        got = path_loss_bu_db(0.1, 2.0, params)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(-12.0206, abs=5e-5)

    def test_monotone_in_distance_and_frequency(self):
        params = LargeScaleParams(sf_sigma_db=0, pl_a=22.0, pl_b=28.0, pl_c=20.0)
        d = np.linspace(0.05, 5.0, 40)
        pl_d = [path_loss_bu_db(x, 2.0, params) for x in d]
        assert np.all(np.diff(pl_d) < 0)
        f = np.linspace(0.5, 100.0, 40)
        pl_f = [path_loss_bu_db(1.0, x, params) for x in f]
        assert np.all(np.diff(pl_f) < 0)

    def test_domain_errors(self):
        params = LargeScaleParams(sf_sigma_db=0)
        with pytest.raises(ValueError):
            path_loss_bu_db(0.0, 1.0, params)
        with pytest.raises(ValueError):
            path_loss_bu_db(1.0, -2.0, params)

    def test_linear_conversion(self):
        assert db_to_linear(-30.0) == pytest.approx(1e-3)
        assert db_to_linear(0.0) == 1.0
