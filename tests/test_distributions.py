"""Distribution functions against scipy oracles and round-trip identities."""

import numpy as np
import pytest
import scipy.special
import scipy.stats

from serieslm.distributions import (
    chisq_cdf,
    chisq_quantile,
    chisq_sf,
    normal_quantile,
    normal_sf,
)


class TestNormal:
    def test_quantile_reference_value(self):
        # 5% one-sided critical value
        assert normal_quantile(0.95) == pytest.approx(1.645, abs=5e-4)

    @pytest.mark.parametrize("p", np.linspace(1e-10, 1 - 1e-10, 41).tolist()
                             + [1e-300, 1 - 1e-16, 0.025, 0.975])
    def test_quantile_vs_scipy(self, p):
        assert normal_quantile(p) == pytest.approx(
            scipy.stats.norm.ppf(p), abs=1e-10)

    def test_quantile_vectorized(self):
        p = np.linspace(0.001, 0.999, 997)
        np.testing.assert_allclose(normal_quantile(p), scipy.stats.norm.ppf(p),
                                   atol=1e-12)

    def test_round_trip(self):
        for p in np.linspace(0.0005, 0.9995, 57):
            assert scipy.special.ndtr(normal_quantile(p)) == pytest.approx(p, abs=1e-8)

    def test_upper_tail_keeps_relative_accuracy(self):
        x = np.array([-3.0, 0.0, 2.0, 9.0, 20.0, 37.0])
        np.testing.assert_allclose(normal_sf(x), scipy.stats.norm.sf(x),
                                   rtol=1e-12)
        assert normal_sf(20.0) > 0.0  # 1 - cdf cancels to 0 here

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, np.nan])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            normal_quantile(p)


class TestIncompleteGamma:
    """The chi-square cdf as the regularized incomplete gamma P(df/2, x/2)."""

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 55.0, 200.0])
    def test_vs_scipy(self, a):
        for x in [1e-8, 0.1, 0.5 * a, a, a + 1.0, 2.0 * a, 10.0 * a]:
            assert chisq_cdf(2.0 * x, 2.0 * a) == pytest.approx(
                scipy.special.gammainc(a, x), abs=1e-12)

    def test_edges(self):
        assert chisq_cdf(0.0, 6.0) == 0.0
        with pytest.raises(ValueError):
            chisq_cdf(2.0, -2.0)
        with pytest.raises(ValueError):
            chisq_cdf(-2.0, 2.0)


class TestChiSquare:
    @pytest.mark.parametrize("df", [1, 2, 5, 11, 20, 43, 89])
    def test_cdf_vs_scipy(self, df):
        x = np.linspace(0.0, 4.0 * df, 37)
        np.testing.assert_allclose(chisq_cdf(x, df),
                                   scipy.stats.chi2.cdf(x, df), atol=1e-10)

    @pytest.mark.parametrize("df", [1, 2, 5, 11, 20, 43, 89])
    @pytest.mark.parametrize("p", [0.001, 0.05, 0.5, 0.9, 0.95, 0.99, 0.9999])
    def test_quantile_round_trip(self, df, p):
        x = chisq_quantile(p, df)
        assert chisq_cdf(x, df) == pytest.approx(p, abs=1e-8)
        assert x == pytest.approx(scipy.stats.chi2.ppf(p, df), rel=1e-9)

    @pytest.mark.parametrize("df", [1, 11, 89])
    def test_upper_tail_keeps_relative_accuracy(self, df):
        x = np.array([0.0, 0.5 * df, 2.0 * df, 10.0 * df + 100.0, 20.0 * df + 200.0])
        np.testing.assert_allclose(chisq_sf(x, df), scipy.stats.chi2.sf(x, df),
                                   rtol=1e-12)
        np.testing.assert_allclose(chisq_sf(x, df) + chisq_cdf(x, df), 1.0,
                                   atol=1e-15)

    def test_monotone_cdf(self):
        x = np.linspace(0.0, 80.0, 200)
        vals = chisq_cdf(x, 11)
        assert np.all(np.diff(vals) >= 0.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            chisq_cdf(-1.0, 5)
        with pytest.raises(ValueError):
            chisq_sf(np.inf, 5)
        with pytest.raises(ValueError):
            chisq_sf(3.0, 0)
        with pytest.raises(ValueError):
            normal_sf(np.nan)
        with pytest.raises(ValueError):
            chisq_quantile(0.0, 5)
        with pytest.raises(ValueError):
            chisq_quantile(0.5, 0)

    def test_normal_recentring_agreement(self):
        # With many degrees of freedom the chi-square critical value is close
        # to the normal-rule value r + z * sqrt(2 r).
        r = 43
        z = normal_quantile(0.95)
        approx = r + z * np.sqrt(2.0 * r)
        assert abs(chisq_quantile(0.95, r) - approx) / r <= 0.05
