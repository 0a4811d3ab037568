"""Statistic variants against dense explicit-inverse oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.linalg
import scipy.special
import scipy.stats

from serieslm.design import simulation_design
from serieslm import lmtest, tuning
from serieslm.distributions import chisq_cdf
from serieslm.errors import ExactFitError, SingularMomentMatrixError
from serieslm.mc import DgpSpec, gen_sample
from serieslm.lmtest import (
    EXACT_FIT_RTOL,
    VARIANTS,
    SampleFit,
    check_not_exact_fit,
    floored_squares,
    lm_statistic,
    run_test,
    standardize,
    variant_statistic,
)
from serieslm.regress import ols_fit, residualize_block
from serieslm.tuning import TuningGrid, data_driven_test

from oracles import lm_statistic_nr2


def make_instance(seed, n, m, r, het=True):
    rng = np.random.default_rng(seed)
    w = np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))])
    z = rng.normal(size=(n, r))
    sigma2 = 0.5 + rng.random(n) ** 2 if het else np.ones(n)
    y = w @ rng.normal(size=m) + np.sqrt(sigma2) * rng.normal(size=n)
    fit = ols_fit(w, y)
    zt = residualize_block(fit, z)
    return w, z, y, fit, zt, sigma2


def dense_quadform(u, inner):
    return float(u @ np.linalg.inv(inner) @ u)


class TestLmStatistic:
    def test_orthogonal_scores_give_zero(self):
        rng = np.random.default_rng(31)
        w = np.column_stack([np.ones(40), rng.normal(size=(40, 2))])
        z = rng.normal(size=(40, 3))
        u = rng.normal(size=40)
        basis = np.column_stack([w, z])
        u -= basis @ np.linalg.lstsq(basis, u, rcond=None)[0]
        fit = ols_fit(w, w @ np.ones(3) + u)
        zt = residualize_block(fit, z)
        stat = lm_statistic(fit.residuals, zt, np.ones(40))
        assert abs(stat) <= 1e-10

    def test_hand_computable(self):
        # identity-like score design with unit weights
        zt = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        resid = np.array([1.0, 1.0, 1.0])
        stat = lm_statistic(resid, zt, np.ones(3))
        assert stat == pytest.approx(2.0, abs=1e-12)

    def test_dense_oracle(self):
        _, _, _, fit, zt, _ = make_instance(32, 40, 4, 5)
        weights = floored_squares(fit.residuals)[0]
        oracle = dense_quadform(zt.T @ fit.residuals, (zt * weights[:, None]).T @ zt)
        stat = lm_statistic(fit.residuals, zt, weights)
        assert stat == pytest.approx(oracle, rel=1e-9)
        assert stat >= 0.0

    def test_singular_inner_matrix(self):
        rng = np.random.default_rng(33)
        zt = rng.normal(size=(30, 2))
        zt = np.column_stack([zt, zt[:, 0]])
        with pytest.raises(SingularMomentMatrixError):
            lm_statistic(rng.normal(size=30), zt, np.ones(30))


class TestQuadform:
    """The direct LAPACK calls against scipy.linalg's validated wrappers."""

    @pytest.mark.parametrize("r", [5, 19, 43, 89])
    def test_bitwise_equal_to_scipy(self, r):
        rng = np.random.default_rng(r)
        for _ in range(25):
            a = rng.normal(size=(3 * r, r)) * rng.uniform(0.1, 10.0, size=r)
            inner = a.T @ a
            u = rng.normal(size=(r, 2))
            for mat in (inner, inner.T, np.asfortranarray(inner)):
                factor = scipy.linalg.cholesky(mat, lower=True)
                assert np.array_equal(lmtest._chol(mat, "m"), factor)
                for vec in (u[:, 0], u[:, 1], u[:, 1].copy()):  # strided and contiguous
                    v = scipy.linalg.solve_triangular(factor, vec, lower=True)
                    assert lmtest._quadform(mat, vec, "m") == float(v @ v)

    def test_indefinite_is_singular_moment_error(self):
        inner = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularMomentMatrixError, match="the block"):
            lmtest._quadform(inner, np.ones(2), "the block")

    @pytest.mark.parametrize("where", ["inner", "u"])
    def test_non_finite_input_is_value_error(self, where):
        inner, u = np.eye(3), np.ones(3)
        (inner if where == "inner" else u)[1, ...] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            lmtest._quadform(inner, u, "m")


class TestRegressionRoute:
    def test_equals_quadratic_form(self):
        for seed, n, r in ((41, 60, 7), (42, 80, 3), (43, 55, 10)):
            _, _, _, fit, zt, _ = make_instance(seed, n, 4, r)
            a = lm_statistic(fit.residuals, zt, floored_squares(fit.residuals)[0])
            b = lm_statistic_nr2(fit.residuals, zt)
            assert abs(a - b) <= 1e-8 * max(1.0, a)

    def test_zero_when_orthogonal(self):
        rng = np.random.default_rng(44)
        w = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        z = rng.normal(size=(50, 4))
        u = rng.normal(size=50)
        basis = np.column_stack([w, z])
        u -= basis @ np.linalg.lstsq(basis, u, rcond=None)[0]
        fit = ols_fit(w, w @ np.ones(3) + u)
        zt = residualize_block(fit, z)
        assert lm_statistic_nr2(fit.residuals, zt) <= 1e-9


class TestVariantStatistics:
    def test_long_variance_equals_short_under_constant_weights(self):
        w, z, _, fit, zt, _ = make_instance(51, 70, 5, 6)
        sample = SampleFit(fit, z, w, true_variances=np.full(70, 2.5))
        long = variant_statistic(sample, "ols_long", oracle=True)
        short = lm_statistic(fit.residuals, zt, np.full(70, 2.5))
        assert long == pytest.approx(short, rel=1e-8)

    def test_fgls_short_orthonormal_scores(self):
        w, z, _, fit, zt, _ = make_instance(52, 60, 4, 5)
        q, _ = np.linalg.qr(zt)
        sample = SampleFit(fit, q, w, true_variances=np.ones(60))
        stat = variant_statistic(sample, "fgls_short", oracle=True)
        assert stat == pytest.approx(float(np.sum((q.T @ fit.residuals) ** 2)),
                                     rel=1e-10)

    def test_all_variants_match_dense_oracles(self):
        w, z, y, fit, zt, _ = make_instance(53, 80, 5, 6)
        sample = SampleFit(fit, z, w)
        s = floored_squares(fit.residuals)[0]
        v = 1.0 / s
        r_ols = fit.residuals
        # independent FGLS residuals straight from the data
        beta_v = np.linalg.inv(w.T @ (w * v[:, None])) @ (w.T @ (v * y))
        r_v = y - w @ beta_v

        oracles = {
            "ols_short": dense_quadform(zt.T @ r_ols, (zt * s[:, None]).T @ zt),
            "ols_long": dense_quadform(
                z.T @ r_ols,
                (z * s[:, None]).T @ z
                - (z * s[:, None]).T @ w
                @ np.linalg.inv((w * s[:, None]).T @ w) @ (w * s[:, None]).T @ z),
            "fgls_long": dense_quadform(
                z.T @ (v * r_v),
                (z * v[:, None]).T @ z
                - (z * v[:, None]).T @ w
                @ np.linalg.inv((w * v[:, None]).T @ w) @ (w * v[:, None]).T @ z),
            "fgls_short": dense_quadform(zt.T @ (v * r_v),
                                         (zt * v[:, None]).T @ zt),
        }
        for name, oracle in oracles.items():
            stat = variant_statistic(sample, name)
            assert stat == pytest.approx(oracle, rel=1e-9), name
            assert sample.statistic(name) == stat

    def test_unknown_variant(self):
        w, z, _, fit, _, _ = make_instance(54, 40, 3, 2)
        with pytest.raises(ValueError, match="unknown variant"):
            variant_statistic(SampleFit(fit, z, w), "nope")

    def test_missing_inputs_are_named(self):
        w, z, _, fit, _, _ = make_instance(55, 40, 3, 2)
        with pytest.raises(ValueError, match="needs true_variances"):
            SampleFit(fit, z, w).statistic("ols_short", oracle=True)
        for variant in ("ols_long", "fgls_short"):
            with pytest.raises(ValueError, match=f"the {variant} statistic needs W"):
                SampleFit(fit, z).statistic(variant)


class TestStandardize:
    @pytest.mark.parametrize("stat,df,expected", [
        (11.0, 11, 0.0),
        (11.0 + np.sqrt(22.0), 11, 1.0),
        (0.0, 2, -1.0),
        (8.0, 8, 0.0),
        (0.0, 8, -2.0),
    ])
    def test_reference_points(self, stat, df, expected):
        assert standardize(stat, df) == pytest.approx(expected, abs=1e-14)

    def test_df_positive(self):
        with pytest.raises(ValueError):
            standardize(1.0, 0)


class TestInvariance:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_statistic_invariant_to_z_reparameterization(self, variant):
        w, z, y, _, _, _ = make_instance(61, 90, 4, 6)
        rng = np.random.default_rng(610)
        a = rng.normal(size=(6, 6)) + 4.0 * np.eye(6)
        r1 = run_test(y, w, z, variant=variant)
        r2 = run_test(y, w, z @ a, variant=variant)
        assert r2.statistic == pytest.approx(r1.statistic, rel=1e-8)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_statistic_invariant_to_w_reparameterization(self, variant):
        w, z, y, _, _, _ = make_instance(62, 90, 4, 6)
        rng = np.random.default_rng(620)
        b = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        r1 = run_test(y, w, z, variant=variant)
        r2 = run_test(y, w @ b, z, variant=variant)
        assert r2.statistic == pytest.approx(r1.statistic, rel=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), n=st.integers(150, 1000),
           hypothesis=st.sampled_from(["null", "alternative"]),
           family=st.sampled_from(["power", "spline"]), a_n=st.integers(4, 9),
           k1=st.integers(-6, 6), k2=st.integers(-6, 6))
    def test_simulation_test_does_not_depend_on_units(self, seed, n, hypothesis, family,
                                                     a_n, k1, k2):
        # the rank rule used to judge every pivot against the largest, so
        # scaled columns were named rank deficient (the constant, most often)
        y, x1, x2 = gen_sample(DgpSpec(n, hypothesis, seed=seed))
        unit = simulation_design(x1, x2, a_n, family)
        scaled = simulation_design(x1 * 10.0 ** k1, x2 * 10.0 ** k2, a_n, family)
        got = run_test(y, scaled.w, scaled.z).statistic
        if a_n <= 7:  # beyond, the spline's conditioning moves more bits
            assert got == pytest.approx(run_test(y, unit.w, unit.z).statistic, rel=1e-8)


class TestRunTest:
    def test_orthogonal_case_never_rejects(self):
        rng = np.random.default_rng(71)
        w = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        z = rng.normal(size=(50, 3))
        u = rng.normal(size=50)
        basis = np.column_stack([w, z])
        u -= basis @ np.linalg.lstsq(basis, u, rcond=None)[0]
        res = run_test(w @ np.ones(3) + u, w, z,
                       levels=(0.05, 0.1, 0.25, 0.5))
        assert res.statistic <= 1e-9
        assert res.t < 0.0
        assert not any(res.reject_normal.values())
        assert not any(res.reject_chisq.values())

    def test_fields_match_scripted_composition(self):
        w, z, y, _, _, _ = make_instance(72, 20, 3, 4)
        res = run_test(y, w, z, levels=(0.05, 0.01))
        # scripted oracle: every step via explicit formulas
        beta = np.linalg.inv(w.T @ w) @ w.T @ y
        resid = y - w @ beta
        m_w = np.eye(20) - w @ np.linalg.inv(w.T @ w) @ w.T
        zt = m_w @ z
        s = resid ** 2
        stat = dense_quadform(zt.T @ resid, (zt * s[:, None]).T @ zt)
        t = (stat - 4) / np.sqrt(8.0)
        assert res.statistic == pytest.approx(stat, rel=1e-9)
        assert res.t == pytest.approx(t, rel=1e-9)
        assert res.p_normal == pytest.approx(1.0 - scipy.special.ndtr(t), abs=1e-12)
        assert res.p_chisq == pytest.approx(1.0 - chisq_cdf(stat, 4), abs=1e-12)
        assert res.r_n == 4 and res.m_n == 3 and res.k_n == 7

    def test_far_tail_p_values_keep_relative_accuracy(self):
        # a strong departure puts the statistic where 1 - cdf rounds to 0
        y, x1, x2 = gen_sample(DgpSpec(400, "alternative", seed=21))
        y = y + 8.0 * np.cos(x1 - 2.0) * np.sin(0.75 * x2)
        pair = simulation_design(x1, x2, 4)
        res = run_test(y, pair.w, pair.z)
        assert 0.0 < res.p_chisq < 1e-20
        assert res.p_chisq == pytest.approx(
            scipy.stats.chi2.sf(res.statistic, res.r_n), rel=1e-12)
        assert res.p_normal == pytest.approx(scipy.stats.norm.sf(res.t), rel=1e-12)

    def test_oracle_weights_accepted(self):
        w, z, y, _, _, sigma2 = make_instance(73, 60, 4, 5)
        res = run_test(y, w, z, true_variances=sigma2)
        assert res.statistic >= 0.0
        assert 0.0 <= res.p_normal <= 1.0

    def test_requires_restrictions(self):
        w, _, y, _, _, _ = make_instance(74, 30, 3, 2)
        with pytest.raises(ValueError):
            run_test(y, w, np.empty((30, 0)))


class TestExactFitGuard:
    @staticmethod
    def null_design(seed=75):
        y, x1, x2 = gen_sample(DgpSpec(300, "null", seed=seed))
        return y, x1, x2, simulation_design(x1, x2, 5)

    @pytest.mark.parametrize("kind", ["constant", "zero", "in W's span"])
    def test_exact_fits_raise_naming_the_response(self, kind):
        _, x1, x2, pair = self.null_design()
        y = {"constant": np.full(300, 2.5), "zero": np.zeros(300),
             "in W's span": 1.0 + x1 + x2 ** 2}[kind]
        with pytest.raises(ExactFitError, match="response 'demand' is"):
            run_test(y, pair.w, pair.z, response="demand")

    def test_a_small_but_real_error_is_tested(self):
        # RSS / TSS is 2.6e-14, two orders above the threshold
        y, x1, x2, pair = self.null_design()
        res = run_test(1.0 + x1 + x2 ** 2 + 1e-7 * y, pair.w, pair.z)
        assert res.statistic >= 0.0

    def test_threshold_is_inclusive(self):
        y = np.arange(10.0)
        tss = float(np.sum((y - y.mean()) ** 2))
        with pytest.raises(ExactFitError, match=r"RSS / centred TSS = 2\.22e-16"):
            check_not_exact_fit(y, EXACT_FIT_RTOL * tss)
        check_not_exact_fit(y, 2.0 * EXACT_FIT_RTOL * tss)
        check_not_exact_fit(y)


class TestVarianceWeights:
    def test_flooring_flag(self):
        weights, floored = floored_squares(np.array([1.0, 0.0, -2.0, 3.0]))
        assert floored
        assert np.all(weights > 0.0)

    def test_floor_in_place_is_bitwise_the_new_array(self):
        # the bootstrap floors each block's squared residuals into the residuals
        rng = np.random.default_rng(80)
        e = rng.normal(size=(50, 7)) * rng.uniform(0.0, 1.0, size=7)
        e[[3, 17], [1, 5]] = 0.0
        want, want_floored = floored_squares(e)
        got, floored = floored_squares(e, out=e)
        assert got is e and np.array_equal(got, want)
        assert np.array_equal(floored, want_floored) and floored[[1, 5]].all()

    def test_true_weights_must_be_positive(self):
        w, z, _, fit, _, _ = make_instance(81, 12, 2, 2)
        with pytest.raises(ValueError, match="positive and finite"):
            SampleFit(fit, z, w, true_variances=np.r_[1.0, 0.0, np.ones(10)])

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_true_variances_of_the_wrong_length(self, delta):
        # named where the sample takes them, not as a broadcast error deep in a Gram
        y, x1, x2 = gen_sample(DgpSpec(300, "null", seed=82))
        pair = simulation_design(x1, x2, 5)
        with pytest.raises(ValueError, match=f"true_variances has length {300 + delta}, "
                                             "but the sample has n = 300"):
            run_test(y, pair.w, pair.z, true_variances=np.ones(300 + delta))


class TestLevelsCheckedFirst:
    @pytest.mark.parametrize("levels", [(0,), (1.0,), (1.5,), (float("nan"),)])
    @pytest.mark.parametrize("entry", ["run_test", "data_driven_test"])
    def test_bad_level_raises_before_any_fit(self, monkeypatch, entry, levels):
        y, x1, x2 = gen_sample(DgpSpec(200, "null", seed=83))
        fits = []
        for module in (lmtest, tuning):
            monkeypatch.setattr(module, "ols_fit", lambda *a, **k: fits.append(a))
        with pytest.raises(ValueError, match=r"alpha levels must be numbers in \(0, 1\)"):
            if entry == "run_test":
                pair = simulation_design(x1, x2, 4)
                run_test(y, pair.w, pair.z, levels=levels)
            else:
                data_driven_test(y, x1, x2, TuningGrid((4, 5)), levels=levels)
        assert fits == []


class TestMeanIdentity:
    def test_oracle_statistic_has_mean_r(self):
        # with known variances and an exact-null design, the quadratic form
        # averages to the number of restrictions
        rng = np.random.default_rng(80)
        n, m, r, m_draws = 300, 4, 6, 2000
        w = np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))])
        z = rng.normal(size=(n, r))
        sigma2 = 0.5 + 2.0 * rng.random(n)
        fit0 = ols_fit(w, np.zeros(n))
        zt = residualize_block(fit0, z)
        stats = np.empty(m_draws)
        for b in range(m_draws):
            eps = np.sqrt(sigma2) * rng.standard_normal(n)
            resid = eps - fit0.ortho @ (fit0.ortho.T @ eps)
            stats[b] = lm_statistic(resid, zt, sigma2)
        se = stats.std(ddof=1) / np.sqrt(m_draws)
        assert abs(stats.mean() - r) <= 3.0 * se
