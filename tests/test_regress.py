"""Least-squares fit and annihilator against dense oracles."""

import numpy as np
import pytest
import scipy.linalg

from serieslm import lmtest
from serieslm.errors import RankDeficiencyError
from serieslm.regress import RANK_RTOL, annihilate, ols_fit, residualize_block


def random_system(seed, n, m):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, m))
    y = rng.normal(size=n)
    return w, y


class TestOlsFit:
    def test_mean_fit(self):
        fit = ols_fit(np.ones((3, 1)), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(fit.beta, [2.0])
        np.testing.assert_allclose(fit.residuals, [-1.0, 0.0, 1.0], atol=1e-14)

    def test_exact_fit_zero_residuals(self):
        w, _ = random_system(0, 30, 4)
        y = w @ np.array([1.0, -2.0, 0.5, 3.0])
        fit = ols_fit(w, y)
        assert np.max(np.abs(fit.residuals)) <= 1e-12

    def test_matches_normal_equations(self):
        w, y = random_system(1, 50, 4)
        fit = ols_fit(w, y)
        oracle = np.linalg.inv(w.T @ w) @ (w.T @ y)
        np.testing.assert_allclose(fit.beta, oracle, rtol=1e-10)

    def test_residual_orthogonality_bound(self):
        w, y = random_system(2, 200, 8)
        fit = ols_fit(w, y)
        bound = 1e-8 * np.linalg.norm(w) * np.linalg.norm(y) / len(y)
        assert np.max(np.abs(w.T @ fit.residuals)) <= bound

    def test_contraction(self):
        w, y = random_system(3, 80, 5)
        fit = ols_fit(w, y)
        assert np.linalg.norm(fit.residuals) <= np.linalg.norm(y)

    def test_reparameterization_invariance(self):
        w, y = random_system(4, 60, 5)
        rng = np.random.default_rng(44)
        a = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
        fit1 = ols_fit(w, y)
        fit2 = ols_fit(w @ a, y)
        np.testing.assert_allclose(fit1.residuals, fit2.residuals,
                                   rtol=1e-9, atol=1e-9)

    def test_rank_deficiency_reports_columns(self):
        w, y = random_system(5, 40, 3)
        bad = np.column_stack([w, w[:, 0] + w[:, 1]])
        with pytest.raises(RankDeficiencyError) as err:
            ols_fit(bad, y, column_labels=["a", "b", "c", "a+b"])
        assert err.value.columns

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            ols_fit(np.ones((3, 3)), [1.0, 2.0, 3.0])  # n must exceed m
        with pytest.raises(ValueError):
            ols_fit(np.ones((3, 1)), [1.0, 2.0])


def power_design(seed, n=400, a=12):
    """A raw power basis [1, x, ..., x^(a-1)] on (0, 3): condition number near 1e9."""
    x = np.random.default_rng(seed).uniform(0.0, 3.0, n)
    return np.vander(x, a, increasing=True)


def layouts(w):
    """``w`` C-ordered, F-ordered and as a strided view of a wider array."""
    wide = np.zeros((w.shape[0], 2 * w.shape[1]))
    wide[:, ::2] = w
    return {"C": np.ascontiguousarray(w), "F": np.asfortranarray(w), "strided": wide[:, ::2]}


class TestDirectLapack:
    """The direct geqp3/orgqr and potrs calls against scipy.linalg's wrappers, bit for bit."""

    @pytest.mark.parametrize("kind", ["random", "power"])
    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    def test_fit_is_bitwise_scipy_qr(self, kind, order):
        for seed in range(8):
            if kind == "random":
                w, y = random_system(seed, 300, 2 + seed)
            else:
                w, y = power_design(seed), np.random.default_rng(seed).normal(size=400)
                assert 1e8 < np.linalg.cond(w) < 1e10
            w = layouts(w)[order]
            q, r, piv = scipy.linalg.qr(w, mode="economic", pivoting=True)
            fit = ols_fit(w, y)
            assert np.array_equal(fit.ortho, q)
            assert np.array_equal(fit.residuals, y - q @ (q.T @ y))
            assert np.array_equal(fit.piv, piv)
            beta = np.empty(w.shape[1])
            beta[piv] = scipy.linalg.solve_triangular(r, q.T @ y)
            assert np.array_equal(fit.beta, beta)

    @pytest.mark.parametrize("order", ["C", "F", "strided"])
    def test_rank_deficient_design_names_scipy_s_columns(self, order):
        w, y = random_system(21, 60, 5)
        w = np.column_stack([w[:, :3], w[:, 0] - 2.0 * w[:, 2], w[:, 3:], w[:, 1]])
        w = layouts(w)[order]
        _, r, piv = scipy.linalg.qr(w, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        want = list(piv[diag < RANK_RTOL * diag[0]])
        labels = [f"w{j}" for j in range(w.shape[1])]
        with pytest.raises(RankDeficiencyError) as err:
            ols_fit(w, y, column_labels=labels)
        assert len(want) == 2 and err.value.columns == want
        assert str(err.value).endswith(", ".join(labels[j] for j in want))

    def test_beta_is_solved_on_first_use(self):
        w, y = random_system(22, 80, 4)
        fit = ols_fit(w, y)
        assert "beta" not in vars(fit)
        np.testing.assert_allclose(fit.beta, np.linalg.lstsq(w, y, rcond=None)[0],
                                   rtol=1e-10)
        assert fit.beta is fit.beta

    @pytest.mark.parametrize("m", [3, 10, 21])
    def test_cholesky_solve_is_bitwise_cho_solve(self, m):
        rng = np.random.default_rng(m)
        for _ in range(10):
            a = rng.normal(size=(4 * m, m)) * rng.uniform(0.1, 10.0, size=m)
            factor = lmtest._chol(a.T @ a, "m")
            b = rng.normal(size=(m, 7))
            for rhs in (b[:, 0], b[:, 3].copy(), b, np.asfortranarray(b), b[:, ::2]):
                want = scipy.linalg.cho_solve((factor, True), rhs)
                got = lmtest._cho_solve(factor, rhs)
                assert got.shape == want.shape and np.array_equal(got, want)


class TestAnnihilate:
    def test_kills_column_of_w(self):
        w, _ = random_system(6, 50, 4)
        fit = ols_fit(w, np.zeros(50))
        out = annihilate(fit, w[:, 2])
        assert np.max(np.abs(out)) <= 1e-12 * np.linalg.norm(w[:, 2])

    def test_fixes_orthogonal_complement(self):
        w, _ = random_system(7, 50, 4)
        fit = ols_fit(w, np.zeros(50))
        rng = np.random.default_rng(70)
        u = rng.normal(size=50)
        u -= w @ np.linalg.lstsq(w, u, rcond=None)[0]
        np.testing.assert_allclose(annihilate(fit, u), u, rtol=1e-12)

    def test_dense_projector_oracle(self):
        w, _ = random_system(8, 100, 6)
        fit = ols_fit(w, np.zeros(100))
        rng = np.random.default_rng(80)
        u = rng.normal(size=100)
        m_w = np.eye(100) - w @ np.linalg.inv(w.T @ w) @ w.T
        np.testing.assert_allclose(annihilate(fit, u), m_w @ u, rtol=1e-10)

    def test_idempotent(self):
        w, _ = random_system(9, 60, 5)
        fit = ols_fit(w, np.zeros(60))
        u = np.random.default_rng(90).normal(size=60)
        once = annihilate(fit, u)
        np.testing.assert_allclose(annihilate(fit, once), once, rtol=1e-10)

    def test_symmetric_in_inner_products(self):
        w, _ = random_system(10, 60, 5)
        fit = ols_fit(w, np.zeros(60))
        rng = np.random.default_rng(100)
        u, v = rng.normal(size=60), rng.normal(size=60)
        assert annihilate(fit, u) @ v == pytest.approx(u @ annihilate(fit, v),
                                                       rel=1e-10)

    def test_in_place_is_bitwise_the_new_array(self):
        w, _ = random_system(18, 70, 5)
        fit = ols_fit(w, np.zeros(70))
        u = np.random.default_rng(19).normal(size=(70, 9))
        want = annihilate(fit, u)
        assert annihilate(fit, u, out=u) is u and np.array_equal(u, want)

    def test_length_mismatch(self):
        w, _ = random_system(11, 30, 3)
        fit = ols_fit(w, np.zeros(30))
        with pytest.raises(ValueError):
            annihilate(fit, np.ones(29))


class TestResidualizeBlock:
    def test_w_column_becomes_zero(self):
        w, _ = random_system(12, 50, 4)
        fit = ols_fit(w, np.zeros(50))
        rng = np.random.default_rng(13)
        z = np.column_stack([w[:, 1], rng.normal(size=50)])
        out = residualize_block(fit, z)
        assert np.max(np.abs(out[:, 0])) <= 1e-10

    def test_orthogonal_block_unchanged(self):
        w, _ = random_system(14, 50, 4)
        fit = ols_fit(w, np.zeros(50))
        rng = np.random.default_rng(15)
        z = rng.normal(size=(50, 3))
        z -= w @ np.linalg.lstsq(w, z, rcond=None)[0]
        np.testing.assert_allclose(residualize_block(fit, z), z, rtol=1e-12)

    def test_result_orthogonal_to_w(self):
        w, _ = random_system(16, 120, 6)
        fit = ols_fit(w, np.zeros(120))
        z = np.random.default_rng(17).normal(size=(120, 9))
        zt = residualize_block(fit, z)
        scale = np.linalg.norm(w) * np.linalg.norm(z) / 120
        assert np.max(np.abs(w.T @ zt)) <= 1e-8 * scale
