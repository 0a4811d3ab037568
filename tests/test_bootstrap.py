"""Wild bootstrap: multiplier laws, the no-refit shortcut, determinism."""

import math
import tracemalloc

import numpy as np
import pytest

import serieslm.bootstrap as bt
from serieslm.errors import SingularMomentMatrixError
from serieslm.lmtest import VarianceWeights, lm_statistic, standardize
from serieslm.regress import annihilate, ols_fit, residualize_block


def make_fit(seed=0, n=60, m=3, r=4):
    rng = np.random.default_rng(seed)
    w = np.column_stack([np.ones(n), rng.normal(size=(n, m - 1))])
    z = rng.normal(size=(n, r))
    y = w @ rng.normal(size=m) + rng.normal(size=n) * (1 + rng.random(n))
    fit = ols_fit(w, y)
    return fit, residualize_block(fit, z), w, z, y


def per_draw_oracle(fit, zt, dist, seed, n_draws):
    """t* draw by draw: ``lm_statistic`` on the annihilated synthetic errors.

    Returns the statistics (NaN for a singular inner matrix) and whether each
    draw's weights were floored.
    """
    t_star, floored = [], []
    for b in range(n_draws):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(b,))))
        resid_star = annihilate(fit, bt.draw_multipliers(dist, fit.n_obs, rng)
                                * fit.residuals)
        weights = VarianceWeights.from_residuals(resid_star)
        floored.append(weights.floor_applied)
        try:
            stat = lm_statistic(resid_star, zt, weights)
        except SingularMomentMatrixError:
            stat = math.nan
        t_star.append(standardize(stat, zt.shape[1]))
    return np.array(t_star), np.array(floored)


class TestMultipliers:
    def test_mammen_support(self):
        rng = np.random.default_rng(1)
        draws = bt.draw_multipliers("mammen", 10000, rng)
        lo, hi = (1 - math.sqrt(5)) / 2, (1 + math.sqrt(5)) / 2
        assert set(np.unique(draws)) == {lo, hi}
        assert lo == pytest.approx(-0.618, abs=5e-4)
        assert hi == pytest.approx(1.618, abs=5e-4)

    def test_rademacher_moments(self):
        rng = np.random.default_rng(2)
        draws = bt.draw_multipliers("rademacher", 10 ** 6, rng)
        assert set(np.unique(draws)) == {-1.0, 1.0}
        assert abs(draws.mean()) <= 4.0 / 1000.0
        assert draws.var() == pytest.approx(1.0, abs=1e-2)

    def test_mammen_moments_and_branch_probability(self):
        rng = np.random.default_rng(3)
        draws = bt.draw_multipliers("mammen", 10 ** 6, rng)
        p_high = (math.sqrt(5) - 1) / (2 * math.sqrt(5))
        assert p_high == pytest.approx(0.2764, abs=1e-4)
        assert abs(np.mean(draws > 0) - p_high) <= 0.002
        assert abs(draws.mean()) <= 4.0 / 1000.0
        assert draws.var() == pytest.approx(1.0, abs=5e-3)
        # third moment of the two-point law is exactly 1
        assert np.mean(draws ** 3) == pytest.approx(1.0, abs=2e-2)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            bt.draw_multipliers("webb", 5, np.random.default_rng(0))


class TestWildBootstrap:
    def test_degenerate_multiplier_reproduces_observed(self, monkeypatch):
        fit, zt, _, _, _ = make_fit()
        t_obs = standardize(
            lm_statistic(fit.residuals, zt,
                         VarianceWeights.from_residuals(fit.residuals)),
            zt.shape[1])
        monkeypatch.setattr(bt, "draw_multipliers",
                            lambda dist, n, rng: np.ones(n))
        res = bt.wild_bootstrap(fit, zt, t_obs, n_draws=25, seed=5)
        np.testing.assert_allclose(res.t_star, t_obs, rtol=1e-10)
        assert res.p_value == 1.0

    def test_tiny_instance_matches_scripted_oracle(self):
        fit, zt, w, _, _ = make_fit(seed=9, n=12, m=2, r=2)
        res = bt.wild_bootstrap(fit, zt, 0.3, n_draws=3, dist="mammen", seed=77)
        m_w = np.eye(12) - w @ np.linalg.inv(w.T @ w) @ w.T
        expected = []
        for b in range(3):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(77, spawn_key=(b,))))
            v = bt.draw_multipliers("mammen", 12, rng)
            resid_star = m_w @ (v * fit.residuals)
            inner = (zt * (resid_star ** 2)[:, None]).T @ zt
            u = zt.T @ resid_star
            stat = float(u @ np.linalg.inv(inner) @ u)
            expected.append((stat - 2) / math.sqrt(4.0))
        np.testing.assert_allclose(res.t_star, expected, rtol=1e-9)

    def test_conditional_moments(self):
        fit, _, _, _, _ = make_fit(seed=10, n=50)
        b_draws = 4000
        eps_star = np.empty((b_draws, 50))
        for b in range(b_draws):
            rng = np.random.Generator(np.random.Philox(
                np.random.SeedSequence(123, spawn_key=(b,))))
            eps_star[b] = bt.draw_multipliers("mammen", 50, rng) * fit.residuals
        scale = np.abs(fit.residuals) / math.sqrt(b_draws)
        assert np.all(np.abs(eps_star.mean(axis=0)) <= 4.0 * scale + 1e-12)
        second = (eps_star ** 2).mean(axis=0)
        se2 = (eps_star ** 2).std(axis=0, ddof=1) / math.sqrt(b_draws)
        assert np.all(np.abs(second - fit.residuals ** 2) <= 4.0 * se2 + 1e-12)

    def test_shortcut_equals_refit(self):
        fit, _, w, _, _ = make_fit(seed=11)
        rng = np.random.default_rng(111)
        v = bt.draw_multipliers("rademacher", len(fit.residuals), rng)
        eps_star = v * fit.residuals
        shortcut = eps_star - fit.ortho @ (fit.ortho.T @ eps_star)
        y_star = w @ fit.beta + eps_star
        refit = ols_fit(w, y_star)
        np.testing.assert_allclose(shortcut, refit.residuals,
                                   rtol=1e-10, atol=1e-12)

    def test_deterministic_and_thread_invariant(self):
        fit, zt, _, _, _ = make_fit(seed=12)
        kwargs = dict(t_observed=0.5, n_draws=37, dist="rademacher", seed=99,
                      levels=(0.05, 0.1))
        a = bt.wild_bootstrap(fit, zt, **kwargs)
        b = bt.wild_bootstrap(fit, zt, **kwargs)
        np.testing.assert_array_equal(a.t_star, b.t_star)
        assert a.p_value == b.p_value
        assert a.critical_values == b.critical_values

    def test_p_value_convention(self):
        fit, zt, _, _, _ = make_fit(seed=13)
        res = bt.wild_bootstrap(fit, zt, t_observed=-math.inf, n_draws=19, seed=3)
        assert res.p_value == 1.0  # every draw is at least the observed value
        res = bt.wild_bootstrap(fit, zt, t_observed=math.inf, n_draws=19, seed=3)
        assert res.p_value == pytest.approx(1.0 / 20.0)
        # recompute from the draws themselves
        res = bt.wild_bootstrap(fit, zt, t_observed=0.21, n_draws=19, seed=3)
        manual = (np.sum(np.sort(res.t_star) >= 0.21) + 1) / 20.0
        assert res.p_value == pytest.approx(manual)

    def test_systematic_singularity_aborts(self):
        fit, zt, _, _, _ = make_fit(seed=14)
        bad = np.column_stack([zt, zt[:, 0]])
        with pytest.raises(SingularMomentMatrixError):
            bt.wild_bootstrap(fit, bad, 0.0, n_draws=20, seed=1)

    def test_validation(self):
        fit, zt, _, _, _ = make_fit(seed=15)
        with pytest.raises(ValueError):
            bt.wild_bootstrap(fit, zt, 0.0, n_draws=0)
        with pytest.raises(ValueError):
            bt.wild_bootstrap(fit, zt, 0.0, dist="theta")


class TestBlockedDraws:
    """The blocked computation against the per-draw oracle, across block edges."""

    @staticmethod
    def block_edges():
        """Draw counts at the edges of one and two blocks, and B = 199."""
        d = bt._BLOCK
        return (1, d - 1, d, d + 1, 2 * d + 1, 199)

    @pytest.mark.parametrize("dist", bt.MULTIPLIERS)
    @pytest.mark.parametrize("n_draws", [1, 63, 64, 65, 199])
    def test_matches_per_draw_oracle(self, n_draws, dist):
        fit, zt, _, _, _ = make_fit(seed=21, n=120, m=4, r=9)
        res = bt.wild_bootstrap(fit, zt, 0.4, n_draws=n_draws, dist=dist, seed=8)
        expected, _ = per_draw_oracle(fit, zt, dist, 8, n_draws)
        assert res.t_star.shape == (n_draws,) and res.n_failed == 0
        np.testing.assert_allclose(res.t_star, expected, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("r", [1, 9, 30, 89])
    def test_block_edges_match_per_draw_oracle(self, r):
        # at n = 300 the triangle of r = 89 (4005 rows of K') spans five panels
        fit, zt, _, _, _ = make_fit(seed=24, n=300, m=4, r=r)
        edges = self.block_edges()
        expected, _ = per_draw_oracle(fit, zt, "rademacher", 8, max(edges))
        for n_draws in edges:
            res = bt.wild_bootstrap(fit, zt, 0.4, n_draws=n_draws, seed=8)
            assert res.t_star.shape == (n_draws,) and res.n_failed == 0
            np.testing.assert_allclose(res.t_star, expected[:n_draws], rtol=1e-10, atol=0)

    @pytest.mark.parametrize("rows", [1, 2, 7, 44, 45, 46])
    def test_panels_cut_anywhere_in_the_triangle(self, monkeypatch, rows):
        # the 45 rows of K' at r = 9 in panels of ``rows``: cuts inside and
        # at the ends of each row run (i, i..8), and a single panel
        fit, zt, _, _, _ = make_fit(seed=25, n=100, m=3, r=9)
        monkeypatch.setattr(bt, "_PANEL_SIZE", rows * 100)
        res = bt.wild_bootstrap(fit, zt, 0.0, n_draws=30, dist="mammen", seed=4)
        expected, _ = per_draw_oracle(fit, zt, "mammen", 4, 30)
        np.testing.assert_allclose(res.t_star, expected, rtol=1e-10, atol=0)

    def test_peak_memory_of_one_call(self):
        # the benchmark's test size: Zt' and one block's weights, packed
        # triangles and panel fit in 8 MB; all draws at once took 11.6 MB
        fit, zt, _, _, _ = make_fit(seed=26, n=1250, m=21, r=89)
        tracemalloc.start()
        try:
            bt.wild_bootstrap(fit, zt, 0.0, n_draws=199, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

    def test_planted_zero_residual_is_floored_in_every_draw(self):
        # W vanishes on the last observation and so does y: its residual is
        # exactly 0 in the fit and in every draw, while its Zt row is not; the
        # dummy column of that observation leaves the inner matrix singular
        # without the floor
        rng = np.random.default_rng(22)
        n = 80
        w = rng.normal(size=(n, 3))
        w[-1] = 0.0
        y = w @ rng.normal(size=3) + rng.normal(size=n)
        y[-1] = 0.0
        fit = ols_fit(w, y)
        z = np.column_stack([rng.normal(size=(n, 3)), np.eye(n)[:, -1]])
        zt = residualize_block(fit, z)
        assert fit.residuals[-1] == 0.0 and zt[-1, 3] == 1.0
        for dist in bt.MULTIPLIERS:
            res = bt.wild_bootstrap(fit, zt, 0.0, n_draws=70, dist=dist, seed=6)
            expected, floored = per_draw_oracle(fit, zt, dist, 6, 70)
            assert floored.all() and res.n_failed == 0
            np.testing.assert_allclose(res.t_star, expected, rtol=1e-10, atol=0)

    @staticmethod
    def vanishing_multipliers(monkeypatch, zero_draws):
        """Draws in ``zero_draws`` get all-zero multipliers, so a zero inner matrix."""
        draw = bt.draw_multipliers

        def patched(dist, n, rng):
            v = draw(dist, n, rng)
            return 0.0 * v if rng.bit_generator.seed_seq.spawn_key[0] in zero_draws else v

        monkeypatch.setattr(bt, "draw_multipliers", patched)

    def test_singular_draws_are_nan_at_the_oracle_indices(self, monkeypatch):
        fit, zt, _, _, _ = make_fit(seed=23, n=90, m=3, r=5)
        self.vanishing_multipliers(monkeypatch, {64})
        res = bt.wild_bootstrap(fit, zt, 0.0, n_draws=199, dist="mammen", seed=2)
        expected, _ = per_draw_oracle(fit, zt, "mammen", 2, 199)
        np.testing.assert_array_equal(np.isnan(res.t_star), np.isnan(expected))
        assert np.flatnonzero(np.isnan(res.t_star)).tolist() == [64]
        assert res.n_failed == 1
        np.testing.assert_allclose(res.t_star, expected, rtol=1e-10, atol=0)

    def test_singular_draws_across_blocks_and_panels(self, monkeypatch):
        # r = 89 at n = 300 spans five panels; the zero draws sit on either
        # side of the first block edge
        fit, zt, _, _, _ = make_fit(seed=27, n=300, m=4, r=89)
        d = bt._BLOCK
        self.vanishing_multipliers(monkeypatch, {d - 1, d})
        res = bt.wild_bootstrap(fit, zt, 0.0, n_draws=2 * d + 1, seed=5)
        expected, _ = per_draw_oracle(fit, zt, "rademacher", 5, 2 * d + 1)
        assert np.flatnonzero(np.isnan(res.t_star)).tolist() == [d - 1, d]
        np.testing.assert_array_equal(np.isnan(res.t_star), np.isnan(expected))
        assert res.n_failed == 2
        np.testing.assert_allclose(res.t_star, expected, rtol=1e-10, atol=0)

    def test_failures_above_the_limit_raise(self, monkeypatch):
        # 2 of 199 is above MAX_FAILURE_FRAC; so is a near-collinear Z,
        # whose inner matrices fail to factor in most draws
        fit, zt, _, _, _ = make_fit(seed=23, n=90, m=3, r=5)
        near = np.column_stack([zt, zt[:, 0] + 1e-13 * zt[:, 1]])
        expected, _ = per_draw_oracle(fit, near, "rademacher", 2, 199)
        assert np.isnan(expected).sum() > bt.MAX_FAILURE_FRAC * 199
        with pytest.raises(SingularMomentMatrixError, match="of 199 bootstrap draws"):
            bt.wild_bootstrap(fit, near, 0.0, n_draws=199, seed=2)
        self.vanishing_multipliers(monkeypatch, {63, 130})
        with pytest.raises(SingularMomentMatrixError, match="2 of 199 bootstrap draws"):
            bt.wild_bootstrap(fit, zt, 0.0, n_draws=199, seed=2)


class TestUnreachableLevels:
    @staticmethod
    def fewest_by_search(level):
        # the least B with 1/(B + 1) <= level, searched upward from a B that
        # fails it (1/(B + 1) only falls as B grows)
        draws = max(0, math.floor(1.0 / level) - 3)
        assert draws == 0 or 1.0 / (draws + 1.0) > level
        while 1.0 / (draws + 1.0) > level:
            draws += 1
        return draws

    def test_fewest_equals_a_search_at_the_rounding_edges(self):
        # levels on, just above and just below each floor 1/(B + 1), where
        # 1/level may round to either side of the integer
        for b in [*range(1, 2000), 9999, 99999, 10 ** 9]:
            exact = 1.0 / (b + 1.0)
            for level in (exact, math.nextafter(exact, 0.0), math.nextafter(exact, 1.0),
                          math.nextafter(math.nextafter(exact, 0.0), 0.0)):
                floor, unreachable, fewest = bt.unreachable_levels(0, [level])
                assert (floor, unreachable) == (1.0, [level])
                assert fewest == self.fewest_by_search(level), level

    @pytest.mark.parametrize("valid,levels,expected", [
        (9, (0.05,), (0.1, [0.05], 19)),
        (1, (0.1, 0.6, 0.01), (0.5, [0.1, 0.01], 99)),
        (198, (0.005,), (1.0 / 199.0, [0.005], 199)),
        (19, (0.05, 0.1), (0.05, [], None)),
    ])
    def test_floor_unreachable_and_fewest(self, valid, levels, expected):
        assert bt.unreachable_levels(valid, levels) == expected
