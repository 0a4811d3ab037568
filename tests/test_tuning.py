"""Model-size selection and the data-driven test composition."""

import contextlib
import gc
import inspect
import math
import weakref

import numpy as np
import pytest
import scipy.stats

from serieslm import basis, cli, lmtest, mc, tuning
from serieslm.design import simulation_design
from serieslm.distributions import chisq_quantile
from serieslm.errors import ExactFitError, RankDeficiencyError, SingularMomentMatrixError
from serieslm.mc import DgpSpec, McConfig, gen_sample, run_mc
from serieslm.lmtest import floored_squares, lm_statistic, run_test
from serieslm.regress import ols_fit, residualize_block
from serieslm.tuning import (
    TuningGrid,
    data_driven_decisions,
    data_driven_test,
    select_r,
)


def mallows_cp(y, designs) -> int:
    """Index of the design whose fit of y has the smallest Mallows Cp."""
    return tuning._select_size([ols_fit(w, y) for w in designs], "cp")


def gcv(y, designs) -> int:
    """Index of the design whose fit of y has the smallest GCV score."""
    return tuning._select_size([ols_fit(w, y) for w in designs], "gcv")


def power_designs(x, sizes):
    return [np.vander(x, a, increasing=True) for a in sizes]


class TestMallowsCp:
    def test_recovers_cubic(self):
        rng = np.random.default_rng(90)
        x = rng.uniform(-1.0, 1.0, 300)
        y = 1.0 - 2.0 * x + 0.5 * x ** 3 + rng.normal(scale=1e-6, size=300)
        designs = power_designs(x, range(2, 7))
        assert mallows_cp(y, designs) == 2  # a = 4 terms: the cubic

    def test_single_candidate(self):
        rng = np.random.default_rng(91)
        x = rng.normal(size=50)
        assert mallows_cp(rng.normal(size=50), power_designs(x, [3])) == 0

    def test_pure_noise_prefers_small(self):
        rng = np.random.default_rng(92)
        x = rng.uniform(-1.0, 1.0, 400)
        picks = [mallows_cp(rng.normal(size=400), power_designs(x, range(1, 7)))
                 for _ in range(20)]
        assert np.mean(picks) < 2.0  # mostly the smallest few models

    def test_exact_tie_goes_to_smallest(self):
        rng = np.random.default_rng(93)
        x = rng.normal(size=40)
        designs = power_designs(x, [2, 4, 5])
        assert mallows_cp(np.zeros(40), designs) == 0  # all RSS exactly zero

    def test_oversized_candidate_rejected(self):
        with pytest.raises(ValueError):
            mallows_cp(np.zeros(4), [np.vander(np.arange(4.0), 4)])


class TestGcv:
    def test_recovers_cubic(self):
        rng = np.random.default_rng(94)
        x = rng.uniform(-1.0, 1.0, 300)
        y = x - x ** 3 + rng.normal(scale=1e-6, size=300)
        assert gcv(y, power_designs(x, range(2, 7))) == 2

    def test_single_candidate(self):
        rng = np.random.default_rng(95)
        x = rng.normal(size=50)
        assert gcv(rng.normal(size=50), power_designs(x, [4])) == 0

    def test_exact_tie_goes_to_smallest(self):
        rng = np.random.default_rng(96)
        x = rng.normal(size=40)
        assert gcv(np.zeros(40), power_designs(x, [3, 5])) == 0

    def test_agrees_with_cp_on_sharp_break(self):
        rng = np.random.default_rng(97)
        x = rng.uniform(-1.0, 1.0, 500)
        designs = power_designs(x, range(1, 8))
        for scale, seed in ((1e-6, 1), (1e-3, 2), (0.05, 3)):
            y = 2.0 * x ** 2 + np.random.default_rng(seed).normal(
                scale=scale, size=500)
            assert mallows_cp(y, designs) == gcv(y, designs)


class TestSelectR:
    def test_single_candidate(self):
        assert select_r({11: 9.7}, 11) == 11

    def test_null_calibrated_map_picks_smallest(self):
        stats = {r: float(r) for r in (11, 19, 20, 21, 31, 43)}
        assert select_r(stats, 11) == 11

    def test_inflated_entry_wins(self):
        stats = {r: float(r) for r in (11, 19, 20, 21, 31, 43)}
        stats[21] = 51.0
        # direct evaluation oracle
        gamma = 3.0 * math.sqrt(2.0 * math.log(6))
        crit = {r: s - r - gamma * math.sqrt(2.0 * (r - 11))
                for r, s in stats.items()}
        best = min(r for r, v in crit.items() if v == max(crit.values()))
        assert best == 21
        assert select_r(stats, 11) == 21

    def test_matches_argmax_oracle_on_random_maps(self):
        rng = np.random.default_rng(98)
        for _ in range(50):
            keys = np.sort(rng.choice(np.arange(5, 60), size=6, replace=False))
            stats = {int(r): float(r + rng.normal(scale=8.0)) for r in keys}
            c = float(rng.uniform(1.0, 4.0))
            gamma = c * math.sqrt(2.0 * math.log(len(stats)))
            crit = {r: s - r - gamma * math.sqrt(2.0 * (r - keys[0]))
                    for r, s in stats.items()}
            top = max(crit.values())
            oracle = min(r for r, v in crit.items() if v == top)
            assert select_r(stats, int(keys[0]), c) == oracle

    def test_insertion_order_irrelevant(self):
        stats = {20: 25.0, 11: 12.0, 31: 33.0}
        assert select_r(stats, 11) == select_r(dict(reversed(stats.items())), 11)

    def test_r_min_must_be_smallest(self):
        with pytest.raises(ValueError):
            select_r({11: 3.0, 19: 4.0}, 19)
        with pytest.raises(ValueError):
            select_r({}, 1)


class TestTuningGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            TuningGrid(())
        with pytest.raises(ValueError):
            TuningGrid((4, 4, 5))
        with pytest.raises(ValueError):
            TuningGrid((4, 5), c=0.5)

    @pytest.mark.parametrize("candidates", [(3, 4, 5), (0,), (-2, 4)])
    def test_candidates_below_the_design_minimum(self, candidates):
        with pytest.raises(ValueError, match=">= 4"):
            TuningGrid(candidates)

    def test_one_penalty_constant(self):
        # tune --c, the grid and select_r default to the same c, which the
        # simulated data-driven cells use too
        args = cli._build_parser().parse_args(
            ["tune", "--data", "d.csv", "--y", "y", "--x1", "x1", "--x2", "x2"])
        assert args.c == TuningGrid((4,)).c == tuning.PENALTY_C
        assert inspect.signature(select_r).parameters["c"].default == tuning.PENALTY_C


class TestDataDrivenTest:
    def test_singleton_grid_equals_chisq_rule(self):
        y, x1, x2 = gen_sample(DgpSpec(300, "null", seed=4))
        res = data_driven_test(y, x1, x2, TuningGrid((5,)), levels=(0.05, 0.1))
        from serieslm.design import simulation_design

        pair = simulation_design(x1, x2, 5)
        ref = run_test(y, pair.w, pair.z, levels=(0.05, 0.1))
        assert res.selected_a == 5
        assert res.selected_r == res.r_min == pair.r_n
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-12)
        for a in (0.05, 0.1):
            assert res.reject[a] == (ref.statistic > chisq_quantile(1 - a, pair.r_n))

    def test_cubic_truth_selects_smallest(self):
        rng = np.random.default_rng(99)
        v1, v2 = rng.random(500), rng.random(500)
        x1 = -2 + 4 * (0.8 * v1 + 0.2 * v2)
        x2 = -2 + 4 * (0.2 * v1 + 0.8 * v2)
        y = 1.0 + 2.0 * x1 + x2 - 0.4 * x2 ** 3 + rng.normal(scale=0.1, size=500)
        res = data_driven_test(y, x1, x2, TuningGrid((4, 5, 6, 7)))
        assert res.selected_a == 4
        assert res.r_min == 11

    def test_decision_uses_r_min_quantile(self):
        y, x1, x2 = gen_sample(DgpSpec(400, "alternative", seed=6))
        res = data_driven_test(y, x1, x2, TuningGrid((4, 5, 6)), levels=(0.05,))
        assert res.reject[0.05] == (
            res.statistic > chisq_quantile(0.95, res.r_min))
        assert res.selected_r in {row[2] for row in res.candidate_table}

    def test_far_tail_p_value_keeps_relative_accuracy(self):
        # a strong departure puts the statistic where 1 - cdf rounds to 0
        y, x1, x2 = gen_sample(DgpSpec(400, "alternative", seed=21))
        y = y + 8.0 * np.cos(x1 - 2.0) * np.sin(0.75 * x2)
        res = data_driven_test(y, x1, x2, TuningGrid((4, 5)))
        assert 0.0 < res.p_value < 1e-20
        assert res.p_value == pytest.approx(
            scipy.stats.chi2.sf(res.statistic, res.r_min), rel=1e-12)

    def test_selected_statistic_dominates_minimal(self):
        # the penalized selection can only pick a statistic at least as large
        # as the minimal-candidate one, so rejections are monotone
        for seed in range(5):
            y, x1, x2 = gen_sample(DgpSpec(300, "alternative", seed=seed))
            res = data_driven_test(y, x1, x2, TuningGrid((4, 5, 6, 7)))
            stats = {row[2]: row[4] for row in res.candidate_table}
            assert res.statistic >= stats[res.r_min] - 1e-12

    def test_criteria_flags(self):
        y, x1, x2 = gen_sample(DgpSpec(300, "null", seed=8))
        cp_res = data_driven_test(y, x1, x2, TuningGrid((4, 5, 6)), criterion="cp")
        gcv_res = data_driven_test(y, x1, x2, TuningGrid((4, 5, 6)), criterion="gcv")
        assert cp_res.criterion == "cp" and gcv_res.criterion == "gcv"
        with pytest.raises(ValueError):
            data_driven_test(y, x1, x2, TuningGrid((4, 5)), criterion="aic")


def oracle_decisions(y, x1, x2, grid, family, levels):
    """Each candidate fitted and tested on its own, then both selections by hand."""
    table = []
    for a in grid.candidates:
        pair = simulation_design(x1, x2, a, family)
        fit = ols_fit(pair.w, y)
        stat = lm_statistic(fit.residuals, residualize_block(fit, pair.z),
                            floored_squares(fit.residuals)[0])
        table.append((a, pair.m_n, pair.r_n, fit.rss, stat))
    n = y.size
    s2 = table[-1][3] / (n - table[-1][1])  # Cp's variance from the largest model
    scores = {"cp": [rss / n + 2.0 * s2 * m / n for _, m, _, rss, _ in table],
              "gcv": [n * rss / (n - m) ** 2 for _, m, _, rss, _ in table]}
    out = {}
    for criterion, score in scores.items():
        i = min(range(len(table)), key=lambda k: (score[k], k))
        rows = tuple(table[i:])
        r_min = rows[0][2]
        r_hat = select_r({row[2]: row[4] for row in rows}, r_min, grid.c)
        stat = next(row[4] for row in rows if row[2] == r_hat)
        out[criterion] = (rows[0][0], r_hat, r_min, stat, rows, {
            a: stat > scipy.stats.chi2.ppf(1.0 - a, r_min) for a in levels})
    return out


class TestExactFitGuard:
    def test_tuned_test_refuses_an_exact_fit_and_the_mc_path_does_not_check(self):
        # the guard sits in data_driven_test only, so no simulated
        # replication's outcome can move
        _, x1, x2 = gen_sample(DgpSpec(300, "null", seed=5))
        y = 1.0 + x1 + x2 ** 2
        with pytest.raises(ExactFitError, match="response 'demand' is fit exactly"):
            data_driven_test(y, x1, x2, TuningGrid((4, 5, 6)), response="demand")
        decisions = data_driven_decisions(y, x1, x2, TuningGrid((4, 5, 6)))
        assert set(decisions) == {"cp", "gcv"}


class TestDataDrivenDecisions:
    GRID = TuningGrid((4, 5, 6, 7, 8))

    @pytest.mark.parametrize("family", ["power", "spline"])
    @pytest.mark.parametrize("hyp,seed", [("null", 1), ("null", 7),
                                          ("alternative", 2), ("alternative", 8)])
    def test_matches_per_candidate_oracle(self, family, hyp, seed):
        y, x1, x2 = gen_sample(DgpSpec(400, hyp, seed=seed))
        got = data_driven_decisions(y, x1, x2, self.GRID, family=family,
                                    levels=(0.05, 0.1))
        expected = oracle_decisions(y, x1, x2, self.GRID, family, (0.05, 0.1))
        for criterion, (a_hat, r_hat, r_min, stat, rows, reject) in expected.items():
            res = got[criterion]
            assert (res.selected_a, res.selected_r, res.r_min) == (a_hat, r_hat, r_min)
            assert res.statistic == stat
            assert res.candidate_table == rows
            assert res.reject == reject
            assert res.p_value == pytest.approx(
                scipy.stats.chi2.sf(stat, r_min), rel=1e-12)

    @pytest.mark.parametrize("n,hyp,seed,family,picks", [
        (400, "null", 7, "power", (4, 4)),
        (400, "alternative", 2, "power", (7, 7)),
        (400, "alternative", 2, "spline", (5, 5)),
        (250, "null", 29, "spline", (5, 4)),
        (150, "null", 39, "power", (8, 7)),
    ])
    def test_statistic_only_from_the_smaller_pick_upward(self, monkeypatch, n, hyp,
                                                         seed, family, picks):
        # every r_n of the grid is distinct, so the tested r_n name the candidates
        y, x1, x2 = gen_sample(DgpSpec(n, hyp, seed=seed))
        real, tested = lmtest.lm_statistic, []

        def counting(residuals, z_resid, weights):
            tested.append(z_resid.shape[1])
            return real(residuals, z_resid, weights)

        monkeypatch.setattr(lmtest, "lm_statistic", counting)
        got = data_driven_decisions(y, x1, x2, self.GRID, family=family)
        assert (got["cp"].selected_a, got["gcv"].selected_a) == picks
        first = self.GRID.candidates.index(min(picks))
        r_ns = [simulation_design(x1, x2, a, family).r_n for a in self.GRID.candidates]
        assert tested == r_ns[first:]

    @pytest.mark.parametrize("hyp,seed,family", [
        ("null", 7, "power"), ("null", 7, "spline"),
        ("alternative", 2, "power"), ("alternative", 2, "spline"),
    ])
    def test_each_basis_and_design_built_once_per_sample(self, monkeypatch, hyp, seed,
                                                         family):
        # one table per sample: each variable's powers in one pass up to the
        # highest one any candidate asks for, one quantile call per spline
        # variable, and each candidate's design gathered once
        y, x1, x2 = gen_sample(DgpSpec(400, hyp, seed=seed))
        real_powers, real_quantile = basis._power_rows, np.quantile
        real_design = tuning.simulation_design
        powers, quantiles, designs = [], [], []

        def which(v):
            return "x1" if np.array_equal(v, x1) else "x2"

        def counting_powers(v, out):
            powers.append((which(v), len(out)))
            return real_powers(v, out)

        def counting_quantile(v, *args, **kwargs):
            quantiles.append(which(v))
            return real_quantile(v, *args, **kwargs)

        def counting_design(x1, x2, a_n, *args):
            designs.append(a_n)
            return real_design(x1, x2, a_n, *args)

        monkeypatch.setattr(basis, "_power_rows", counting_powers)
        monkeypatch.setattr(np, "quantile", counting_quantile)
        monkeypatch.setattr(tuning, "simulation_design", counting_design)
        for grid in (TuningGrid(tuple(range(4, 10))), TuningGrid(tuple(range(4, 13)))):
            powers.clear()
            quantiles.clear()
            designs.clear()
            data_driven_decisions(y, x1, x2, grid, family=family)
            top = grid.candidates[-1] - 1 if family == "power" else 3
            assert designs == list(grid.candidates)
            assert sorted(powers) == [("x1", top), ("x2", top)]
            assert sorted(quantiles) == ([] if family == "power" else ["x1", "x2"])

    @pytest.mark.parametrize("family", ["power", "spline"])
    def test_one_candidate_zt_alive_at_a_time(self, monkeypatch, family):
        # each candidate's Zt dies once its row is done: holding all of them
        # raises the page faults and system time of every replication
        y, x1, x2 = gen_sample(DgpSpec(400, "null", seed=7))
        real, made = lmtest.residualize_block, []

        def tracking(fit, z):
            assert all(ref() is None for ref in made), "an earlier Zt is still alive"
            zt = real(fit, z)
            made.append(weakref.ref(zt))
            return zt

        monkeypatch.setattr(lmtest, "residualize_block", tracking)
        data_driven_decisions(y, x1, x2, TuningGrid(tuple(range(4, 10))), family=family)
        assert len(made) >= 2

    def inject(self, monkeypatch, r_n):
        """lm_statistic raising SingularMomentMatrixError for the candidate with r_n."""
        real = lmtest.lm_statistic

        def failing(residuals, z_resid, weights):
            if z_resid.shape[1] == r_n:
                raise SingularMomentMatrixError("injected")
            return real(residuals, z_resid, weights)

        monkeypatch.setattr(lmtest, "lm_statistic", failing)

    def test_failure_below_every_selection_is_ignored(self, monkeypatch):
        # both criteria select a = 7 here, so a = 5 (r_n = 19) is never reached
        y, x1, x2 = gen_sample(DgpSpec(400, "alternative", seed=2))
        clean = data_driven_decisions(y, x1, x2, self.GRID)
        assert {res.selected_a for res in clean.values()} == {7}
        self.inject(monkeypatch, 19)
        assert data_driven_decisions(y, x1, x2, self.GRID) == clean

    def test_failure_at_a_selected_candidate_raises(self, monkeypatch):
        y, x1, x2 = gen_sample(DgpSpec(400, "alternative", seed=2))
        self.inject(monkeypatch, 21)  # a = 7, the selected null size
        with pytest.raises(SingularMomentMatrixError, match="injected"):
            data_driven_decisions(y, x1, x2, self.GRID)

    @pytest.mark.parametrize("r_n", [19, 21], ids=["ignored", "raised"])
    def test_failure_leaves_no_reference_cycles(self, monkeypatch, r_n):
        # a stored exception's traceback would keep its candidate's design
        # alive in a cycle that only the cyclic collector frees
        y, x1, x2 = gen_sample(DgpSpec(400, "alternative", seed=2))
        self.inject(monkeypatch, r_n)
        gc.collect()
        gc.disable()
        try:
            with contextlib.suppress(SingularMomentMatrixError):
                data_driven_decisions(y, x1, x2, self.GRID)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_raised_failure_keeps_its_type_and_attributes(self, monkeypatch):
        y, x1, x2 = gen_sample(DgpSpec(400, "alternative", seed=2))

        def failing(residuals, z_resid, weights):
            raise RankDeficiencyError("injected", columns=["z1"])

        monkeypatch.setattr(lmtest, "lm_statistic", failing)
        with pytest.raises(RankDeficiencyError, match="injected") as info:
            data_driven_decisions(y, x1, x2, self.GRID)
        assert info.value.columns == ["z1"]

    def test_failure_at_a_selected_candidate_drops_the_replication(self, monkeypatch):
        config = McConfig(replications=3, n_values=(120,), a_values=(4, 5),
                          variants=("data_driven_cp",), hypotheses=("null",),
                          seed=5)
        assert run_mc(config).rows[0].m_eff == 3
        # only candidates a selection reaches are tested, so the second call
        # is one of them: replication 0's a = 5 if Cp picks a = 4 there, else
        # replication 1's first reached candidate; one replication is dropped
        real, calls = lmtest.lm_statistic, []

        def failing_once(*args):
            calls.append(None)
            if len(calls) == 2:
                raise SingularMomentMatrixError("injected")
            return real(*args)

        monkeypatch.setattr(lmtest, "lm_statistic", failing_once)
        monkeypatch.setattr(mc, "MAX_FAILURE_FRAC", 0.5)
        assert run_mc(config).rows[0].m_eff == 2
