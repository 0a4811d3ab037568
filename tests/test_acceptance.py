"""Acceptance suite: every headline criterion with its stated tolerance.

Runs the full Monte Carlo evidence (minutes of compute; heavy runs are
module-scoped fixtures shared across criteria) and prints one PASS/FAIL line
per criterion check.  Run with ``pytest tests/test_acceptance.py -v -s``.

The nominal size window of criterion 2 assumes the statistic is centred,
which needs the null sieve's approximation error to be negligible.  The
noncentrality lambda_n that the error leaves is computed here from the known
mean and variance of the ``serieslm.mc`` DGP.  The window applies where
lambda_n <= 0.1; where it is larger (the cubic null, a_n=4, at n=1000) the
rate is checked against the noncentral chi-square prediction instead.
"""

import math
import os
import time

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ncx2, norm

import serieslm.bootstrap as bt
from serieslm.basis import BasisSpec, build_basis
from serieslm.design import simulation_design
from serieslm.distributions import (
    chisq_cdf,
    chisq_quantile,
    normal_quantile,
)
from serieslm.lmtest import (
    floored_squares,
    lm_statistic,
    run_test,
)
from serieslm.mc import DgpSpec, McConfig, gen_sample, run_mc
from serieslm.regress import ols_fit, residualize_block

from oracles import lm_statistic_nr2

pytestmark = pytest.mark.acceptance

ACCEPT_SEED = 0
THREADS = max(1, min(os.cpu_count() or 1, 8))

TERM_COUNTS = {4: (5, 16, 11), 5: (6, 25, 19), 6: (7, 27, 20),
               7: (8, 29, 21), 8: (9, 40, 31), 9: (10, 53, 43)}

# printed reference values for the data-driven test (size, power)
DD_REFERENCE = {
    ("power", 250, "cp"): (0.037, 0.390),
    ("power", 250, "gcv"): (0.035, 0.393),
    ("spline", 250, "cp"): (0.039, 0.391),
    ("spline", 250, "gcv"): (0.039, 0.394),
    ("power", 1000, "cp"): (0.047, 0.991),
    ("power", 1000, "gcv"): (0.047, 0.991),
    ("spline", 1000, "cp"): (0.048, 0.991),
    ("spline", 1000, "gcv"): (0.048, 0.991),
}


# the size window of criterion 2 holds where the sieve noncentrality is at
# most this; at r_n=11 the normal-rule rate is 0.066 at lambda_n = 0 and
# 0.070 at lambda_n = 0.1
NEGLIGIBLE_NONCENTRALITY = 0.1
NONCENTRALITY_GRID = 200  # midpoints per axis of the (V1, V2) unit square


def monomial_design(x1, x2, a_n: int):
    """(W, Z) of the power-family simulation design, built from monomials.

    W = [1, x2, ..., x2^(a_n-1), x1]; Z = [x1^2, ..., x1^(a_n-1)] and the
    products x1^i x2^j for 1 <= i, j <= q, where q comes from the
    term-count table (r_n = a_n - 2 + q^2).  Nothing here rests on
    ``serieslm.design``.
    """
    q = math.isqrt(TERM_COUNTS[a_n][2] - (a_n - 2))
    w = np.column_stack([x2 ** j for j in range(a_n)] + [x1])
    z = np.column_stack([x1 ** i for i in range(2, a_n)]
                        + [x1 ** i * x2 ** j for i in range(1, q + 1)
                           for j in range(1, q + 1)])
    return w, z


def sieve_noncentrality(a_n: int, n: int) -> float:
    """lambda_n of the power-family null with a_n terms at sample size n.

    lambda_n = n b' Omega^{-1} b with b = E[Zt e] and
    Omega = E[sigma^2 Zt Zt'], where e and Zt are the residuals of the null
    mean and of Z after least-squares projection on W.  The expectations are
    midpoint-rule averages over a grid on the two uniforms (V1, V2) that the
    DGP maps to (x1, x2); the projection uses plain ``numpy.linalg.lstsq``.
    """
    mid = (np.arange(NONCENTRALITY_GRID) + 0.5) / NONCENTRALITY_GRID
    v1, v2 = (v.ravel() for v in np.meshgrid(mid, mid, indexing="ij"))
    x1 = -2.0 + 4.0 * (0.8 * v1 + 0.2 * v2)
    x2 = -2.0 + 4.0 * (0.2 * v1 + 0.8 * v2)
    sigma2 = 1.0 + 1.75 * np.exp(0.75 * (x1 + x2))
    mean = 3.0 + 2.0 * x1 + 2.0 * (np.exp(x2) - 2.0 * np.log(x2 + 3.0))
    w, z = monomial_design(x1, x2, a_n)
    targets = np.column_stack([mean, z])
    coef = np.linalg.lstsq(w, targets, rcond=None)[0]
    resid = targets - w @ coef
    e, zt = resid[:, 0], resid[:, 1:]
    b = zt.T @ e / e.size
    omega = (zt * sigma2[:, None]).T @ zt / e.size
    return n * float(b @ np.linalg.solve(omega, b))


def predicted_size(lam: float, r_n: int) -> float:
    """Rate of the 5% normal rule t > z_0.95 for a chi2_r(lam) statistic."""
    crit = r_n + norm.ppf(0.95) * math.sqrt(2.0 * r_n)
    return float(ncx2.sf(crit, r_n, lam))


def check(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def mc_main():
    config = McConfig(
        replications=1000, n_values=(1000,), a_values=(4, 5, 6, 7, 8, 9),
        families=("power",),
        variants=("ols_short", "ols_short_total", "fgls_long",
                  "ols_short_oracle"),
        hypotheses=("null", "alternative"), alphas=(0.05,),
        seed=ACCEPT_SEED, threads=THREADS)
    return run_mc(config)


@pytest.fixture(scope="module")
def mc_small_sample_power():
    config = McConfig(
        replications=1000, n_values=(250,), a_values=(4, 5, 6, 7, 8),
        families=("power",), variants=("ols_short",),
        hypotheses=("alternative",), alphas=(0.05,),
        seed=ACCEPT_SEED, threads=THREADS)
    return run_mc(config)


@pytest.fixture(scope="module")
def mc_data_driven():
    out = {}
    for n, a_max in ((250, 8), (1000, 9)):
        config = McConfig(
            replications=1000, n_values=(n,), a_values=tuple(range(4, a_max + 1)),
            families=("power", "spline"),
            variants=("data_driven_cp", "data_driven_gcv"),
            hypotheses=("null", "alternative"), alphas=(0.05,),
            seed=ACCEPT_SEED, threads=THREADS)
        out[n] = run_mc(config)
    return out


@pytest.fixture(scope="module")
def mc_bootstrap():
    config = McConfig(
        replications=500, n_values=(250,), a_values=(5,), families=("power",),
        variants=("ols_short", "wild_bootstrap"), hypotheses=("null",),
        alphas=(0.05,), seed=ACCEPT_SEED, bootstrap_draws=399,
        bootstrap_dist="rademacher", threads=1)
    return run_mc(config)


class TestCriterion1TermCounts:
    def test_exact_progression_under_one_second(self):
        rng = np.random.default_rng(ACCEPT_SEED)
        x1 = rng.uniform(-2, 2, 200)
        x2 = rng.uniform(-2, 2, 200)
        start = time.perf_counter()
        triples = {
            (family, a): (p.m_n, p.k_n, p.r_n)
            for family in ("power", "spline")
            for a in TERM_COUNTS
            for p in [simulation_design(x1, x2, a, family)]
        }
        elapsed = time.perf_counter() - start
        exact = all(triples[(f, a)] == TERM_COUNTS[a]
                    for f in ("power", "spline") for a in TERM_COUNTS)
        check("1 (term-count table)", exact and elapsed < 1.0,
              f"exact={exact}, elapsed={elapsed:.3f}s")


class TestCriterion2SizeOfProposedTest:
    """Null rejection rate of ``ols_short`` at n=1000, normal rule, 5%.

    The window [0.03, 0.07] assumes a centred statistic, so it applies only
    where the sieve noncentrality lambda_n is at most 0.1 (a_n = 5..9, where
    lambda_n <= 0.02).  The cubic null (a_n=4) leaves an RMS approximation
    error of about 0.1 in 2 (exp(x2) - 2 ln(x2 + 3)), so lambda_n is about 1.7
    and the rate is asserted to match P(chi2_11(lambda_n) > 11 + z sqrt(22))
    within three Monte Carlo standard errors instead.  That still checks the
    r_n normalisation: neither the k_n-standardized rate
    (``ols_short_total``, about 0.01) nor the central chi-square rate
    (0.066) passes it.

    The prediction holds for the statistic with known variances, so the
    ``ols_short_oracle`` rate is asserted against it as well.  Estimating
    the variances pulls ``ols_short`` about two standard errors below the
    oracle rate at a_n=4 (0.110 against 0.131 at the acceptance seed), which
    leaves it about 0.01 inside the band.
    """

    @pytest.mark.parametrize("a_n", sorted(TERM_COUNTS))
    def test_size_near_nominal(self, mc_main, a_n):
        rate = mc_main.rate("ols_short", "power", 1000, a_n, "null")
        lam = sieve_noncentrality(a_n, 1000)
        if lam <= NEGLIGIBLE_NONCENTRALITY:
            check(f"2 (size, a_n={a_n})", 0.03 <= rate <= 0.07,
                  f"size={rate:.3f}, window=[0.03, 0.07], "
                  f"lambda_n={lam:.3f}")
            return
        oracle = mc_main.rate("ols_short_oracle", "power", 1000, a_n, "null")
        pred = predicted_size(lam, TERM_COUNTS[a_n][2])
        band = 3.0 * math.sqrt(pred * (1.0 - pred)
                               / mc_main.config.replications)
        check(f"2 (size, a_n={a_n})",
              abs(rate - pred) <= band and abs(oracle - pred) <= band,
              f"size={rate:.3f}, oracle size={oracle:.3f}, "
              f"lambda_n={lam:.2f}, predicted={pred:.3f} +/- {band:.3f} "
              f"(3 MC se)")


class TestCriterion3Comparators:
    @pytest.mark.parametrize("a_n", sorted(TERM_COUNTS))
    def test_total_normalization_undersized(self, mc_main, a_n):
        rate = mc_main.rate("ols_short_total", "power", 1000, a_n, "null")
        check(f"3 (no-df-correction size, a_n={a_n})", rate <= 0.03,
              f"size={rate:.3f} <= 0.03")

    def test_fgls_long_power_equals_size(self, mc_main):
        # the 'virtually no power' claim is per setup: compare the average
        # rejection rates across the a_n range
        sizes = [mc_main.rate("fgls_long", "power", 1000, a, "null")
                 for a in TERM_COUNTS]
        powers = [mc_main.rate("fgls_long", "power", 1000, a, "alternative")
                  for a in TERM_COUNTS]
        gap = abs(float(np.mean(powers)) - float(np.mean(sizes)))
        check("3 (weighted-residual comparator)", gap <= 0.05,
              f"|power-size|={gap:.3f} (sizes={np.round(sizes,3).tolist()}, "
              f"powers={np.round(powers,3).tolist()})")

    @pytest.mark.parametrize("a_n", [4, 5, 6, 7])
    def test_proposed_power(self, mc_main, a_n):
        rate = mc_main.rate("ols_short", "power", 1000, a_n, "alternative")
        check(f"3 (proposed power, a_n={a_n})", rate >= 0.90,
              f"power={rate:.3f} >= 0.90")


class TestCriterion4DataDriven:
    """Data-driven (Cp/GCV) test against printed size and power values.

    At n=250 the measured power (about 0.25) falls short of the printed 0.39.
    The decision step follows its docstring; the gap lies in the null-size
    selection: Cp and GCV pick a_n=4 in under 40% of alternative samples,
    and of the fixed tests only the one at a_n=4 exceeds the printed power.
    Each n=250 power line therefore also shows the fixed a_n=4 ``ols_short``
    power (normal rule; at a_n=4 the spline and power bases coincide).  The
    printed values stay as the reference until the selection rule they were
    made with is documented.
    """

    @pytest.mark.parametrize("family", ["power", "spline"])
    @pytest.mark.parametrize("n", [250, 1000])
    @pytest.mark.parametrize("criterion", ["cp", "gcv"])
    def test_size(self, mc_data_driven, family, n, criterion):
        target, _ = DD_REFERENCE[(family, n, criterion)]
        rate = mc_data_driven[n].rate(f"data_driven_{criterion}", family, n, 0,
                                      "null")
        check(f"4 (data-driven size, {family}, n={n}, {criterion})",
              abs(rate - target) <= 0.02,
              f"size={rate:.3f}, printed={target}, tol=0.02")

    @pytest.mark.parametrize("family", ["power", "spline"])
    @pytest.mark.parametrize("n", [250, 1000])
    @pytest.mark.parametrize("criterion", ["cp", "gcv"])
    def test_power(self, request, mc_data_driven, family, n, criterion):
        _, target = DD_REFERENCE[(family, n, criterion)]
        rate = mc_data_driven[n].rate(f"data_driven_{criterion}", family, n, 0,
                                      "alternative")
        detail = f"power={rate:.3f}, printed={target}, tol=0.05"
        if n == 250:
            fixed = request.getfixturevalue("mc_small_sample_power").rate(
                "ols_short", "power", n, 4, "alternative")
            detail += (f"; fixed a_n=4 ols_short power (normal rule)="
                       f"{fixed:.3f}, so the shortfall lies in the Cp/GCV "
                       f"selection of a_n")
        check(f"4 (data-driven power, {family}, n={n}, {criterion})",
              abs(rate - target) <= 0.05, detail)


class TestCriterion5BootstrapAgreement:
    def test_bootstrap_tracks_asymptotic_size(self, mc_bootstrap):
        asymptotic = mc_bootstrap.rate("ols_short", "power", 250, 5, "null")
        boot = mc_bootstrap.rate("wild_bootstrap", "power", 250, 5, "null")
        gap = abs(boot - asymptotic)
        check("5 (bootstrap near-equivalence)", gap <= 0.03,
              f"asymptotic={asymptotic:.3f}, bootstrap={boot:.3f}, gap={gap:.3f}")


class TestCriterion6Properties:
    def test_restricted_residual_orthogonality(self):
        rng = np.random.default_rng(ACCEPT_SEED + 1)
        w = np.column_stack([np.ones(200), rng.normal(size=(200, 7))])
        y = rng.normal(size=200) * 3.0
        fit = ols_fit(w, y)
        bound = 1e-8 * np.linalg.norm(w) * np.linalg.norm(y) / 200
        ok = float(np.max(np.abs(w.T @ fit.residuals))) <= bound
        check("6 (residual orthogonality)", ok, "max |W'e| within bound")

    def test_annihilator_idempotent_and_symmetric(self):
        rng = np.random.default_rng(ACCEPT_SEED + 2)
        w = rng.normal(size=(150, 6))
        fit = ols_fit(w, np.zeros(150))
        u, v = rng.normal(size=150), rng.normal(size=150)
        once = fit.ortho
        mu = u - once @ (once.T @ u)
        mmu = mu - once @ (once.T @ mu)
        idem = np.allclose(mmu, mu, rtol=1e-10)
        sym = math.isclose(mu @ v, u @ (v - once @ (once.T @ v)), rel_tol=1e-10)
        check("6 (annihilator idempotent+symmetric)", idem and sym,
              f"idempotent={idem}, symmetric={sym}")

    def test_statistic_nonnegative_and_reparameterization_invariant(self):
        rng = np.random.default_rng(ACCEPT_SEED + 3)
        w = np.column_stack([np.ones(120), rng.normal(size=(120, 4))])
        z = rng.normal(size=(120, 6))
        y = w @ rng.normal(size=5) + rng.normal(size=120)
        base = run_test(y, w, z)
        a = rng.normal(size=(6, 6)) + 4 * np.eye(6)
        b = rng.normal(size=(5, 5)) + 4 * np.eye(5)
        alt_z = run_test(y, w, z @ a)
        alt_w = run_test(y, w @ b, z)
        ok = (base.statistic >= 0.0
              and math.isclose(alt_z.statistic, base.statistic, rel_tol=1e-8)
              and math.isclose(alt_w.statistic, base.statistic, rel_tol=1e-8))
        check("6 (nonnegative + invariance)", ok,
              f"stat={base.statistic:.6f}, dZ={alt_z.statistic - base.statistic:.2e}, "
              f"dW={alt_w.statistic - base.statistic:.2e}")

    def test_regression_route_identity(self):
        rng = np.random.default_rng(ACCEPT_SEED + 4)
        w = np.column_stack([np.ones(90), rng.normal(size=(90, 3))])
        z = rng.normal(size=(90, 7))
        y = w @ rng.normal(size=4) + rng.normal(size=90)
        fit = ols_fit(w, y)
        zt = residualize_block(fit, z)
        quad = lm_statistic(fit.residuals, zt, floored_squares(fit.residuals)[0])
        nr2 = lm_statistic_nr2(fit.residuals, zt)
        ok = abs(quad - nr2) <= 1e-8 * max(1.0, quad)
        check("6 (nR2 identity)", ok, f"|diff|={abs(quad - nr2):.2e}")

    def test_spline_without_knots_is_power_basis(self):
        v = np.array([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0])
        knot_free = build_basis(v, BasisSpec("spline", 4, 3))
        power = build_basis(v, BasisSpec("power", 4))
        same = (knot_free[0] == power[0] == ("v", "v^2", "v^3")
                and np.array_equal(knot_free[1], power[1])
                and np.array_equal(power[1], np.column_stack([v, v * v, v * v * v])))
        check("6 (knot-free spline == power)", same, "exact equality")

    def test_multiplier_moments(self):
        n = 10 ** 6
        rng = np.random.Generator(np.random.Philox(ACCEPT_SEED + 5))
        rad = bt.draw_multipliers("rademacher", n, rng)
        rng = np.random.Generator(np.random.Philox(ACCEPT_SEED + 6))
        mam = bt.draw_multipliers("mammen", n, rng)
        p_high = (math.sqrt(5) - 1) / (2 * math.sqrt(5))
        checks = {
            "rad mean": abs(rad.mean()) <= 4.0 / math.sqrt(n),
            "rad var": abs(rad.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n),
            "mam mean": abs(mam.mean()) <= 4.0 * math.sqrt(1.0 / n),
            "mam var": abs(mam.var() - 1.0) <= 4.0 * math.sqrt(5.0 / n),
            "mam branch": abs(np.mean(mam > 0) - p_high) <= 0.002,
            "branch value": abs(p_high - 0.2764) <= 1e-4,
        }
        check("6 (multiplier moments)", all(checks.values()), str(checks))

    def test_bootstrap_shortcut_equals_refit(self):
        rng = np.random.default_rng(ACCEPT_SEED + 7)
        w = np.column_stack([np.ones(100), rng.normal(size=(100, 4))])
        y = w @ rng.normal(size=5) + rng.normal(size=100)
        fit = ols_fit(w, y)
        v = bt.draw_multipliers("rademacher", 100,
                                np.random.Generator(np.random.Philox(9)))
        eps = v * fit.residuals
        shortcut = eps - fit.ortho @ (fit.ortho.T @ eps)
        refit = ols_fit(w, w @ fit.beta + eps).residuals
        ok = np.allclose(shortcut, refit, rtol=1e-10, atol=1e-12)
        check("6 (no-refit shortcut)", ok,
              f"max diff={np.max(np.abs(shortcut - refit)):.2e}")

    def test_distribution_round_trips(self):
        ps = np.linspace(0.001, 0.999, 199)
        norm_ok = all(abs(ndtr(normal_quantile(p)) - p) <= 1e-8 for p in ps)
        chi_ok = all(
            abs(chisq_cdf(chisq_quantile(p, df), df) - p) <= 1e-8
            for df in (1, 5, 11, 43) for p in (0.01, 0.5, 0.95, 0.999))
        zval = abs(normal_quantile(0.95) - 1.645) <= 5e-4
        check("6 (distribution round trips)", norm_ok and chi_ok and zval,
              f"normal={norm_ok}, chisq={chi_ok}, z95={zval}")

    def test_oracle_statistic_mean(self, mc_main):
        # with true variances the statistic is centered at the restriction
        # count; checked at Monte Carlo precision on the main run
        a_n = 5
        r_n = TERM_COUNTS[a_n][2]
        mean = mc_main.mean_statistic("ols_short_oracle", "power", 1000, a_n,
                                      "null")
        bound = 4.0 * math.sqrt(2.0 * r_n / 1000)
        ok = abs(mean - r_n) <= bound
        check("6 (oracle statistic mean)", ok,
              f"mean={mean:.3f}, r_n={r_n}, bound={bound:.3f}")


class TestCriterion7Determinism:
    def test_golden_csv_stable_across_runs_and_threads(self):
        def cfg(threads):
            return McConfig(replications=20, n_values=(120,), a_values=(4,),
                            families=("power",), variants=("ols_short",),
                            hypotheses=("null", "alternative"),
                            alphas=(0.05, 0.1), seed=31, threads=threads)

        golden = open(os.path.join(os.path.dirname(__file__), "data",
                                   "golden_mc.csv")).read()
        runs = [run_mc(cfg(1)).to_csv(), run_mc(cfg(1)).to_csv(),
                run_mc(cfg(2)).to_csv(), run_mc(cfg(3)).to_csv()]
        ok = all(r == golden for r in runs)
        check("7 (golden determinism)", ok,
              "byte-identical across repeats and thread counts" if ok
              else "MISMATCH against frozen golden file")


class TestMonteCarloOrdering:
    def test_power_increases_with_sample_size(self, mc_main,
                                              mc_small_sample_power):
        # Figure-ordering property: large-sample power dominates
        # small-sample power for every shared expansion size, separated by
        # three combined standard errors
        gaps = []
        ok = True
        for a_n in (4, 5, 6, 7, 8):
            hi = mc_main.rate("ols_short", "power", 1000, a_n, "alternative")
            lo = mc_small_sample_power.rate("ols_short", "power", 250, a_n,
                                            "alternative")
            se = math.sqrt(hi * (1 - hi) / 1000 + lo * (1 - lo) / 1000)
            gaps.append((a_n, hi - lo, se))
            ok = ok and (hi - lo) >= 3.0 * se
        check("mc (power ordering in n)", ok,
              "; ".join(f"a={a}: gap={g:.3f} (3se={3*s:.3f})"
                        for a, g, s in gaps))
