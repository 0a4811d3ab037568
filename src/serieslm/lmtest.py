"""LM-type quadratic-form statistics and their reference distributions.

The headline statistic regresses Y on the null design W, residualizes the
alternative block Z on W, and forms

    stat = r' Zt (Zt' S Zt)^{-1} Zt' r,      S = diag(weights),

with weights equal to the squared restricted residuals (or the true error
variances, for oracle diagnostics).  Centering by the number of restrictions
r_n and scaling by sqrt(2 r_n) gives an asymptotically standard normal test
statistic; the chi-square(r_n) rule is reported alongside.

A ``SampleFit`` holds one sample's null fit, and every statistic variant is
evaluated from it by ``variant_statistic`` as one cell of a 2x2:

                    short block (Zt = M_W Z)    long block (Schur complement)
    OLS residuals   ols_short  (the test)       ols_long
    FGLS residuals  fgls_short                  fgls_long

The residual choice is the plain OLS residuals with weights S, or the
residuals of the S^{-1}-weighted refit with weights S^{-1}; the block is the
restriction block alone ("short") or the Schur complement of the full moment
set ("long").  ``lm_statistic`` is the short block's kernel.  The decision
rules ``normal_rule`` and ``chisq_rule`` take levels ``check_alphas`` admits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .distributions import chisq_quantile, chisq_sf, normal_quantile, normal_sf
from .errors import ExactFitError, SingularMomentMatrixError
from .regress import FitResult, ols_fit, residualize_block

__all__ = [
    "SampleFit",
    "TestResult",
    "VARIANTS",
    "lm_statistic",
    "variant_statistic",
    "standardize",
    "check_alphas",
    "normal_rule",
    "chisq_rule",
    "check_not_exact_fit",
    "run_test",
]

# residual choice (OLS or FGLS-weighted) x variance block (short or long)
VARIANTS = ("ols_short", "ols_long", "fgls_long", "fgls_short")

RESIDUAL_FLOOR_REL = 1e-12

# An RSS at most this fraction of the response's centred total sum of squares
# is an exact fit: R^2 = 1 - RSS / TSS rounds to 1, so the residuals, and any
# statistic built on them, are rounding noise.
EXACT_FIT_RTOL = float(np.finfo(float).eps)


def floored_squares(residuals: np.ndarray, out=None) -> tuple:
    """Squared residuals floored at ``RESIDUAL_FLOOR_REL`` times their mean, per column.

    Works along axis 0, so a matrix holds one residual vector per column.
    Returns the floored squares, written into ``out`` if given (it may be
    ``residuals`` itself), and, per column, whether any was floored.
    """
    r2 = np.square(residuals, out=out)
    floor = RESIDUAL_FLOOR_REL * r2.mean(axis=0)
    needs = r2 < floor
    np.copyto(r2, floor, where=needs)
    return r2, needs.any(axis=0)


def _weighted_gram(a: np.ndarray, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * s[:, None]).T @ b


# LAPACK called directly: at the sizes here scipy.linalg's input validation
# costs more than the factorization itself
_POTRF, _POTRS, _TRTRS = scipy.linalg.get_lapack_funcs(("potrf", "potrs", "trtrs"),
                                                       dtype=np.float64)


def _require_finite(a: np.ndarray):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


def _chol(mat: np.ndarray, what: str) -> np.ndarray:
    """Lower Cholesky factor of the symmetric ``mat``, as scipy.linalg.cholesky gives it."""
    _require_finite(mat)
    factor, info = _POTRF(mat, lower=True, clean=True)
    if info > 0:
        raise SingularMomentMatrixError(
            f"{what} is singular or indefinite; the alternative block is "
            "collinear or carries too many terms for this sample"
        )
    return factor


def _cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^{-1} b from the lower Cholesky factor of A, as scipy.linalg.cho_solve gives it."""
    _require_finite(b)
    return _POTRS(factor, b, lower=True)[0]


def _quadform(inner: np.ndarray, u: np.ndarray, what: str) -> float:
    """u' inner^{-1} u through the Cholesky factor of ``inner``."""
    factor = _chol(inner, what)
    _require_finite(u)
    # the factor's diagonal is positive, so the triangular solve cannot fail
    v, _ = _TRTRS(factor, u, lower=True)
    return float(v @ v)


def lm_statistic(residuals, z_resid, weights) -> float:
    """The short-block kernel e' Zt (Zt' diag(weights) Zt)^{-1} Zt' e; always nonnegative."""
    r = np.asarray(residuals, dtype=float).ravel()
    zt = np.asarray(z_resid, dtype=float)
    if zt.ndim != 2 or not 0 < zt.shape[1] < zt.shape[0] == r.shape[0]:
        raise ValueError("z_resid must be n x r with 0 < r < n, n matching the residuals")
    return _quadform(_weighted_gram(zt, np.asarray(weights, dtype=float), zt), zt.T @ r,
                     "restriction moment matrix")


class SampleFit:
    """One sample's null fit, and every statistic evaluated from it.

    Holds the OLS fit of Y on W (``fit``), Z, W (read only by the long block
    and the FGLS refit) and, for oracle statistics, the true error variances.
    Zt = M_W Z (``zt``) and the floored squared residuals are computed on
    first use, and each (variant, oracle) statistic once.
    """

    def __init__(self, fit: FitResult, z, w=None, true_variances=None):
        self.fit = fit
        self.z = np.asarray(z, dtype=float)
        self.w = None if w is None else np.asarray(w, dtype=float)
        if self.z.ndim != 2 or self.z.shape[1] < 1:
            raise ValueError("alternative design Z must have at least one column")
        if true_variances is not None:
            s = true_variances = np.asarray(true_variances, dtype=float).ravel()
            if s.shape[0] != fit.n_obs:
                raise ValueError(f"true_variances has length {s.shape[0]}, "
                                 f"but the sample has n = {fit.n_obs}")
            if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
                raise ValueError("true variances must be positive and finite")
        self.true_variances = true_variances
        self._stats = {}

    @functools.cached_property
    def zt(self) -> np.ndarray:
        return residualize_block(self.fit, self.z)

    @functools.cached_property
    def floored(self) -> tuple:
        """The floored squared residuals, and whether any was raised to the floor."""
        return floored_squares(self.fit.residuals)

    def statistic(self, variant: str = "ols_short", oracle: bool = False) -> float:
        """The ``variant`` statistic (see ``variant_statistic``), computed once."""
        if (variant, oracle) not in self._stats:
            self._stats[variant, oracle] = variant_statistic(self, variant, oracle)
        return self._stats[variant, oracle]


def variant_statistic(sample: SampleFit, variant: str, oracle: bool = False) -> float:
    """Evaluate one of the statistic variants on a sample's fit.

    A variant is a residual choice times a variance block.  With S the
    diagonal of ``sample.true_variances`` (``oracle``) or of the floored
    squared residuals, V = S^{-1}, r the OLS residuals of Y on
    W, and rv the residuals of the V-weighted refit (so W'V rv = 0), the
    residual choice fixes the score residuals e and the weights Omega,

        ols    e = r,       Omega = S
        fgls   e = V rv,    Omega = V

    and the block fixes the regressors of the quadratic form,

        short  e' Zt (Zt' Omega Zt)^{-1} Zt' e,            Zt = M_W Z
        long   e' Z  (Z'Omega Z - Z'Omega W (W'Omega W)^{-1} W'Omega Z)^{-1} Z' e

    so ``ols_short`` (the default test) is ``lm_statistic`` on the sample's
    residuals, Zt and weights.  The long block and the FGLS refit share one
    Cholesky factor of W'Omega W.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if oracle and sample.true_variances is None:
        raise ValueError("an oracle statistic needs true_variances")
    residual_choice, block = variant.split("_")
    r, w, z = sample.fit.residuals, sample.w, sample.z
    fgls = residual_choice == "fgls"
    if w is None and (fgls or block == "long"):
        raise ValueError(f"the {variant} statistic needs W")
    s = sample.true_variances if oracle else sample.floored[0]
    omega = 1.0 / s if fgls else s
    if fgls or block == "long":
        lc = _chol(_weighted_gram(w, omega, w), "null moment matrix")
    e = r
    if fgls:
        # rv from the OLS residuals: the fitted part of Y drops out of the refit
        e = omega * (r - w @ _cho_solve(lc, w.T @ (omega * r)))

    if block == "short":
        return lm_statistic(e, sample.zt, omega)

    b = _weighted_gram(w, omega, z)
    inner = _weighted_gram(z, omega, z) - b.T @ _cho_solve(lc, b)
    return _quadform(0.5 * (inner + inner.T), z.T @ e, "long variance matrix")


def standardize(stat: float, df: int) -> float:
    """Center a quadratic form at df and scale by sqrt(2 df).

    df is the number of restrictions for the degrees-of-freedom-corrected
    test, or the total term count for the uncorrected comparator.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    return (stat - df) / math.sqrt(2.0 * df)


def check_alphas(levels) -> tuple:
    """``levels`` as a tuple of distinct floats in first-seen order: at least
    one, each a test level in (0, 1)."""
    levels = tuple(levels)
    if not levels or not all(0.0 < a < 1.0 for a in levels):
        raise ValueError(f"alpha levels must be numbers in (0, 1), not {list(levels)}")
    return tuple(dict.fromkeys([float(a) for a in levels]))


@functools.lru_cache(maxsize=64)
def _normal_critical(alpha: float) -> float:
    return normal_quantile(1.0 - alpha)  # a scalar AS 241 call costs as much as a statistic


def normal_rule(t: float, levels) -> dict:
    """{a: t > z_{1-a}}, the one-sided normal rule of ``run_test`` and the Monte Carlo."""
    return {float(a): bool(t > _normal_critical(float(a))) for a in levels}


def chisq_rule(stat: float, df: int, levels) -> tuple:
    """Upper-tail p-value of stat under chi-square(df) and {a: stat > q_{1-a}}.

    Shared by ``run_test`` and the data-driven test, so both report the same
    p-value and break the (measure-zero) tie stat == q the same way.
    """
    return chisq_sf(stat, df), {
        float(a): bool(stat > chisq_quantile(1.0 - a, df)) for a in levels
    }


def check_not_exact_fit(y: np.ndarray, rss=None, response: str = "y"):
    """Raise ``ExactFitError`` if ``y`` is constant or, given the null fit's
    RSS, fit to within ``EXACT_FIT_RTOL`` of its centred total sum of squares."""
    if y.max() == y.min():
        raise ExactFitError(f"response {response!r} is constant (centred TSS = 0); "
                            "there is no variation for a specification test to explain")
    if rss is None:
        return
    ratio = rss / float(np.sum(np.square(y - y.mean())))
    if ratio <= EXACT_FIT_RTOL:
        raise ExactFitError(
            f"response {response!r} is fit exactly by the null design (RSS / centred "
            f"TSS = {ratio:.3g}, at most {EXACT_FIT_RTOL:.3g}); its residuals are "
            "rounding noise, and so would be any statistic")


@dataclass(frozen=True)
class TestResult:
    """Outcome of one specification test; ``sample`` is the fit it rests on."""

    variant: str
    statistic: float
    r_n: int
    t: float
    p_normal: float
    p_chisq: float
    reject_normal: dict
    reject_chisq: dict
    m_n: int
    k_n: int
    weights_floored: bool
    sample: SampleFit


def run_test(y, w, z, variant: str = "ols_short", levels=(0.05,),
             true_variances=None, response: str = "y") -> TestResult:
    """Fit the null model, evaluate a statistic variant, and decide.

    The headline decision rule is one-sided normal: reject at level a when
    t > z_{1-a}.  The chi-square(r_n) rule (reject when the quadratic form
    exceeds its upper quantile) is always computed alongside.  A constant or
    exactly fit response, named ``response`` in the message, raises
    ``ExactFitError`` (see ``check_not_exact_fit``); bad ``levels``, a
    ``ValueError`` before the fit.
    """
    levels = check_alphas(levels)
    y = np.asarray(y, dtype=float).ravel()
    fit = ols_fit(w, y)
    check_not_exact_fit(y, fit.rss, response)
    sample = SampleFit(fit, z, w, true_variances)
    oracle = true_variances is not None
    stat = sample.statistic(variant, oracle)

    m_n, r_n = sample.w.shape[1], sample.z.shape[1]
    t = standardize(stat, r_n)
    p_chisq, reject_chisq = chisq_rule(stat, r_n, levels)
    return TestResult(
        variant=variant,
        statistic=stat,
        r_n=r_n,
        t=t,
        p_normal=normal_sf(t),
        p_chisq=p_chisq,
        reject_normal=normal_rule(t, levels),
        reject_chisq=reject_chisq,
        m_n=m_n,
        k_n=m_n + r_n,
        weights_floored=not oracle and bool(sample.floored[1]),
        sample=sample,
    )
