"""LM-type quadratic-form statistics and their reference distributions.

The headline statistic regresses Y on the null design W, residualizes the
alternative block Z on W, and forms

    stat = r' Zt (Zt' S Zt)^{-1} Zt' r,      S = diag(weights),

with weights equal to the squared restricted residuals (or the true error
variances, for oracle diagnostics).  Centering by the number of restrictions
r_n and scaling by sqrt(2 r_n) gives an asymptotically standard normal test
statistic; the chi-square(r_n) rule is reported alongside.

Every statistic variant is one cell of a 2x2, evaluated by
``variant_statistic``:

                    short block (Zt = M_W Z)    long block (Schur complement)
    OLS residuals   ols_short  (the test)       ols_long
    FGLS residuals  fgls_short                  fgls_long

The residual choice is the plain OLS residuals with weights S, or the
residuals of the S^{-1}-weighted refit with weights S^{-1}; the block is the
restriction block alone ("short") or the Schur complement of the full moment
set ("long").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .distributions import chisq_quantile, chisq_sf, normal_quantile, normal_sf
from .errors import ExactFitError, SingularMomentMatrixError
from .regress import ols_fit, residualize_block

__all__ = [
    "VarianceWeights",
    "TestResult",
    "VARIANTS",
    "lm_statistic",
    "variant_statistic",
    "standardize",
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


def floored_squares(residuals: np.ndarray) -> tuple:
    """Squared residuals floored at ``RESIDUAL_FLOOR_REL`` times their mean, per column.

    Works along axis 0, so a matrix holds one residual vector per column.
    Returns the floored squares and, per column, whether any was floored.
    """
    r2 = np.square(residuals)
    floor = RESIDUAL_FLOOR_REL * r2.mean(axis=0)
    needs = r2 < floor
    return np.where(needs, floor, r2), needs.any(axis=0)


@dataclass(frozen=True)
class VarianceWeights:
    """Per-observation variance weights with a small-value floor.

    FGLS-style statistics divide by these, so exact zeros (possible when the
    null fit interpolates some points) are floored at
    ``RESIDUAL_FLOOR_REL * mean`` and the flooring is recorded.
    """

    values: np.ndarray
    floor_applied: bool

    @classmethod
    def from_residuals(cls, residuals) -> "VarianceWeights":
        values, floored = floored_squares(np.asarray(residuals, dtype=float).ravel())
        return cls(values, bool(floored))

    @classmethod
    def from_true(cls, sigma2) -> "VarianceWeights":
        s = np.asarray(sigma2, dtype=float).ravel()
        if np.any(s <= 0.0) or not np.all(np.isfinite(s)):
            raise ValueError("true variances must be positive and finite")
        return cls(s.copy(), False)


def _weighted_gram(a: np.ndarray, s: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * s[:, None]).T @ b


# LAPACK called directly: at the sizes here scipy.linalg's input validation
# costs more than the factorization itself
_POTRF, _TRTRS = scipy.linalg.get_lapack_funcs(("potrf", "trtrs"), dtype=np.float64)


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


def _quadform(inner: np.ndarray, u: np.ndarray, what: str) -> float:
    """u' inner^{-1} u through the Cholesky factor of ``inner``."""
    factor = _chol(inner, what)
    _require_finite(u)
    # the factor's diagonal is positive, so the triangular solve cannot fail
    v, _ = _TRTRS(factor, u, lower=True)
    return float(v @ v)


def _short_form(e: np.ndarray, zt: np.ndarray, omega: np.ndarray) -> float:
    """The short block's quadratic form e' Zt (Zt' diag(omega) Zt)^{-1} Zt' e."""
    return _quadform(_weighted_gram(zt, omega, zt), zt.T @ e,
                     "restriction moment matrix")


def lm_statistic(residuals, z_resid, weights: VarianceWeights) -> float:
    """Quadratic form r' Zt (Zt' S Zt)^{-1} Zt' r; always nonnegative."""
    r = np.asarray(residuals, dtype=float).ravel()
    zt = np.asarray(z_resid, dtype=float)
    if zt.ndim != 2 or zt.shape[0] != r.shape[0]:
        raise ValueError("z_resid must be n x r with n matching the residuals")
    if zt.shape[1] < 1:
        raise ValueError("need at least one restriction column")
    if zt.shape[0] <= zt.shape[1]:
        raise ValueError("need n > r")
    return _short_form(r, zt, weights.values)


def variant_statistic(variant: str, residuals, w, z, weights: VarianceWeights,
                      z_resid=None) -> float:
    """Evaluate one of the statistic variants on raw designs.

    A variant is a residual choice times a variance block.  With
    S = diag(weights), V = S^{-1}, r the OLS residuals of Y on W, and rv the
    residuals of the V-weighted refit (so W'V rv = 0), the residual choice
    fixes the score residuals e and the weights Omega,

        ols    e = r,       Omega = S
        fgls   e = V rv,    Omega = V

    and the block fixes the regressors of the quadratic form,

        short  e' Zt (Zt' Omega Zt)^{-1} Zt' e,            Zt = M_W Z
        long   e' Z  (Z'Omega Z - Z'Omega W (W'Omega W)^{-1} W'Omega Z)^{-1} Z' e

    so ``ols_short`` (the default test) is ``lm_statistic``.  The short block
    takes ``z_resid`` = Zt if given, else annihilates Z with a fresh
    factorization of W.  The long block and the FGLS refit share one Cholesky
    factor of W'Omega W.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    residual_choice, block = variant.split("_")
    r = np.asarray(residuals, dtype=float).ravel()
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)

    fgls = residual_choice == "fgls"
    omega = 1.0 / weights.values if fgls else weights.values
    if fgls or block == "long":
        lc = _chol(_weighted_gram(w, omega, w), "null moment matrix")
    e = r
    if fgls:
        # rv from the OLS residuals: the fitted part of Y drops out of the refit
        e = omega * (r - w @ scipy.linalg.cho_solve((lc, True), w.T @ (omega * r)))

    if block == "short":
        if z_resid is None:
            # only the projection context of the fit is used
            z_resid = residualize_block(ols_fit(w, np.zeros(r.shape[0])), z)
        return _short_form(e, z_resid, omega)

    b = _weighted_gram(w, omega, z)
    inner = _weighted_gram(z, omega, z) - b.T @ scipy.linalg.cho_solve((lc, True), b)
    return _quadform(0.5 * (inner + inner.T), z.T @ e, "long variance matrix")


def standardize(stat: float, df: int) -> float:
    """Center a quadratic form at df and scale by sqrt(2 df).

    df is the number of restrictions for the degrees-of-freedom-corrected
    test, or the total term count for the uncorrected comparator.
    """
    if df < 1:
        raise ValueError("df must be >= 1")
    return (stat - df) / math.sqrt(2.0 * df)


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
    """Outcome of one specification test."""

    variant: str
    statistic: float
    r_n: int
    t: float
    p_normal: float
    p_chisq: float
    reject_normal: dict
    reject_chisq: dict
    m_n: int = 0
    k_n: int = 0
    weights_floored: bool = False
    extras: dict = field(default_factory=dict)


def run_test(y, w, z, variant: str = "ols_short", levels=(0.05,),
             true_variances=None, response: str = "y") -> TestResult:
    """Fit the null model, evaluate a statistic variant, and decide.

    The headline decision rule is one-sided normal: reject at level a when
    t > z_{1-a}.  The chi-square(r_n) rule (reject when the quadratic form
    exceeds its upper quantile) is always computed alongside.  A constant or
    exactly fit response, named ``response`` in the message, raises
    ``ExactFitError`` (see ``check_not_exact_fit``).
    """
    y = np.asarray(y, dtype=float).ravel()
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or z.shape[1] < 1:
        raise ValueError("alternative design Z must have at least one column")

    fit = ols_fit(w, y)
    check_not_exact_fit(y, fit.rss, response)
    zt = residualize_block(fit, z)
    weights = (
        VarianceWeights.from_true(true_variances)
        if true_variances is not None
        else VarianceWeights.from_residuals(fit.residuals)
    )
    stat = variant_statistic(variant, fit.residuals, w, z, weights, z_resid=zt)

    r_n = z.shape[1]
    t = standardize(stat, r_n)
    reject_normal = {
        float(a): bool(t > normal_quantile(1.0 - a)) for a in levels
    }
    p_chisq, reject_chisq = chisq_rule(stat, r_n, levels)
    return TestResult(
        variant=variant,
        statistic=stat,
        r_n=r_n,
        t=t,
        p_normal=normal_sf(t),
        p_chisq=p_chisq,
        reject_normal=reject_normal,
        reject_chisq=reject_chisq,
        m_n=w.shape[1],
        k_n=w.shape[1] + r_n,
        weights_floored=weights.floor_applied,
        extras={"fit": fit, "z_resid": zt},
    )
