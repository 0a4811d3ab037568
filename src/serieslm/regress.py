"""Restricted least squares and the annihilator of the null design.

The restricted model is fit once by column-pivoted QR; the stored orthonormal
factor is then reused to apply the annihilator M = I - W(W'W)^{-1}W' to
arbitrary vectors or matrices without ever forming the n-by-n projector.
Power-series designs are ill conditioned, so everything goes through the
orthogonal factorization rather than the normal equations.

The factorization calls LAPACK's ``geqp3`` and ``orgqr`` directly, with the
workspace sizes ``scipy.linalg.qr`` would query, so Q, R and the pivots are
bitwise those of ``scipy.linalg.qr(w, mode="economic", pivoting=True)``: at
the sizes of one Monte Carlo replication that wrapper's validation costs more
than the factorization itself.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import RankDeficiencyError

__all__ = ["FitResult", "ols_fit", "annihilate", "residualize_block"]

# A column is rank deficient when |R_jj| is at most this fraction of its norm.
RANK_RTOL = 1e-12

_GEQP3, _ORGQR, _TRTRS = scipy.linalg.get_lapack_funcs(("geqp3", "orgqr", "trtrs"),
                                                       dtype=np.float64)


@functools.lru_cache(maxsize=256)
def _workspace(n: int, m: int) -> tuple:
    """(geqp3, orgqr) workspace sizes of an n x m factorization, queried as scipy does."""
    probe = np.empty((n, m), order="F")
    qp3 = _GEQP3(probe, lwork=-1, overwrite_a=1)[-2]
    gqr = _ORGQR(probe, np.empty(m), lwork=-1, overwrite_a=1)[-2]
    return int(qp3[0].real), int(gqr[0].real)


@dataclass(frozen=True)
class FitResult:
    """Least-squares fit of Y on W plus the reusable projection context.

    Attributes
    ----------
    residuals : ndarray, shape (n,)
        Y minus its orthogonal projection onto the column span of W.
    ortho : ndarray, shape (n, m)
        Orthonormal columns spanning col(W); applying the annihilator is
        ``u - ortho @ (ortho.T @ u)``.
    beta : ndarray, shape (m,)
        Coefficients in the original column order of W, solved on first use.
    rss : float
        Residual sum of squares.
    """

    residuals: np.ndarray
    ortho: np.ndarray
    # the triangular factor, its column order and Q'y, kept for ``beta``
    r: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)
    qty: np.ndarray = field(repr=False)

    @functools.cached_property
    def beta(self) -> np.ndarray:
        beta = np.empty(self.n_params)
        # R is C-ordered, so solved as scipy.linalg.solve_triangular solves it:
        # the transposed lower system, read without a copy
        beta[self.piv] = _TRTRS(self.r.T, self.qty, lower=1, trans=1)[0]
        return beta

    @property
    def n_obs(self) -> int:
        return self.ortho.shape[0]

    @property
    def n_params(self) -> int:
        return self.ortho.shape[1]

    @property
    def rss(self) -> float:
        return float(self.residuals @ self.residuals)


def ols_fit(w, y, column_labels=None) -> FitResult:
    """Fit Y on W by pivoted QR; error out on rank deficiency.

    Parameters
    ----------
    w : array, shape (n, m)
    y : array, shape (n,)
    column_labels : sequence of str, optional
        Used to name offending columns when W is rank deficient.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    y = np.asarray(y, dtype=float).ravel()
    n, m = w.shape
    if y.shape[0] != n:
        raise ValueError(f"length of y ({y.shape[0]}) != rows of W ({n})")
    if n <= m:
        raise ValueError(f"need n > m (got n={n}, m={m})")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in regression inputs")

    lwork_qp3, lwork_gqr = _workspace(n, m)
    qr, piv, tau, _, info = _GEQP3(w, lwork=lwork_qp3)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of geqp3")
    piv -= 1  # geqp3 numbers columns from 1
    r = qr[:m].copy()
    diag = np.abs(np.diag(r))
    # |R_jj| is column piv[j]'s distance from the span of the columns pivoted
    # before it; negligible against the column's own norm, whatever its units,
    # means rank deficient.  No norm exceeds |R_00|, hence the cheap test first.
    if np.any(diag <= RANK_RTOL * diag[0]):
        cols = piv[diag <= RANK_RTOL * np.linalg.norm(w, axis=0)[piv]]
        if cols.size:
            names = (column_labels if column_labels is not None
                     else [f"column {j}" for j in range(m)])
            raise RankDeficiencyError("design is rank deficient; offending columns: "
                                      + ", ".join(str(names[j]) for j in cols),
                                      columns=list(cols))

    q, _, info = _ORGQR(qr, tau, lwork=lwork_gqr, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of orgqr")
    qty = q.T @ y
    residuals = y - q @ qty
    return FitResult(residuals=residuals, ortho=q, r=r, piv=piv, qty=qty)


def annihilate(fit: FitResult, u, out=None) -> np.ndarray:
    """Apply M = I - W(W'W)^{-1}W' to a vector using the stored factor.

    The result is written into ``out`` if given; it may be ``u`` itself.
    """
    u = np.asarray(u, dtype=float)
    if u.shape[0] != fit.n_obs:
        raise ValueError(f"length {u.shape[0]} does not match n = {fit.n_obs}")
    proj = fit.ortho @ (fit.ortho.T @ u)
    return np.subtract(u, proj, out=proj if out is None else out)


def residualize_block(fit: FitResult, z) -> np.ndarray:
    """Columnwise annihilation: residuals of every column of Z on W."""
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    return annihilate(fit, z)
