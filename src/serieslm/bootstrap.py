"""Wild bootstrap critical values for the standardized LM statistic.

Each draw multiplies the restricted residuals of a ``lmtest.SampleFit`` by an
i.i.d. mean-zero, unit-variance two-point variable (Rademacher or Mammen),
re-applies the annihilator of the null design to the synthetic errors (no
refitting is needed: the bootstrap residuals equal M_W eps* exactly), and
recomputes the quadratic form of ``lm_statistic`` on the sample's Zt, weighted
by the draw's own squared residuals under the same floor as the observed
statistic.  Draw b uses the substream
``SeedSequence(seed, spawn_key=(b,))`` of a Philox counter-based generator,
so results are reproducible independently of how draws are partitioned.

The draws run in blocks of ``_BLOCK``, one row per draw throughout.  A
block's synthetic errors are annihilated in place as one n x block matrix,
its scores e*'Zt come from one product, and the squared residuals S are
floored per draw into the same matrix.  The upper triangles of all the
block's inner matrices Zt' diag(s_b) Zt are the rows of S'K, where K is the
Khatri-Rao (column-wise Kronecker) product of Zt with itself restricted to
i <= j: column (i, j) of K is zt_i * zt_j.  K' is built a panel of rows at a
time, and each panel is one well-shaped product with all the block's draws.
Row b, in ``np.triu_indices`` order, is the lower triangle of draw b's
matrix packed column by column, so each draw is factored straight from its
row by LAPACK's ``pptrf`` and solved by BLAS's ``tpsv``; a singular draw
costs only its own statistic (NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import SingularMomentMatrixError
from .lmtest import _require_finite, floored_squares, standardize
from .regress import FitResult, annihilate

__all__ = ["MULTIPLIERS", "draw_multipliers", "wild_bootstrap", "BootstrapResult"]

_SQRT5 = math.sqrt(5.0)
MAMMEN_LOW = (1.0 - _SQRT5) / 2.0
MAMMEN_HIGH = (1.0 + _SQRT5) / 2.0
MAMMEN_P_HIGH = (_SQRT5 - 1.0) / (2.0 * _SQRT5)

MULTIPLIERS = ("rademacher", "mammen")

# Draws with a singular inner matrix are skipped; more than this fraction
# aborts the run.
MAX_FAILURE_FRAC = 0.01

# Draws per block, and entries of one panel of Khatri-Rao rows (2 MiB).  A
# block holds 8 n + 4 r (r + 1) bytes per draw (its weights and packed
# triangles) besides one panel and Zt' itself: one call at r = 89 peaks at
# 7.4 MB at n = 1250, and at 13.0 MB at n = 5000, B = 399.
_BLOCK = 100
_PANEL_SIZE = 1 << 18

# LAPACK and BLAS called directly on each draw's packed triangle
_PPTRF, = scipy.linalg.get_lapack_funcs(("pptrf",), dtype=np.float64)
_TPSV, = scipy.linalg.get_blas_funcs(("tpsv",), dtype=np.float64)


def draw_multipliers(dist: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. draws from the named two-point multiplier distribution."""
    if dist == "rademacher":
        return rng.integers(0, 2, size=n).astype(float) * 2.0 - 1.0
    if dist == "mammen":
        u = rng.random(n)
        return np.where(u < MAMMEN_P_HIGH, MAMMEN_HIGH, MAMMEN_LOW)
    raise ValueError(f"unknown multiplier distribution {dist!r}")


@dataclass(frozen=True)
class BootstrapResult:
    """Bootstrap distribution of the standardized statistic.

    ``p_value`` uses the add-one convention (#{t* >= t} + 1) / (B + 1) over
    the valid draws; ``critical_values`` are empirical upper quantiles.
    """

    t_star: np.ndarray
    p_value: float
    critical_values: dict
    n_draws: int
    n_failed: int
    seed: int

    def reject(self, level: float) -> bool:
        return self.p_value <= level


def unreachable_levels(valid_draws: int, levels):
    """(floor, unreachable, fewest): the add-one p-value's least value 1/(valid_draws
    + 1), the levels below it, and the fewest valid draws that reach them (or None)."""
    floor = 1.0 / (valid_draws + 1.0)
    unreachable = [a for a in levels if floor > a]
    if not unreachable:
        return floor, unreachable, None
    top = math.ceil(1.0 / min(unreachable))  # 1/level may round past an integer
    return floor, unreachable, next(b for b in (top - 2, top - 1, top)
                                    if 1.0 / (b + 1.0) <= min(unreachable))


def _packed_grams(zt_rows: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Upper triangles of every draw's Zt' diag(s_b) Zt, one row per draw.

    Column (i, j) of the result, i <= j in ``np.triu_indices`` order, is row
    (i, j) of the Khatri-Rao matrix K' (rows zt_i * zt_j, with ``zt_rows``
    = Zt') applied to the n x draws weights ``s``.  K' is built a panel of
    rows at a time into one buffer, and each panel is one product with every
    draw.  Row b is then the lower triangle of draw b's matrix packed column
    by column, as LAPACK's ``pptrf`` takes it.
    """
    r_n, n = zt_rows.shape
    total = r_n * (r_n + 1) // 2
    packed = np.empty((s.shape[1], total))
    panel = np.empty((min(max(_PANEL_SIZE // n, 1), total), n))
    done = fill = 0
    for i in range(r_n):
        j = i
        while j < r_n:
            k = min(r_n - j, len(panel) - fill)
            np.multiply(zt_rows[i], zt_rows[j:j + k], out=panel[fill:fill + k])
            j += k
            fill += k
            if fill == len(panel) or done + fill == total:
                np.matmul(s.T, panel[:fill].T, out=packed[:, done:done + fill])
                done += fill
                fill = 0
    return packed


def _packed_quadform(ap: np.ndarray, u: np.ndarray) -> float:
    """u' A^{-1} u for the A whose lower triangle ``ap`` packs; ``ap`` and ``u`` are overwritten."""
    r_n = u.shape[0]
    factor, info = _PPTRF(r_n, ap, lower=1, overwrite_ap=1)
    if info > 0:
        raise SingularMomentMatrixError("restriction moment matrix is singular or indefinite")
    # the factor's diagonal is positive, so the triangular solve cannot fail
    v = _TPSV(r_n, factor, u, lower=1, overwrite_x=1)
    return float(v @ v)


def _block_statistics(fit: FitResult, zt_rows: np.ndarray, dist: str, seed: int,
                      draws: range) -> np.ndarray:
    """Standardized statistics of the given draws, NaN where the inner matrix is singular."""
    r_n, n = zt_rows.shape
    et = np.empty((len(draws), n))
    for j, b in enumerate(draws):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            seed, spawn_key=(b,))))
        et[j] = draw_multipliers(dist, n, rng)
    et *= fit.residuals
    e = et.T
    annihilate(fit, e, out=e)
    u = e.T @ zt_rows.T
    s = floored_squares(e, out=e)[0]
    packed = _packed_grams(zt_rows, s)
    _require_finite(packed)
    _require_finite(u)
    stats = np.empty(len(draws))
    for j in range(len(draws)):
        try:
            stats[j] = _packed_quadform(packed[j], u[j])
        except SingularMomentMatrixError:
            stats[j] = math.nan
    return standardize(stats, r_n)


def wild_bootstrap(fit: FitResult, z_resid, t_observed: float, n_draws: int = 399,
                   dist: str = "rademacher", seed: int = 0,
                   levels=(0.05,)) -> BootstrapResult:
    """Bootstrap p-value and critical values for an observed t statistic.

    Parameters
    ----------
    fit : FitResult
        Restricted fit; its residuals and projection context are reused
        across all draws.
    z_resid : array, shape (n, r)
        The annihilated alternative block (fixed across draws).
    t_observed : float
        The standardized statistic computed on the data.
    n_draws : int
        Number of bootstrap draws B.
    dist : str
        "rademacher" or "mammen".
    seed : int
        Base seed; draw b derives its own substream.
    """
    if n_draws < 1:
        raise ValueError("need at least one bootstrap draw")
    if dist not in MULTIPLIERS:
        raise ValueError(f"unknown multiplier distribution {dist!r}")
    z_resid = np.asarray(z_resid, dtype=float)
    r_n = z_resid.shape[1]
    if r_n < 1 or z_resid.shape[0] != fit.n_obs:
        raise ValueError("z_resid must be n x r with r >= 1")

    zt_rows = np.ascontiguousarray(z_resid.T)
    t_star = np.concatenate([
        _block_statistics(fit, zt_rows, dist, seed,
                          range(start, min(start + _BLOCK, n_draws)))
        for start in range(0, n_draws, _BLOCK)])

    valid = t_star[np.isfinite(t_star)]
    n_failed = n_draws - valid.size
    if valid.size == 0 or n_failed > MAX_FAILURE_FRAC * n_draws:
        raise SingularMomentMatrixError(
            f"{n_failed} of {n_draws} bootstrap draws had singular moment "
            "matrices; the design is too rich for this sample"
        )
    p_value = (float(np.sum(valid >= t_observed)) + 1.0) / (valid.size + 1.0)
    critical_values = {
        float(a): float(np.quantile(valid, 1.0 - a)) for a in levels
    }
    return BootstrapResult(
        t_star=t_star,
        p_value=p_value,
        critical_values=critical_values,
        n_draws=n_draws,
        n_failed=n_failed,
        seed=int(seed),
    )
