"""Data-driven choice of the series sizes and the resulting test.

Model-size selection under the null uses Mallows's Cp or generalized
cross-validation over a grid of candidate expansions.  The number of
restrictions is then chosen by maximizing the penalized statistic

    stat(r) - r - gamma * sqrt(2 (r - r_min)),   gamma = c sqrt(2 ln #grid),

over the candidates at least as rich as the selected null model, and the
decision compares the winning statistic against the chi-square quantile with
r_min degrees of freedom.  A candidate below every selected null model is fit
but never tested: no decision reads its statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import (SIMULATION_A_MIN, ColumnTable, screen_collinear, simulation_design,
                     simulation_spec)
from .lmtest import SampleFit, check_alphas, check_not_exact_fit, chisq_rule
from .regress import ols_fit

__all__ = [
    "TuningGrid",
    "DataDrivenResult",
    "select_r",
    "data_driven_test",
]

CRITERIA = ("cp", "gcv")
# Penalty constant c of the restriction-count selection, unless a caller sets one.
PENALTY_C = 3.0


@dataclass(frozen=True)
class TuningGrid:
    """Candidate univariate expansion sizes plus the selection penalty constant."""

    candidates: tuple
    c: float = PENALTY_C

    def __post_init__(self):
        cand = tuple(int(a) for a in self.candidates)
        if not cand:
            raise ValueError("tuning grid is empty")
        if any(b <= a for a, b in zip(cand, cand[1:])):
            raise ValueError("grid candidates must be strictly increasing")
        if cand[0] < SIMULATION_A_MIN:
            raise ValueError(f"grid candidates must be >= {SIMULATION_A_MIN}, "
                             f"not {cand[0]}")
        if not 1.0 <= self.c < math.inf:  # nan and inf leave select_r no maximum
            raise ValueError(f"penalty constant c must be finite and >= 1, not {self.c}")
        object.__setattr__(self, "candidates", cand)


def _select_size(fits, criterion: str) -> int:
    """Index of the fit minimizing the "cp" or "gcv" score; ties to the smallest model.

    A fit is anything with ``rss``, ``n_params`` and ``n_obs``.

    Cp scores RSS/n + 2 s2 m/n, with the error variance s2 estimated from the
    largest candidate model; GCV scores n RSS / (n - m)^2.
    """
    rss = np.asarray([fit.rss for fit in fits])
    sizes = np.asarray([fit.n_params for fit in fits])
    n = fits[0].n_obs
    if np.any(sizes >= n):
        raise ValueError("every candidate needs n > m")
    if criterion == "cp":
        big = int(np.argmax(sizes))
        s2 = rss[big] / (n - sizes[big])
        scores = rss / n + 2.0 * s2 * sizes / n
    else:
        scores = n * rss / (n - sizes) ** 2
    return min(range(len(fits)), key=lambda i: (scores[i], sizes[i]))


def select_r(stat_by_r, r_min: int, c: float = PENALTY_C) -> int:
    """Restriction count maximizing the penalized statistic; ties to smallest r."""
    if not stat_by_r:
        raise ValueError("empty restriction grid")
    keys = sorted(stat_by_r)
    if keys[0] != r_min:
        raise ValueError(f"r_min={r_min} is not the smallest grid value {keys[0]}")
    gamma = c * math.sqrt(2.0 * math.log(len(keys)))
    best_r, best_val = None, -math.inf
    for r in keys:
        val = stat_by_r[r] - r - gamma * math.sqrt(2.0 * (r - r_min))
        if val > best_val:
            best_r, best_val = r, val
    return best_r


@dataclass(frozen=True)
class DataDrivenResult:
    """Outcome of the test with data-driven series sizes.

    The statistic is evaluated at the selected restriction count but judged
    against the chi-square quantile with ``r_min`` degrees of freedom, the
    restriction count implied by the selected null model.
    """

    criterion: str
    selected_a: int
    selected_r: int
    r_min: int
    statistic: float
    p_value: float
    reject: dict
    candidate_table: tuple = field(default=())


def _null_fit(y, x1, x2, a: int, family: str, table: ColumnTable) -> tuple:
    """(a, null fit, Z) of one grid candidate; its W dies on return."""
    pair = simulation_design(x1, x2, a, family, table)
    return a, ols_fit(pair.w, y, column_labels=pair.w_labels), pair.z


def _row(a: int, fit, z) -> tuple:
    """(a, m_n, r_n, rss, statistic) of one candidate; its Zt dies on return."""
    return a, fit.n_params, z.shape[1], fit.rss, SampleFit(fit, z).statistic()


def data_driven_decisions(y, x1, x2, grid: TuningGrid, family: str = "power",
                          levels=(0.05,), criteria=CRITERIA) -> dict:
    """Data-driven tests for several selection criteria on one sample.

    Every candidate's design is gathered from one column table of the
    sample, so each distinct column is computed once, and each design is
    built once.  The null fits of all candidates come first, and each
    criterion picks its null size from them.  The statistic is then computed
    only from the smaller pick upward: no decision reads a candidate below
    both picks, so a statistic there is never computed and cannot fail.
    Returns {criterion: DataDrivenResult}.
    """
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}; expected {CRITERIA}")
    y = np.asarray(y, dtype=float).ravel()
    table = ColumnTable({"x1": x1, "x2": x2},
                        [simulation_spec(a, family) for a in grid.candidates])
    null_fits = [_null_fit(y, x1, x2, a, family, table) for a in grid.candidates]
    picks = {criterion: _select_size([fit for _, fit, _ in null_fits], criterion)
             for criterion in criteria}
    first = min(picks.values(), default=len(null_fits))
    rows = [_row(*cand) for cand in null_fits[first:]]

    out = {}
    for criterion, a_idx in picks.items():
        reached = rows[a_idx - first:]
        stat_by_r = {r_n: stat for _, _, r_n, _, stat in reached}
        r_min = reached[0][2]
        r_hat = select_r(stat_by_r, r_min, grid.c)
        p_value, reject = chisq_rule(stat_by_r[r_hat], r_min, levels)
        out[criterion] = DataDrivenResult(
            criterion=criterion,
            selected_a=reached[0][0],
            selected_r=r_hat,
            r_min=r_min,
            statistic=stat_by_r[r_hat],
            p_value=p_value,
            reject=reject,
            candidate_table=tuple(reached),
        )
    return out


def data_driven_test(y, x1, x2, grid: TuningGrid, family: str = "power",
                     levels=(0.05,), criterion: str = "cp",
                     response: str = "y") -> DataDrivenResult:
    """Run the specification test with tuned series sizes.

    Every grid candidate ``a`` induces its paired (W, Z) design; Cp or GCV
    picks the null size ``a_hat`` from the W fits, the penalized criterion
    picks the restriction count among candidates with ``a >= a_hat``, the
    only ones whose statistic is computed, and the null is rejected when the
    winning statistic exceeds the chi-square(r_min) critical value.  A
    constant response, or one that a tested candidate fits exactly, raises
    ``ExactFitError`` naming ``response``; bad ``levels``, a ``ValueError``;
    a design column of the largest candidate that overflows, the error of
    ``screen_collinear`` naming it.
    """
    levels = check_alphas(levels)
    y = np.asarray(y, dtype=float).ravel()
    check_not_exact_fit(y, response=response)
    try:
        result = data_driven_decisions(y, x1, x2, grid, family=family, levels=levels,
                                       criteria=(criterion,))[criterion]
    except ValueError:
        # a moment matrix that is not finite: the screen names a column that
        # overflows, in the largest candidate's design, which holds the
        # highest powers
        screen_collinear(simulation_design(x1, x2, grid.candidates[-1], family))
        raise
    # every tested candidate's statistic must rest on more than rounding noise
    check_not_exact_fit(y, min(row[3] for row in result.candidate_table), response)
    return result
