"""Monte Carlo harness: data generating processes, replication driver, reports.

The simulation regressors are correlated affine maps of two independent
uniforms onto [-2, 2]; the errors are independent normals whose variance
1 + 1.75 exp(0.75 (x1 + x2)) moves with both regressors.  Under the null the
mean is 3 + 2 x1 + 2 (exp(x2) - 2 ln(x2 + 3)); the alternative adds
1.21 cos(x1 - 2) sin(0.75 x2).

Randomness: every replication draws from a Philox counter-based generator
seeded with ``SeedSequence(base_seed, spawn_key=(family, n, a_n, hyp, rep))``
(a_n = 0 for the grid-based data-driven variants), and normal variates come
from the inverse-cdf transform of the uniform stream.  Results are therefore
byte-identical across runs and worker counts.

Worker processes: ``run_mc`` starts at most as many as numpy's BLAS leaves
cores for, ``usable cores // numpy's BLAS threads``, and runs the cells in the
calling process when that is one.  numpy's OpenBLAS starts one thread per
usable core by default, so by default the cells always run in the calling
process, and ``config.threads`` (``--threads``) takes effect only when
numpy's BLAS threads are lowered, e.g. with ``OPENBLAS_NUM_THREADS``.  More
processes would only share the cores each one's BLAS already fills.  numpy's
thread count is read, never set.  The policy was measured on two cores only.
Workers run scipy's LAPACK on one thread and keep freed memory on the heap.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._blas import init_worker, numpy_blas_threads, single_threaded_lapack
from .bootstrap import MULTIPLIERS, wild_bootstrap
from .design import simulation_design
from .distributions import normal_quantile
from .errors import SeriesLMError
from .lmtest import VARIANTS, SampleFit, check_alphas, normal_rule, standardize
from .regress import ols_fit
from .tuning import TuningGrid, data_driven_decisions

__all__ = [
    "DgpSpec",
    "McConfig",
    "McRow",
    "McReport",
    "WorkerPlan",
    "gen_sample",
    "run_mc",
    "worker_plan",
    "emit_report",
    "MC_VARIANTS",
    "CSV_HEADER",
]

# MC name -> (statistic variant, true variances?, decision); the decision is
# the normal rule on the statistic standardized by r_n or by k_n, or the wild
# bootstrap p-value of the r_n-standardized statistic.
FIXED_VARIANTS = {
    **{v: (v, False, "r_n") for v in VARIANTS},
    "ols_short_total": ("ols_short", False, "k_n"),
    **{f"{v}_oracle": (v, True, "r_n") for v in VARIANTS},
    "wild_bootstrap": ("ols_short", False, "bootstrap"),
}
GRID_VARIANTS = ("data_driven_cp", "data_driven_gcv")
MC_VARIANTS = tuple(FIXED_VARIANTS) + GRID_VARIANTS

HYPOTHESES = ("null", "alternative")
_FAMILY_CODE = {"power": 1, "spline": 2}
_HYP_CODE = {"null": 1, "alternative": 2}

CSV_HEADER = "variant,family,n,a_n,hypothesis,alpha,reject_rate,mc_se,M,seed"

# A cell with more failed replications than this fraction is an error.
MAX_FAILURE_FRAC = 0.01
# Smallest simulated sample; McConfig holds every n it runs to it.
MIN_SAMPLE_SIZE = 50


@dataclass(frozen=True)
class DgpSpec:
    """One simulated sample: size, which hypothesis holds, and a seed."""

    n: int
    hypothesis: str = "null"
    seed: int = 0

    def __post_init__(self):
        if self.n < MIN_SAMPLE_SIZE:
            raise ValueError(f"sample size must be at least {MIN_SAMPLE_SIZE}")
        if self.hypothesis not in HYPOTHESES:
            raise ValueError(f"hypothesis must be one of {HYPOTHESES}")


def _make_rng(base_seed: int, spawn_key) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(base_seed, spawn_key=spawn_key))
    )


def gen_sample(spec: DgpSpec, rng: np.random.Generator = None,
               include_variance: bool = False):
    """Draw (y, x1, x2) from the simulation DGP; optionally the true variances.

    The three uniform vectors are drawn in the fixed order (V1, V2, U_err);
    uniforms feeding the normal inverse cdf are clipped away from 0.
    """
    if rng is None:
        rng = _make_rng(spec.seed, ())
    n = spec.n
    v1 = rng.random(n)
    v2 = rng.random(n)
    u = np.maximum(rng.random(n), 2.0 ** -54)

    x1 = -2.0 + 4.0 * (0.8 * v1 + 0.2 * v2)
    x2 = -2.0 + 4.0 * (0.2 * v1 + 0.8 * v2)
    sigma2 = 1.0 + 1.75 * np.exp(0.75 * (x1 + x2))
    eps = np.sqrt(sigma2) * normal_quantile(u)
    mean = 3.0 + 2.0 * x1 + 2.0 * (np.exp(x2) - 2.0 * np.log(x2 + 3.0))
    if spec.hypothesis == "alternative":
        mean = mean + 1.21 * np.cos(x1 - 2.0) * np.sin(0.75 * x2)
    y = mean + eps
    if include_variance:
        return y, x1, x2, sigma2
    return y, x1, x2


@dataclass(frozen=True)
class McConfig:
    """Full description of a Monte Carlo run."""

    replications: int
    n_values: tuple = (250, 1000)
    a_values: tuple = (4, 5, 6, 7, 8, 9)
    families: tuple = ("power",)
    variants: tuple = ("ols_short",)
    hypotheses: tuple = HYPOTHESES
    alphas: tuple = (0.05,)
    seed: int = 0
    bootstrap_draws: int = 399
    bootstrap_dist: str = "rademacher"
    threads: int = 1

    def __post_init__(self):
        for name in ("replications", "threads", "bootstrap_draws"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, not {getattr(self, name)}")
        if self.bootstrap_dist not in MULTIPLIERS:
            raise ValueError(f"bootstrap_dist must be one of {MULTIPLIERS}")
        known = {"families": tuple(_FAMILY_CODE), "variants": MC_VARIANTS,
                 "hypotheses": HYPOTHESES}
        for name in ("n_values", "a_values", "families", "variants", "hypotheses",
                     "alphas"):
            values = tuple(getattr(self, name))
            if not values:
                raise ValueError(f"{name} is empty: the run would have no cells")
            unknown = [v for v in values if name in known and v not in known[name]]
            if unknown:
                raise ValueError(f"unknown {name} {unknown}; known: {known[name]}")
            object.__setattr__(self, name, tuple(dict.fromkeys(values)))  # no repeats
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        small = [n for n in self.n_values if n < MIN_SAMPLE_SIZE]
        if small:
            raise ValueError(f"n_values {small} below the smallest sample size "
                             f"{MIN_SAMPLE_SIZE}")
        object.__setattr__(self, "a_values", tuple(int(a) for a in self.a_values))
        object.__setattr__(self, "alphas", check_alphas(self.alphas))


@dataclass(frozen=True)
class McRow:
    """One (variant, cell, alpha) rejection rate."""

    variant: str
    family: str
    n: int
    a_n: int          # 0 marks the grid-based data-driven variants
    hypothesis: str
    alpha: float
    reject_rate: float
    mc_se: float
    m_eff: int        # replications that completed
    seed: int
    mean_statistic: float = math.nan  # in-memory diagnostic, not in the CSV

    def csv_line(self) -> str:
        return ",".join([
            self.variant, self.family, str(self.n), str(self.a_n),
            self.hypothesis, repr(self.alpha), repr(self.reject_rate),
            repr(self.mc_se), str(self.m_eff), str(self.seed),
        ])


class WorkerPlan(NamedTuple):
    """How ``run_mc`` ran its cells: the worker processes it allowed (1: the
    calling process; a single cell also runs there), numpy's BLAS threads per
    process (None: no thread query) and the usable cores."""

    workers: int
    blas_threads: object
    cores: int


@dataclass(frozen=True)
class McReport:
    rows: tuple
    config: McConfig
    plan: WorkerPlan = None  # None for a report not made by run_mc

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [row.csv_line() for row in self.rows]) + "\n"

    def _row(self, *key) -> McRow:
        """The first row keyed (variant, family, n, a_n, hypothesis[, alpha])."""
        for row in self.rows:
            if (row.variant, row.family, row.n, row.a_n, row.hypothesis,
                    row.alpha)[:len(key)] == key:
                return row
        raise KeyError(key)

    def rate(self, variant: str, family: str, n: int, a_n: int,
             hypothesis: str, alpha: float = 0.05) -> float:
        return self._row(variant, family, n, a_n, hypothesis, alpha).reject_rate

    def mean_statistic(self, variant: str, family: str, n: int, a_n: int,
                       hypothesis: str) -> float:
        return self._row(variant, family, n, a_n, hypothesis).mean_statistic


class _CellFailure(SeriesLMError):
    pass


def _fixed_replicate(config: McConfig, family: str, a_n: int, variants: tuple):
    """One replication of a fixed-size cell: (statistic, {alpha: reject}) per variant."""
    alphas = config.alphas

    def replicate(y, x1, x2, sig2, rep_key):
        pair = simulation_design(x1, x2, a_n, family)
        sample = SampleFit(ols_fit(pair.w, y), pair.z, pair.w, true_variances=sig2)
        outcomes = []
        for name in variants:
            variant, oracle, decision = FIXED_VARIANTS[name]
            stat = sample.statistic(variant, oracle)
            if decision == "bootstrap":
                boot_seed = int(np.random.SeedSequence(
                    config.seed, spawn_key=rep_key + (1,)).generate_state(1)[0])
                boot = wild_bootstrap(
                    sample.fit, sample.zt, standardize(stat, pair.r_n),
                    n_draws=config.bootstrap_draws, dist=config.bootstrap_dist,
                    seed=boot_seed, levels=alphas)
                reject = {a: boot.reject(a) for a in alphas}
            else:
                reject = normal_rule(
                    standardize(stat, pair.k_n if decision == "k_n" else pair.r_n), alphas)
            outcomes.append((stat, reject))
        return outcomes

    return replicate


def _grid_replicate(config: McConfig, family: str, variants: tuple):
    """One replication of a data-driven cell: (statistic, {alpha: reject}) per variant."""
    grid = TuningGrid(config.a_values)
    criteria = tuple(v.rsplit("_", 1)[1] for v in variants)

    def replicate(y, x1, x2, sig2, rep_key):
        results = data_driven_decisions(y, x1, x2, grid, family=family,
                                        levels=config.alphas, criteria=criteria)
        return [(results[c].statistic, results[c].reject) for c in criteria]

    return replicate


def _run_cell(config: McConfig, family: str, n: int, a_n: int, hyp: str,
              variants: tuple):
    """Run one cell's replications and return its rows; a_n = 0 is the data-driven cell.

    A replication that raises a package error is dropped whole; the rates and
    mean statistics are over the ``m_eff`` replications that completed.
    """
    if a_n == 0:
        replicate = _grid_replicate(config, family, variants)
    else:
        replicate = _fixed_replicate(config, family, a_n, variants)
    m_reps = config.replications
    alphas = config.alphas
    key = (_FAMILY_CODE[family], n, a_n, _HYP_CODE[hyp])
    counts = {v: {a: 0 for a in alphas} for v in variants}
    stat_sums = {v: 0.0 for v in variants}
    failures = 0

    for b in range(m_reps):
        rng = _make_rng(config.seed, key + (b,))
        sample = gen_sample(DgpSpec(n, hyp), rng, include_variance=True)
        try:
            outcomes = replicate(*sample, key + (b,))
        except SeriesLMError:
            failures += 1
            continue
        for variant, (stat, reject) in zip(variants, outcomes):
            stat_sums[variant] += stat
            for a in alphas:
                counts[variant][a] += reject[a]

    m_eff = m_reps - failures
    if failures > MAX_FAILURE_FRAC * m_reps or m_eff == 0:
        where = f"a_n={a_n}" if a_n else "data-driven"
        raise _CellFailure(
            f"cell (family={family}, n={n}, {where}, {hyp}): "
            f"{failures}/{m_reps} replications failed"
        )
    rows = []
    for variant in variants:
        mean_stat = stat_sums[variant] / m_eff
        for a in alphas:
            p_hat = counts[variant][a] / m_eff
            se = math.sqrt(p_hat * (1.0 - p_hat) / m_eff)
            rows.append(McRow(variant, family, n, a_n, hyp, a, p_hat, se,
                              m_eff, config.seed, mean_stat))
    return rows


def _worker_cap(threads: int, cores: int, blas_threads) -> int:
    """Worker processes for ``threads`` requested, ``cores`` usable and numpy's BLAS threads.

    Every worker's numpy BLAS runs ``blas_threads`` threads, so more than
    ``cores // blas_threads`` workers oversubscribe the cores; None (no
    thread query) leaves the request as it is.
    """
    if blas_threads is None:
        return threads
    return max(1, min(threads, cores // blas_threads))


def worker_plan(threads: int) -> WorkerPlan:
    """The plan ``run_mc`` follows for ``threads`` requested, read in this process."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    blas_threads = numpy_blas_threads()
    return WorkerPlan(_worker_cap(threads, cores, blas_threads), blas_threads, cores)


def run_mc(config: McConfig) -> McReport:
    """Run every requested cell and return the tidy rejection-rate report.

    Cells are independent and may run in separate processes: up to
    ``config.threads``, but no more than numpy's BLAS leaves cores for (see
    ``worker_plan`` and the module docstring), and in this process when that
    is one; the report's ``plan`` says which.  Aggregation order is fixed by
    the cell enumeration, so the rows are identical for any worker count.
    scipy's LAPACK runs on one thread in this process and in every worker
    for the duration of the run (see ``_blas``); the caller's thread count
    is restored on return, also when a cell raises.  Workers keep freed
    memory on the heap; this process keeps the caller's allocator policy.
    """
    fixed = tuple(v for v in config.variants if v in FIXED_VARIANTS)
    grids = tuple(v for v in config.variants if v in GRID_VARIANTS)

    jobs = []
    for family in config.families:
        for n in config.n_values:
            for hyp in config.hypotheses:
                for a_n in config.a_values:
                    if fixed:
                        jobs.append((config, family, n, a_n, hyp, fixed))
                if grids:
                    jobs.append((config, family, n, 0, hyp, grids))

    plan = worker_plan(config.threads)
    with single_threaded_lapack():
        if plan.workers > 1 and len(jobs) > 1:
            # imported only here: a run in this process never loads it
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=plan.workers,
                                     initializer=init_worker) as pool:
                chunks = list(pool.map(_run_cell, *zip(*jobs)))
        else:
            chunks = [_run_cell(*job) for job in jobs]

    rows = tuple(row for chunk in chunks for row in chunk)
    return McReport(rows=rows, config=config, plan=plan)


def emit_report(report: McReport, csv_path, plot_path=None):
    """Write the tidy CSV and, optionally, a gnuplot-style plot-data file.

    The plot file holds one block per (family, n, hypothesis, alpha) with
    a_n in the first column and one rejection-rate column per variant
    (grid-based variants have no a_n axis and are omitted there).
    """
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    if plot_path is None:
        return

    fixed_rows = [r for r in report.rows if r.a_n != 0]
    blocks = []
    for key in dict.fromkeys((r.family, r.n, r.hypothesis, r.alpha) for r in fixed_rows):
        family, n, hyp, alpha = key
        sub = [r for r in fixed_rows
               if (r.family, r.n, r.hypothesis, r.alpha) == key]
        variants = sorted({r.variant for r in sub})
        a_values = sorted({r.a_n for r in sub})
        lines = [
            f"# family={family} n={n} hypothesis={hyp} alpha={alpha!r}",
            "# a_n\t" + "\t".join(variants),
        ]
        table = {(r.variant, r.a_n): r.reject_rate for r in sub}
        for a_n in a_values:
            vals = [repr(table[(v, a_n)]) if (v, a_n) in table else "nan"
                    for v in variants]
            lines.append(f"{a_n}\t" + "\t".join(vals))
        blocks.append("\n".join(lines))
    with open(plot_path, "w", encoding="utf-8") as fh:
        fh.write("\n\n\n".join(blocks) + "\n")
