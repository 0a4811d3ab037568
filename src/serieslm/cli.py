"""Command-line front end: test a dataset, run simulations, tune series sizes.

Run settings come from flags; ``test`` reads its model from a JSON file.
Every command is deterministic given --seed.  Exit codes:
0 on completion (a rejection is not an error), 2 on input problems, 3 on
numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from ._blas import keep_freed_memory, single_threaded_lapack
from .bootstrap import MULTIPLIERS, unreachable_levels, wild_bootstrap
from .design import (MODEL, REQUIRED, ModelSpec, build_partially_linear, check_json,
                     screen_collinear)
from .errors import (
    DesignError,
    ExactFitError,
    InputError,
    RankDeficiencyError,
    SeriesLMError,
    SingularMomentMatrixError,
)
from .lmtest import VARIANTS, check_alphas, run_test
from .mc import MC_VARIANTS, McConfig, emit_report, run_mc
from .tuning import CRITERIA, PENALTY_C, TuningGrid, data_driven_test

__all__ = ["Dataset", "load_csv", "main"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class Dataset:
    """Rectangular, all-numeric, named columns."""

    columns: dict
    n: int
    source: str

    def __getitem__(self, name):
        return self.columns[name]

    def __contains__(self, name):
        return name in self.columns


def load_csv(path) -> Dataset:
    """Strict CSV reader: header row, comma-separated, every cell numeric."""
    try:
        # utf-8-sig: a byte-order mark, as Excel writes, is not part of the first name
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        names = [h.strip() for h in header]
        if len(set(names)) != len(names):
            raise InputError(f"{path}: duplicate column names")
        data = [[] for _ in names]
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise InputError(
                    f"{path}: line {lineno} has {len(row)} fields, expected {len(names)}"
                )
            for j, cell in enumerate(row):
                try:
                    val = float(cell)
                except ValueError:
                    raise InputError(
                        f"{path}: line {lineno}, column {names[j]!r}: "
                        f"non-numeric value {cell!r}"
                    ) from None
                if not math.isfinite(val):
                    raise InputError(
                        f"{path}: line {lineno}, column {names[j]!r}: "
                        "missing or non-finite value"
                    )
                data[j].append(val)
    n = len(data[0]) if data else 0
    if n < 2:
        raise InputError(f"{path}: need at least 2 data rows, found {n}")
    cols = {name: np.asarray(vals) for name, vals in zip(names, data)}
    return Dataset(columns=cols, n=n, source=str(path))


# The `test` config: key -> (kind, default), as ``design.check_json`` reads it.
_CONFIG = {"y": (str, None), "model": (MODEL, REQUIRED)}


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot open config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config {path} is not valid JSON: {exc}") from exc
    return check_json(cfg, _CONFIG)


def _rescale_columns(dataset: Dataset, names) -> Dataset:
    cols = dict(dataset.columns)
    for name in names:
        if name not in cols:
            raise InputError(f"variable {name!r} not in dataset")
        v = cols[name]
        lo, hi = float(v.min()), float(v.max())
        if hi == lo:
            raise InputError(f"variable {name!r} is constant; cannot rescale")
        cols[name] = 2.0 * (v - lo) / (hi - lo) - 1.0
    return Dataset(columns=cols, n=dataset.n, source=dataset.source)


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _check_writable(path):
    """Refuse an output path that cannot be written, before any work and
    without creating it: a directory, or one whose directory is missing or
    not writable."""
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise InputError(f"cannot write {path}: {os.strerror(code)}")


def _write_json(path, payload):
    if path is None:
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from None


def _note_unreachable(command: str, draws: int, n_failed: int, levels):
    """One stderr line when ``draws`` bootstrap draws, ``n_failed`` of them
    failed, leave the p-value too coarse to reject at some of ``levels``."""
    floor, unreachable, fewest = unreachable_levels(draws - n_failed, levels)
    if unreachable:
        failed = f" ({n_failed} failed)" if n_failed else ""
        print(f"{command}: note: the bootstrap p-value with --bootstrap {draws}{failed} "
              f"is at least {_fmt(floor)}, so it cannot reject at alpha = "
              f"{', '.join(f'{a:g}' for a in unreachable)}; --bootstrap {fewest} "
              "is the fewest draws that can", file=sys.stderr)


def cmd_test(args) -> int:
    cfg = _load_config(args.config)
    model = ModelSpec.from_dict(cfg["model"])

    # every rule below runs before the data is read
    y_name = args.y or cfg["y"]
    levels = check_alphas(args.alpha or (0.05,))
    if y_name is None:
        raise InputError("name the response column via config 'y' or --y")
    if args.seed < 0:
        raise InputError(f"seed must be >= 0, not {args.seed}")
    if args.bootstrap < 0:
        raise InputError(f"bootstrap draws must be >= 0 (0 disables), not {args.bootstrap}")
    if args.bootstrap and args.variant != "ols_short":
        raise InputError("the wild bootstrap is defined for the ols_short variant only")
    _check_writable(args.out)

    dataset = load_csv(args.data)
    if y_name not in dataset:
        raise InputError(f"response column {y_name!r} not in dataset")
    if args.rescale:
        dataset = _rescale_columns(dataset, model.variables)

    y = dataset[y_name]
    pair = build_partially_linear(dataset.columns, model)
    pair, dropped = screen_collinear(pair)
    if pair.r_n < 1:
        raise DesignError("no alternative columns survive screening")
    result = run_test(y, pair.w, pair.z, variant=args.variant, levels=levels,
                      response=y_name)

    print(f"data: {dataset.source} (n = {dataset.n})")
    print(f"design: m_n = {pair.m_n}, r_n = {pair.r_n}, k_n = {pair.k_n}"
          + (f" (dropped collinear: {', '.join(dropped)})" if dropped else ""))
    print(f"variant = {result.variant}")
    print(f"statistic = {_fmt(result.statistic)}  t = {_fmt(result.t)}")
    print(f"p (normal rule) = {_fmt(result.p_normal)}   "
          f"p (chi-square rule) = {_fmt(result.p_chisq)}")
    for a in levels:
        nr = "reject" if result.reject_normal[a] else "no rejection"
        cr = "reject" if result.reject_chisq[a] else "no rejection"
        print(f"alpha = {a:g}: normal rule -> {nr}; chi-square rule -> {cr}")

    boot_payload = None
    if args.bootstrap:
        star = wild_bootstrap(result.sample.fit, result.sample.zt, result.t,
                              n_draws=args.bootstrap, dist=args.dist, seed=args.seed,
                              levels=levels)
        boot_payload = {
            "p_value": star.p_value,
            "n_draws": star.n_draws,
            "n_failed": star.n_failed,
            "dist": args.dist,
            "critical_values": {repr(a): v for a, v in star.critical_values.items()},
            "reject": {repr(a): star.reject(a) for a in levels},
        }
        print(f"bootstrap (B = {star.n_draws}, {args.dist}): p = {_fmt(star.p_value)}")
        _note_unreachable("test", star.n_draws, star.n_failed, levels)

    _write_json(args.out, {
        "command": "test",
        "source": dataset.source,
        "n": dataset.n,
        "m_n": pair.m_n,
        "r_n": pair.r_n,
        "k_n": pair.k_n,
        "dropped_columns": list(dropped),
        "variant": result.variant,
        "statistic": result.statistic,
        "t": result.t,
        "p_normal": result.p_normal,
        "p_chisq": result.p_chisq,
        "reject_normal": {repr(a): v for a, v in result.reject_normal.items()},
        "reject_chisq": {repr(a): v for a, v in result.reject_chisq.items()},
        "bootstrap": boot_payload,
        "weights_floored": result.weights_floored,
        "seed": args.seed,
    })
    return EXIT_OK


def cmd_tune(args) -> int:
    grid = TuningGrid(tuple(range(args.a_min, args.a_max + 1)), args.c)
    levels = check_alphas(args.alpha or (0.05,))
    _check_writable(args.out)
    dataset = load_csv(args.data)
    for name in (args.y, args.x1, args.x2):
        if name not in dataset:
            raise InputError(f"column {name!r} not in dataset")
    result = data_driven_test(dataset[args.y], dataset[args.x1], dataset[args.x2], grid,
                              family=args.family, levels=levels, criterion=args.criterion,
                              response=args.y)

    print(f"criterion = {result.criterion}")
    print("candidates (a, m_n, r_n, rss, statistic):")
    for a, m_n, r_n, rss, stat in result.candidate_table:
        print(f"  a = {a}: m_n = {m_n}, r_n = {r_n}, "
              f"rss = {_fmt(rss)}, statistic = {_fmt(stat)}")
    print(f"selected null size a = {result.selected_a} "
          f"(r_min = {result.r_min}); selected restrictions r = {result.selected_r}")
    print(f"statistic = {_fmt(result.statistic)}   "
          f"p (chi-square, {result.r_min} df) = {_fmt(result.p_value)}")
    for a in levels:
        word = "reject" if result.reject[a] else "no rejection"
        print(f"alpha = {a:g}: {word}")

    _write_json(args.out, {
        "command": "tune",
        "source": dataset.source,
        "n": dataset.n,
        "y": args.y,
        "x1": args.x1,
        "x2": args.x2,
        "family": args.family,
        "criterion": result.criterion,
        "c": args.c,
        "selected_a": result.selected_a,
        "selected_r": result.selected_r,
        "r_min": result.r_min,
        "statistic": result.statistic,
        "p_value": result.p_value,
        "reject": {repr(a): v for a, v in result.reject.items()},
        "candidates": [
            {"a": a, "m_n": m, "r_n": r, "rss": rss, "statistic": stat}
            for a, m, r, rss, stat in result.candidate_table
        ],
    })
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = McConfig(
        replications=args.reps,
        n_values=tuple(args.n) if args.n else (250,),
        a_values=tuple(range(args.a_min, args.a_max + 1)),
        families=tuple(args.family) if args.family else ("power",),
        variants=tuple(args.variants.split(",")),
        hypotheses=tuple(args.hypotheses.split(",")),
        alphas=tuple(args.alpha) if args.alpha else (0.05,),
        seed=args.seed,
        bootstrap_draws=args.bootstrap,
        bootstrap_dist=args.dist,
        threads=args.threads,
    )
    csv_path = f"{args.out}.csv"
    plot_path = f"{args.out}.dat"
    for path in (csv_path, plot_path):
        _check_writable(path)
    if "wild_bootstrap" in config.variants:
        _note_unreachable("simulate", config.bootstrap_draws, 0, config.alphas)
    report = run_mc(config)
    workers, blas_threads, cores = report.plan
    if workers < config.threads:
        how = ("ran the cells in this process" if workers == 1
               else f"started {workers} worker processes")
        print(f"simulate: --threads {config.threads} {how}: numpy's BLAS runs "
              f"{blas_threads} threads per process on {cores} usable cores",
              file=sys.stderr)
    try:
        emit_report(report, csv_path, plot_path)
    except OSError as exc:
        raise InputError(f"cannot write {exc.filename}: {exc.strerror}") from None
    print(f"wrote {csv_path} and {plot_path}")
    width = max(len(v) for v in config.variants)
    for row in report.rows:
        print(f"{row.variant:<{width}}  {row.family:<6} n={row.n:<5} "
              f"a_n={row.a_n:<2} {row.hypothesis:<11} alpha={row.alpha:g} "
              f"rate={row.reject_rate:.3f} (se {row.mc_se:.3f})")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    A parser is a web of reference cycles: building one per ``main`` call
    leaves a few hundred objects per call for the cyclic collector.
    """
    parser = argparse.ArgumentParser(
        prog="serieslm",
        description="Heteroskedasticity-robust series LM specification tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the specification test on a CSV dataset")
    p_test.add_argument("--data", required=True, help="CSV file (header row, numeric)")
    p_test.add_argument("--config", required=True, help="JSON model configuration")
    p_test.add_argument("--y", help="response column (overrides config)")
    p_test.add_argument("--variant", choices=VARIANTS, default="ols_short",
                        help="statistic variant")
    p_test.add_argument("--alpha", type=float, action="append",
                        help="test level; repeatable (default 0.05)")
    p_test.add_argument("--bootstrap", type=int, default=0, metavar="B",
                        help="wild bootstrap draws (0 disables)")
    p_test.add_argument("--dist", choices=MULTIPLIERS, default="rademacher",
                        help="bootstrap multiplier")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--rescale", action="store_true",
                        help="min-max rescale model variables to [-1, 1]")
    p_test.add_argument("--out", help="write a JSON result file")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="Monte Carlo size/power study")
    p_sim.add_argument("--reps", type=int, required=True, help="replications per cell")
    p_sim.add_argument("--n", type=int, action="append", help="sample size; repeatable")
    p_sim.add_argument("--a-min", type=int, default=4)
    p_sim.add_argument("--a-max", type=int, default=8)
    p_sim.add_argument("--family", action="append", choices=("power", "spline"))
    p_sim.add_argument("--variants", default="ols_short",
                       help=f"comma list from {','.join(MC_VARIANTS)}")
    p_sim.add_argument("--hypotheses", default="null,alternative")
    p_sim.add_argument("--alpha", type=float, action="append")
    p_sim.add_argument("--bootstrap", type=int, default=399, metavar="B")
    p_sim.add_argument("--dist", choices=MULTIPLIERS, default="rademacher")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--threads", type=int, default=1,
                       help="worker processes at most, and no more than usable "
                            "cores // numpy's BLAS threads; numpy's OpenBLAS "
                            "runs one thread per core by default, so this "
                            "starts a pool only when OPENBLAS_NUM_THREADS "
                            "lowers them")
    p_sim.add_argument("--out", required=True, help="output path prefix")
    p_sim.set_defaults(func=cmd_simulate)

    p_tune = sub.add_parser("tune", help="data-driven series sizes on a dataset")
    p_tune.add_argument("--data", required=True)
    p_tune.add_argument("--y", required=True, help="response column")
    p_tune.add_argument("--x1", required=True, help="linear regressor column")
    p_tune.add_argument("--x2", required=True, help="series regressor column")
    p_tune.add_argument("--family", choices=("power", "spline"), default="power")
    p_tune.add_argument("--a-min", type=int, default=4)
    p_tune.add_argument("--a-max", type=int, default=8)
    p_tune.add_argument("--criterion", choices=CRITERIA, default="cp")
    p_tune.add_argument("--c", type=float, default=PENALTY_C)
    p_tune.add_argument("--alpha", type=float, action="append")
    p_tune.add_argument("--out", help="write a JSON result file")
    p_tune.set_defaults(func=cmd_tune)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    keep_freed_memory()
    try:
        with single_threaded_lapack():
            return args.func(args)
    except (InputError, DesignError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RankDeficiencyError, SingularMomentMatrixError, ExactFitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SeriesLMError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
