"""Frozen outputs of the spline, data-driven, bootstrap, ``test`` and ``tune`` paths.

``golden_paths`` computes them; ``test_golden_paths.py`` compares a fresh
computation with ``tests/data/golden_paths.json``.  Record that file again,
from the repository root, only for a change meant to move these numbers:

    PYTHONPATH=src python3 tests/record_golden_paths.py

Counts, picks, column counts and exit codes are compared exactly, floats to
a relative 1e-9.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from serieslm.cli import main
from serieslm.mc import FIXED_VARIANTS, DgpSpec, McConfig, gen_sample, run_mc
from serieslm.tuning import TuningGrid, data_driven_decisions

GOLDEN = Path(__file__).parent / "data" / "golden_paths.json"
SEED = 11
ALPHAS = (0.05, 0.1)
N = 150
FAMILIES = ("power", "spline")
HYPOTHESES = ("null", "alternative")
GRID = (4, 5, 6)
REPS = 4
# `test`: a spline null (three knots) against custom terms
TEST_MODEL = {
    "linear_vars": ["x1"],
    "series_vars": [{"var": "x2", "family": "spline", "a": 7}],
    "alternative": {"recipe": "custom",
                    "custom_terms": ["x1^2", "x1*x2", "x1^2*x2", "x2^4", "x1*x2^2"]},
}


def _rows(report) -> list:
    """Rejection counts, completed replications and mean statistic per report row."""
    return [{"variant": r.variant, "family": r.family, "a_n": r.a_n,
             "hypothesis": r.hypothesis, "alpha": r.alpha,
             "rejections": round(r.reject_rate * r.m_eff), "m_eff": r.m_eff,
             "mean_statistic": r.mean_statistic}
            for r in report.rows]


def _monte_carlo() -> dict:
    fixed = McConfig(replications=REPS, n_values=(N,), a_values=(4, 5), families=FAMILIES,
                     variants=tuple(FIXED_VARIANTS), alphas=ALPHAS, seed=SEED,
                     bootstrap_draws=19)
    grid = McConfig(replications=REPS, n_values=(N,), a_values=GRID, families=FAMILIES,
                    variants=("data_driven_cp", "data_driven_gcv"), alphas=ALPHAS,
                    seed=SEED)
    return {"fixed": _rows(run_mc(fixed)), "data_driven": _rows(run_mc(grid))}


def _data_driven_picks() -> list:
    """(a_hat, r_hat, r_min, statistic) per criterion for each replication of each cell."""
    picks = []
    for family in FAMILIES:
        for hyp in HYPOTHESES:
            for rep in range(REPS):
                y, x1, x2 = gen_sample(DgpSpec(N, hyp, seed=SEED + rep))
                out = data_driven_decisions(y, x1, x2, TuningGrid(GRID), family=family,
                                            levels=ALPHAS)
                picks.append({"family": family, "hypothesis": hyp, "rep": rep, **{
                    c: [res.selected_a, res.selected_r, res.r_min, res.statistic]
                    for c, res in out.items()}})
    return picks


def _write_csv(path, y, x1, x2):
    path.write_text("y,x1,x2\n" + "\n".join(
        f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(y, x1, x2)) + "\n")
    return str(path)


def _run(argv, out) -> dict:
    """Exit code and JSON result file of one command, its source path left out."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", str(out)])
    result = json.loads(out.read_text()) if out.exists() else None
    if result is not None:
        del result["source"]
    return {"exit_code": code, "result": result}


def _commands(tmp: Path) -> dict:
    y, x1, x2 = gen_sample(DgpSpec(240, "alternative", seed=SEED))
    data = _write_csv(tmp / "data.csv", y, x1, x2)
    # x2 on a 0.25 grid: tied data, where knots of different counts coincide
    # and some sit at -0.0
    tied = _write_csv(tmp / "tied.csv", y, x1, np.round(4.0 * x2) / 4.0)
    config = tmp / "model.json"
    config.write_text(json.dumps({"y": "y", "model": TEST_MODEL}))
    tune = ["tune", "--y", "y", "--x1", "x1", "--x2", "x2", "--family", "spline",
            "--alpha", "0.05", "--alpha", "0.1"]
    return {
        "test": _run(["test", "--data", data, "--config", str(config), "--bootstrap", "19",
                      "--seed", "3", "--alpha", "0.05", "--alpha", "0.1"],
                     tmp / "test.json"),
        "tune_cp": _run(tune + ["--data", data], tmp / "tune_cp.json"),
        "tune_gcv": _run(tune + ["--data", data, "--criterion", "gcv"],
                         tmp / "tune_gcv.json"),
        "tune_tied": _run(tune + ["--data", tied, "--a-max", "9"], tmp / "tune_tied.json"),
    }


def golden_paths() -> dict:
    """Every frozen output, as the JSON file holds it."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"monte_carlo": _monte_carlo(), "data_driven_picks": _data_driven_picks(),
                 "commands": _commands(Path(tmp))}
    return json.loads(json.dumps(paths))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_paths(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
