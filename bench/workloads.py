"""The benchmark's workloads: command lines, operation counts and inputs.

Every workload is one fixed-size command of the ``serieslm`` CLI, repeated
back to back.  The sizes below fix how much work one call is, so outputs of
one seed are comparable across runs and against the recorded references;
only the number of calls depends on the run length.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

NPROC = len(os.sched_getaffinity(0))
CONFIG = "configs/gasoline_age.json"


@dataclass(frozen=True)
class McWorkload:
    """A ``serieslm simulate`` call; one operation is one replication."""

    n: int
    a_min: int
    a_max: int
    families: tuple
    variants: str
    hypotheses: str
    reps: int
    threads: int

    kind = "mc"

    @property
    def cells(self) -> int:
        variants = self.variants.split(",")
        per_family = 0
        if any(not v.startswith("data_driven") for v in variants):
            per_family += self.a_max - self.a_min + 1
        if any(v.startswith("data_driven") for v in variants):
            per_family += 1
        return len(self.families) * len(self.hypotheses.split(",")) * per_family

    @property
    def ops_per_call(self) -> int:
        return self.cells * self.reps

    def argv(self, seed: int, out_prefix: str, threads: int = None) -> list:
        argv = ["simulate", "--reps", str(self.reps), "--n", str(self.n),
                "--a-min", str(self.a_min), "--a-max", str(self.a_max)]
        for family in self.families:
            argv += ["--family", family]
        return argv + [
            "--variants", self.variants, "--hypotheses", self.hypotheses,
            "--threads", str(self.threads if threads is None else threads),
            "--seed", str(seed), "--out", out_prefix,
        ]

    def out_file(self, out_prefix: str) -> str:
        return out_prefix + ".csv"


@dataclass(frozen=True)
class TestWorkload:
    """A ``serieslm test`` call on a generated CSV; one call is one operation."""

    n: int
    bootstrap: int
    m_n: int = 21
    r_n: int = 89

    kind = "test"
    ops_per_call = 1

    def argv(self, seed: int, out_prefix: str, threads: int = None) -> list:
        return ["test", "--data", out_prefix + ".data.csv", "--config", CONFIG,
                "--rescale", "--bootstrap", str(self.bootstrap),
                "--seed", str(seed), "--out", self.out_file(out_prefix)]

    def out_file(self, out_prefix: str) -> str:
        return out_prefix + ".json"

    def write_input(self, seed: int, out_prefix: str):
        write_gasoline_csv(out_prefix + ".data.csv", self.n, seed)


_FIXED_VARIANTS = "ols_short,ols_short_total,fgls_long,ols_short_oracle"

WORKLOADS = {
    "mc_fixed": McWorkload(1000, 4, 9, ("power",), _FIXED_VARIANTS,
                           "null,alternative", reps=2, threads=NPROC),
    "mc_datadriven": McWorkload(1000, 4, 9, ("power", "spline"),
                                "data_driven_cp,data_driven_gcv",
                                "null,alternative", reps=3, threads=NPROC),
    "test_dataset": TestWorkload(1250, 199),
}

# Tiny sizes for the benchmark's own tests: same commands, seconds not minutes.
SMOKE = {
    "mc_fixed": McWorkload(200, 4, 5, ("power",), _FIXED_VARIANTS,
                           "null,alternative", reps=2, threads=NPROC),
    "mc_datadriven": McWorkload(200, 4, 5, ("power", "spline"),
                                "data_driven_cp,data_driven_gcv",
                                "null,alternative", reps=1, threads=NPROC),
    "test_dataset": TestWorkload(400, 19),
}

LINEAR = ("price", "income", "drivers", "hhsize", "urban", "youngsingle") + tuple(
    f"month{k}" for k in range(2, 13))


def write_gasoline_csv(path: str, n: int, seed: int):
    """Household gasoline demand data shaped like the configured model's input.

    Columns are ``y`` (log consumption), log ``price`` and ``income``, counts
    ``drivers`` and ``hhsize``, dummies ``urban``, ``youngsingle`` and
    ``month2``..``month12``, and ``age`` of the household head.  The mean has
    a smooth age profile plus a small age-price interaction; the errors are
    heteroskedastic in age.  Drivers and household size take at least three
    values each, so none of the configured squares is collinear and the
    design keeps all m_n = 21 null and r_n = 89 alternative columns.
    """
    rng = np.random.default_rng(seed)
    age = rng.integers(20, 80, n).astype(float)
    price = rng.normal(-0.35, 0.08, n)
    income = rng.normal(10.8, 0.5, n)
    drivers = rng.choice([1, 2, 3, 4], n, p=[0.3, 0.45, 0.2, 0.05])
    hhsize = np.minimum(drivers + rng.poisson(0.8, n), 7)
    urban = (rng.random(n) < 0.7).astype(int)
    youngsingle = ((age < 35) & (rng.random(n) < 0.3)).astype(int)
    month = rng.integers(1, 13, n)
    a = (age - 50.0) / 20.0
    mean = (1.5 - 0.9 * price + 0.3 * income + 0.25 * np.log(drivers)
            + 0.05 * hhsize - 0.2 * urban - 0.15 * youngsingle
            + 0.03 * np.sin(2 * np.pi * month / 12) - 0.3 * a ** 2
            + 0.5 * a * (price + 0.35))
    y = mean + rng.normal(0.0, 1.0, n) * 0.4 * (1.0 + 0.5 * np.abs(a))

    header = ["y"] + list(LINEAR) + ["age"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            row = [repr(float(y[i])), repr(float(price[i])), repr(float(income[i])),
                   str(drivers[i]), str(hhsize[i]), str(urban[i]), str(youngsingle[i])]
            row += ["1" if month[i] == k else "0" for k in range(2, 13)]
            row.append(str(int(age[i])))
            fh.write(",".join(row) + "\n")
