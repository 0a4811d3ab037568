"""DGP formulas, harness reproducibility, report emission, thread policy."""

import contextlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from serieslm import _blas, lmtest, mc
from serieslm.design import simulation_design
from serieslm.lmtest import run_test
from serieslm.mc import (
    CSV_HEADER,
    DgpSpec,
    McConfig,
    McReport,
    MC_VARIANTS,
    McRow,
    emit_report,
    gen_sample,
    run_mc,
)

DATA_DIR = Path(__file__).parent / "data"


class _HalfRng:
    """Stand-in generator returning 0.5 everywhere."""

    def random(self, n):
        return np.full(n, 0.5)


class TestGenSample:
    def test_center_of_the_cube(self):
        y, x1, x2, sigma2 = gen_sample(DgpSpec(60, "null"), _HalfRng(),
                                       include_variance=True)
        np.testing.assert_allclose(x1, 0.0, atol=1e-15)
        np.testing.assert_allclose(x2, 0.0, atol=1e-15)
        np.testing.assert_allclose(sigma2, 2.75)
        # errors vanish at the median, so y is the regression function
        np.testing.assert_allclose(y, 3.0 + 2.0 * (1.0 - 2.0 * math.log(3.0)),
                                   rtol=1e-12)

    def test_alternative_shift_vanishes_at_center(self):
        y0, *_ = gen_sample(DgpSpec(60, "null"), _HalfRng())
        y1, *_ = gen_sample(DgpSpec(60, "alternative"), _HalfRng())
        np.testing.assert_allclose(y1 - y0, 0.0, atol=1e-15)

    def test_alternative_deviation_formula(self):
        spec = DgpSpec(2000, "null", seed=5)
        rng_a = np.random.Generator(np.random.Philox(42))
        rng_b = np.random.Generator(np.random.Philox(42))
        y0, x1, x2 = gen_sample(spec, rng_a)
        y1, _, _ = gen_sample(DgpSpec(2000, "alternative", seed=5), rng_b)
        np.testing.assert_allclose(
            y1 - y0, 1.21 * np.cos(x1 - 2.0) * np.sin(0.75 * x2), atol=1e-12)

    def test_regressors_bounded_and_correlated(self):
        y, x1, x2 = gen_sample(DgpSpec(100000, "null", seed=1))
        assert x1.min() >= -2.0 and x1.max() <= 2.0
        assert x2.min() >= -2.0 and x2.max() <= 2.0
        corr = np.corrcoef(x1, x2)[0, 1]
        assert 0.47 <= corr <= 0.53

    def test_seeded_without_rng(self):
        a = gen_sample(DgpSpec(50, "null", seed=9))
        b = gen_sample(DgpSpec(50, "null", seed=9))
        np.testing.assert_array_equal(a[0], b[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            DgpSpec(10, "null")
        with pytest.raises(ValueError):
            DgpSpec(100, "both")


def tiny_config(**kwargs):
    base = dict(replications=20, n_values=(120,), a_values=(4,),
                families=("power",), variants=("ols_short",),
                hypotheses=("null", "alternative"), alphas=(0.05, 0.1),
                seed=31)
    base.update(kwargs)
    return McConfig(**base)


class TestRunMc:
    def test_deterministic_across_runs_and_threads(self):
        # the CSV holds only rates, so the mean statistics are compared too:
        # they show a low-bit drift that leaves every rejection unchanged
        cfg = tiny_config()
        reports = [run_mc(cfg), run_mc(cfg), run_mc(tiny_config(threads=2))]
        csv1, csv2, csv3 = (report.to_csv() for report in reports)
        assert csv1 == csv2 == csv3
        means = [[row.mean_statistic for row in report.rows] for report in reports]
        assert means[0] == means[1] == means[2]

    def test_rates_are_frequencies(self):
        report = run_mc(tiny_config())
        for row in report.rows:
            assert 0.0 <= row.reject_rate <= 1.0
            assert row.m_eff == 20
            count = row.reject_rate * row.m_eff
            assert count == pytest.approx(round(count), abs=1e-9)
            se = math.sqrt(row.reject_rate * (1 - row.reject_rate) / row.m_eff)
            assert row.mc_se == pytest.approx(se)

    def test_variant_grid_and_bootstrap_cells(self):
        cfg = tiny_config(replications=5, variants=("ols_short", "wild_bootstrap",
                                                    "data_driven_cp"),
                          a_values=(4, 5), hypotheses=("null",),
                          bootstrap_draws=29)
        report = run_mc(cfg)
        variants = {(r.variant, r.a_n) for r in report.rows}
        assert ("ols_short", 4) in variants and ("ols_short", 5) in variants
        assert ("wild_bootstrap", 4) in variants
        assert ("data_driven_cp", 0) in variants  # grid variants carry a_n = 0

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            tiny_config(variants=("ols_shortest",))

    @pytest.mark.parametrize("name", ["n_values", "a_values", "families", "variants",
                                      "hypotheses", "alphas"])
    def test_empty_axis_rejected_by_name(self, name):
        # an empty axis used to run no cells and write a header-only CSV
        with pytest.raises(ValueError, match=f"^{name} is empty"):
            tiny_config(**{name: ()})

    def test_sample_size_below_minimum_rejected_by_name(self):
        # n = 40 used to fail in its first cell, after every n = 400 cell ran
        with pytest.raises(ValueError, match=r"^n_values \[40\] below the smallest "
                                             r"sample size 50"):
            tiny_config(n_values=(400, 40))
        with pytest.raises(ValueError, match="sample size must be at least 50"):
            DgpSpec(49)
        assert tiny_config(n_values=(50,)).n_values == (50,)

    @pytest.mark.parametrize("alphas", [(0.0,), (0.05, 1.0), (1.5,), (float("nan"),)])
    def test_alpha_outside_unit_interval_rejected(self, alphas):
        with pytest.raises(ValueError, match="alpha levels must be numbers in"):
            tiny_config(alphas=alphas)

    def test_repeated_alphas_kept_once_in_first_seen_order(self):
        assert tiny_config(alphas=(0.1, 0.05, 0.1, 5e-2)).alphas == (0.1, 0.05)

    @pytest.mark.parametrize("name,repeated,once", [
        ("variants", ("ols_short", "ols_short"), ("ols_short",)),
        ("variants", ("data_driven_cp", "ols_short", "data_driven_cp"),
         ("data_driven_cp", "ols_short")),
        ("n_values", (120, 60, 120), (120, 60)),
    ], ids=["variant", "data-driven-variant", "n"])
    def test_repeated_axis_value_runs_once(self, name, repeated, once):
        # a repeated variant used to sum its statistic and its rejections
        # twice into one row key, and a repeated n ran its cells twice
        kwargs = dict(replications=6, a_values=(4, 5), hypotheses=("alternative",),
                      alphas=(0.05,))
        config = tiny_config(**kwargs, **{name: repeated})
        assert getattr(config, name) == once
        report, expected = run_mc(config), run_mc(tiny_config(**kwargs, **{name: once}))
        assert report.to_csv() == expected.to_csv()
        assert ([row.mean_statistic for row in report.rows]
                == [row.mean_statistic for row in expected.rows])

    @pytest.mark.parametrize("name,repeated,once", [
        ("families", ("spline", "power", "spline"), ("spline", "power")),
        ("hypotheses", ("alternative", "null", "null"), ("alternative", "null")),
        ("a_values", (5, 4, 5, 4), (5, 4)),
    ])
    def test_other_axes_drop_repeats_in_first_seen_order(self, name, repeated, once):
        assert getattr(tiny_config(**{name: repeated}), name) == once

    @pytest.mark.parametrize("kwargs,named", [
        (dict(bootstrap_draws=0), "bootstrap_draws must be >= 1, not 0"),
        (dict(bootstrap_draws=-3), "bootstrap_draws must be >= 1, not -3"),
        (dict(bootstrap_dist="gauss"), "bootstrap_dist must be one of"),
    ], ids=["zero-draws", "negative-draws", "unknown-dist"])
    def test_bootstrap_settings_checked_when_built(self, kwargs, named):
        with pytest.raises(ValueError, match=named):
            tiny_config(**kwargs)

    def test_mean_statistic_recorded(self):
        report = run_mc(tiny_config(replications=10, hypotheses=("null",)))
        assert np.isfinite(report.mean_statistic("ols_short", "power", 120, 4,
                                                 "null"))

    def test_report_lookup_and_missing_keys(self):
        rows = tuple(McRow("ols_short", "power", 120, 4, "null", alpha, rate, 0.0,
                           20, 31, mean_statistic=7.5)
                     for alpha, rate in ((0.05, 0.25), (0.1, 0.5)))
        report = McReport(rows=rows, config=tiny_config())
        assert report.rate("ols_short", "power", 120, 4, "null") == 0.25
        assert report.rate("ols_short", "power", 120, 4, "null", 0.1) == 0.5
        assert report.mean_statistic("ols_short", "power", 120, 4, "null") == 7.5
        with pytest.raises(KeyError) as exc:
            report.rate("ols_short", "power", 120, 4, "null", 0.01)
        assert exc.value.args == (("ols_short", "power", 120, 4, "null", 0.01),)
        with pytest.raises(KeyError) as exc:
            report.mean_statistic("ols_short", "power", 120, 5, "null")
        assert exc.value.args == (("ols_short", "power", 120, 5, "null"),)


def every_variant_config(**kwargs):
    # n=1000 with a_n = 8, 9 reaches matrix sizes where OpenBLAS threads its
    # kernels: pinning numpy's BLAS as well moves 46 of these mean statistics
    return McConfig(replications=3, n_values=(150, 1000), a_values=(8, 9),
                    families=("power", "spline"), variants=MC_VARIANTS,
                    seed=13, bootstrap_draws=19, **kwargs)


@pytest.fixture(scope="module")
def pinned_report():
    return run_mc(every_variant_config())


def assert_same_rows(report, expected):
    assert [row.csv_line() for row in report.rows] == \
        [row.csv_line() for row in expected.rows]
    assert [row.mean_statistic for row in report.rows] == \
        [row.mean_statistic for row in expected.rows]


class TestLapackPin:
    def test_one_thread_during_the_run(self, lapack_threads, monkeypatch):
        seen = []
        run_cell = mc._run_cell

        def recording_run_cell(*args):
            seen.append(lapack_threads())
            return run_cell(*args)

        monkeypatch.setattr(mc, "_run_cell", recording_run_cell)
        run_mc(tiny_config(replications=2))
        assert seen == [1, 1]
        assert lapack_threads() == 3

    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_restored_after_run(self, lapack_threads, threads):
        run_mc(tiny_config(replications=2, threads=threads))
        assert lapack_threads() == 3

    def test_count_restored_after_failed_run(self, lapack_threads):
        with pytest.raises(ValueError, match="a_n >= 4"):
            run_mc(tiny_config(replications=2, a_values=(3,)))
        assert lapack_threads() == 3

    def test_worker_initializer_pins(self, lapack_threads, monkeypatch):
        # a worker takes the heap policy as well as the LAPACK pin
        heap_policies = []
        monkeypatch.setattr(_blas, "keep_freed_memory", lambda: heap_policies.append(1))
        _blas.init_worker()
        assert lapack_threads() == 1
        assert heap_policies == [1]

    def test_unpinned_run_is_bitwise_equal(self, lapack_threads, monkeypatch,
                                           pinned_report):
        monkeypatch.setattr(mc, "single_threaded_lapack", contextlib.nullcontext)
        assert {row.variant for row in pinned_report.rows} == set(MC_VARIANTS)
        assert_same_rows(run_mc(every_variant_config()), pinned_report)

    def test_missing_symbols_run_unpinned(self, lapack_threads, monkeypatch,
                                          pinned_report):
        monkeypatch.setattr(_blas, "_thread_functions", lambda: None)
        with _blas.single_threaded_lapack() as pinned:
            assert pinned is False
            assert lapack_threads() == 3
        assert_same_rows(run_mc(every_variant_config()), pinned_report)
        assert lapack_threads() == 3


def force_pool(monkeypatch, workers=2):
    """Make run_mc start ``workers`` processes whatever numpy's BLAS fills."""
    monkeypatch.setattr(mc, "_worker_cap", lambda threads, cores, blas: workers)


class TestWorkerCap:
    @pytest.mark.parametrize("threads,cores,blas_threads,workers", [
        (1, 2, 2, 1),
        (2, 2, 2, 1),
        (3, 2, 2, 1),
        (2, 2, 1, 2),
        (3, 2, 1, 2),
        (8, 8, 2, 4),
        (3, 8, 2, 3),
        (4, 2, 8, 1),
        (3, 2, None, 3),
        (1, 16, None, 1),
    ])
    def test_cap_arithmetic(self, threads, cores, blas_threads, workers):
        assert mc._worker_cap(threads, cores, blas_threads) == workers

    def test_plan_reads_cores_and_numpy_threads(self):
        workers, blas_threads, cores = mc.worker_plan(4)
        assert cores == len(os.sched_getaffinity(0))
        assert blas_threads == _blas.numpy_blas_threads()
        assert workers == mc._worker_cap(4, cores, blas_threads)

    def test_numpy_threads_read(self):
        blas_threads = _blas.numpy_blas_threads()
        if blas_threads is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread query")
        assert blas_threads >= 1

    def test_missing_symbol_sizes_pool_as_requested(self, monkeypatch):
        monkeypatch.setattr(_blas, "NUMPY_THREAD_QUERIES", ("no_such_query",))
        assert _blas.numpy_blas_threads() is None
        assert mc.worker_plan(3) == (3, None, len(os.sched_getaffinity(0)))

    def test_run_mc_starts_the_planned_pool(self, monkeypatch, serial_pool):
        started = serial_pool
        monkeypatch.setattr(mc, "_worker_cap", lambda threads, cores, blas: 1)
        assert run_mc(tiny_config(replications=2, threads=3)).plan.workers == 1
        assert started == []
        force_pool(monkeypatch, 3)
        report = run_mc(tiny_config(replications=2, threads=3))
        assert started == [3]
        assert report.plan == mc.WorkerPlan(3, _blas.numpy_blas_threads(),
                                            len(os.sched_getaffinity(0)))

    def test_forced_pool_is_bitwise_equal(self, monkeypatch, pinned_report):
        in_process = run_mc(tiny_config(threads=2))
        force_pool(monkeypatch)
        assert_same_rows(run_mc(tiny_config(threads=2)), in_process)
        assert_same_rows(run_mc(every_variant_config(threads=2)), pinned_report)

    def test_forced_pool_matches_golden(self, monkeypatch):
        force_pool(monkeypatch)
        golden = (DATA_DIR / "golden_mc.csv").read_text()
        assert run_mc(tiny_config(threads=2)).to_csv() == golden

    def test_lowered_numpy_threads_start_a_pool(self, tmp_path):
        # no monkeypatch: numpy's BLAS on one thread leaves every core free,
        # so --threads 2 starts two real workers, each pinning its LAPACK
        cores = len(os.sched_getaffinity(0))
        if _blas.numpy_blas_threads() is None or cores < 2:
            pytest.skip("needs numpy's OpenBLAS thread query and two usable cores")
        script = (
            "import sys; from serieslm import cli, mc; "
            "sim = ['simulate', '--reps', '3', '--n', '150', '--a-min', '4', "
            "'--a-max', '5', '--hypotheses', 'null,alternative', '--bootstrap', "
            "'19', '--variants', 'ols_short,fgls_long,wild_bootstrap,"
            "data_driven_cp', '--seed', '13']; "
            "assert cli.main(sim + ['--threads', '1', '--out', sys.argv[1]]) == 0; "
            "assert 'concurrent.futures.process' not in sys.modules; "
            "assert cli.main(sim + ['--threads', '2', '--out', sys.argv[2]]) == 0; "
            "assert 'concurrent.futures.process' in sys.modules; "
            "print(tuple(mc.worker_plan(2)))")
        src = Path(mc.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "one"), str(tmp_path / "two")],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stderr == ""  # no "fewer workers" line
        assert out.stdout.splitlines()[-1] == str((2, 1, cores))
        for suffix in (".csv", ".dat"):
            assert (tmp_path / ("two" + suffix)).read_bytes() == \
                (tmp_path / ("one" + suffix)).read_bytes()

    def test_cli_import_leaves_the_pool_unloaded(self):
        src = Path(mc.__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, serieslm.cli; "
             "print('concurrent.futures.process' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestVariantTable:
    def test_every_fixed_variant_is_its_run_test_statistic(self):
        # one replication of one cell, rebuilt from the documented Philox key
        # (family, n, a_n, hypothesis, replication) = (power 1, 150, 5,
        # alternative 2, 0); an MC name is (statistic, weights, decision), so
        # its mean statistic is that of run_test on the same sample
        names = ("ols_short", "ols_short_total", "ols_long", "fgls_long",
                 "fgls_short", "ols_short_oracle", "ols_long_oracle",
                 "fgls_long_oracle", "fgls_short_oracle", "wild_bootstrap")
        seed = 31
        report = run_mc(McConfig(replications=1, n_values=(150,), a_values=(5,),
                                 families=("power",), variants=names,
                                 hypotheses=("alternative",), seed=seed,
                                 bootstrap_draws=19))
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(
            seed, spawn_key=(1, 150, 5, 2, 0))))
        y, x1, x2, sigma2 = gen_sample(DgpSpec(150, "alternative"), rng,
                                       include_variance=True)
        pair = simulation_design(x1, x2, 5)
        for name in names:
            oracle = name.endswith("_oracle")
            base = name.removesuffix("_oracle")
            if base in ("ols_short_total", "wild_bootstrap"):
                base = "ols_short"
            expected = run_test(y, pair.w, pair.z, variant=base,
                                true_variances=sigma2 if oracle else None)
            got = report.mean_statistic(name, "power", 150, 5, "alternative")
            assert got == expected.statistic, name

    def test_one_fit_and_one_statistic_per_distinct_variant(self, monkeypatch):
        # five MC names, three distinct (statistic, true variances?) pairs:
        # ols_short serves ols_short, ols_short_total and wild_bootstrap
        names = ("ols_short", "ols_short_total", "wild_bootstrap",
                 "ols_short_oracle", "fgls_long")
        config = McConfig(replications=1, n_values=(150,), a_values=(5,),
                          variants=names, alphas=(0.05, 0.5), bootstrap_draws=19)
        calls = {"fit": [], "statistic": [], "bootstrap": []}

        def counting(key, real):
            def wrapper(*args, **kwargs):
                out = real(*args, **kwargs)
                calls[key].append((args, out))
                return out
            return wrapper

        monkeypatch.setattr(mc, "ols_fit", counting("fit", mc.ols_fit))
        monkeypatch.setattr(lmtest, "variant_statistic",
                            counting("statistic", lmtest.variant_statistic))
        monkeypatch.setattr(mc, "wild_bootstrap", counting("bootstrap", mc.wild_bootstrap))
        sample = gen_sample(DgpSpec(150, "alternative", seed=4), include_variance=True)
        outcomes = mc._fixed_replicate(config, "power", 5, names)(*sample, (1, 150, 5, 2, 0))
        assert len(calls["fit"]) == 1
        assert [args[1:] for args, _ in calls["statistic"]] == [
            ("ols_short", False), ("ols_short", True), ("fgls_long", False)]
        assert outcomes[0][0] == outcomes[1][0] == outcomes[2][0]
        (_, boot), = calls["bootstrap"]
        assert outcomes[2][1] == {a: boot.reject(a) for a in config.alphas}


class TestEmitReport:
    def test_schema_header(self):
        assert CSV_HEADER == ("variant,family,n,a_n,hypothesis,alpha,"
                              "reject_rate,mc_se,M,seed")

    def test_empty_report(self, tmp_path):
        report = McReport(rows=(), config=tiny_config())
        path = tmp_path / "empty.csv"
        emit_report(report, path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_cell_rows(self, tmp_path):
        report = run_mc(tiny_config(replications=5, hypotheses=("null",)))
        path = tmp_path / "one.csv"
        emit_report(report, path, tmp_path / "one.dat")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2  # one row per alpha
        plot = (tmp_path / "one.dat").read_text()
        assert plot.startswith("# family=power")

    def test_round_trip_values(self):
        row = McRow("ols_short", "power", 120, 4, "null", 0.05,
                    1.0 / 3.0, math.sqrt(2.0) / 7.0, 20, 31)
        fields = row.csv_line().split(",")
        assert float(fields[6]) == row.reject_rate
        assert float(fields[7]) == row.mc_se

    def test_golden_two_cell_run(self):
        # frozen output of a fixed-seed two-cell run; byte-identical across
        # runs and thread counts
        golden = (DATA_DIR / "golden_mc.csv").read_text()
        cfg = tiny_config()
        assert run_mc(cfg).to_csv() == golden
        assert run_mc(tiny_config(threads=3)).to_csv() == golden
