"""The heap policy: the CLI keeps freed arrays on glibc's heap, and nothing else sets it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from serieslm import _blas, mc
from serieslm.design import simulation_design
from serieslm.lmtest import run_test
from serieslm.mc import DgpSpec, McConfig, gen_sample, run_mc

SRC = Path(mc.__file__).resolve().parents[1]

# records every symbol ctypes looks up, from before the package is imported
AUDIT = """
import json, sys
looked_up = []
sys.addaudithook(lambda event, args: looked_up.append(args[1])
                 if event == "ctypes.dlsym" else None)
"""

FAULTS = AUDIT + """
import resource
from serieslm import _blas
from serieslm.mc import DgpSpec, gen_sample
from serieslm.tuning import TuningGrid, data_driven_decisions

glibc = _blas.keep_freed_memory()
grid = TuningGrid(tuple(range(4, 10)))
samples = [gen_sample(DgpSpec(1000, "alternative", seed=seed)) for seed in range(13)]
with _blas.single_threaded_lapack():
    for y, x1, x2 in samples[:3]:
        data_driven_decisions(y, x1, x2, grid)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for y, x1, x2 in samples[3:]:
        data_driven_decisions(y, x1, x2, grid)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({"glibc": glibc, "faults_per_call": (after - before) / 10}))
"""

SIMULATE = dict(replications=3, n_values=(200,), a_values=(4, 5),
                families=("power", "spline"), hypotheses=("null", "alternative"),
                variants=("ols_short", "fgls_long", "data_driven_cp", "data_driven_gcv"),
                seed=5)
SIMULATE_ARGV = ["simulate", "--reps", "3", "--n", "200", "--a-min", "4", "--a-max", "5",
                 "--family", "power", "--family", "spline",
                 "--hypotheses", "null,alternative",
                 "--variants", "ols_short,fgls_long,data_driven_cp,data_driven_gcv",
                 "--seed", "5"]
MODEL = {
    "linear_vars": ["x1"],
    "series_vars": [{"var": "x2", "family": "power", "a": 5}],
    "alternative": {"recipe": "restricted_tensor",
                    "basis": [{"var": "x1", "family": "power", "a": 5},
                              {"var": "x2", "family": "power", "a": 5}]},
}

# through cli.main: the policy is on
CLI_SIDE = AUDIT + """
from pathlib import Path
import serieslm.cli as cli

reports, real_run_mc = [], cli.run_mc
cli.run_mc = lambda config: reports.append(real_run_mc(config)) or reports[-1]
simulate, test, tmp = json.loads(sys.argv[1])
assert cli.main(simulate + ["--out", tmp + "/sim"]) == 0
assert cli.main(test + ["--out", tmp + "/test.json"]) == 0
print(json.dumps({
    "mallopt": "mallopt" in looked_up,
    "csv": Path(tmp + "/sim.csv").read_text(),
    "mean_statistic": [row.mean_statistic for row in reports[0].rows],
    "test": json.loads(Path(tmp + "/test.json").read_text()),
}))
"""

# through run_mc and run_test in a process that never sets the policy
LIBRARY_SIDE = AUDIT + """
from serieslm import McConfig, ModelSpec, build_partially_linear, run_mc, run_test
from serieslm import screen_collinear, wild_bootstrap
from serieslm.cli import load_csv

simulate, data, model = json.loads(sys.argv[1])
report = run_mc(McConfig(**{key: tuple(value) if isinstance(value, list) else value
                            for key, value in simulate.items()}))
dataset = load_csv(data)
pair, dropped = screen_collinear(build_partially_linear(dataset.columns,
                                                        ModelSpec.from_dict(model)))
result = run_test(dataset["y"], pair.w, pair.z, levels=(0.05,), response="y")
star = wild_bootstrap(result.sample.fit, result.sample.zt, result.t, n_draws=99,
                      seed=3, levels=(0.05,))
print(json.dumps({
    "mallopt": "mallopt" in looked_up,
    "csv": report.to_csv(),
    "mean_statistic": [row.mean_statistic for row in report.rows],
    "test": {"m_n": pair.m_n, "r_n": pair.r_n, "dropped_columns": dropped,
             "statistic": result.statistic, "t": result.t,
             "p_normal": result.p_normal, "p_chisq": result.p_chisq,
             "weights_floored": result.weights_floored,
             "bootstrap": {"p_value": star.p_value, "n_failed": star.n_failed,
                           "critical_values": {repr(a): v for a, v
                                               in star.critical_values.items()}}},
}))
"""


def run_python(code: str, *args) -> dict:
    """Run ``code`` in a fresh interpreter on this package; its last output line, parsed."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("MALLOC_")}
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env={**env, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_no_page_faults_per_data_driven_call():
    # measured: 0 faults per call with the policy, 138-618 without it
    got = run_python(FAULTS)
    if not got["glibc"]:
        pytest.skip("the heap policy needs glibc's mallopt")
    assert got["faults_per_call"] <= 50


def test_outputs_do_not_depend_on_the_policy(tmp_path):
    y, x1, x2 = gen_sample(DgpSpec(300, "null", seed=3))
    data = tmp_path / "data.csv"
    data.write_text("y,x1,x2\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c
                                          in zip(y.tolist(), x1.tolist(), x2.tolist())))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"y": "y", "model": MODEL}))
    test_argv = ["test", "--data", str(data), "--config", str(config),
                 "--bootstrap", "99", "--seed", "3"]

    with_policy = run_python(CLI_SIDE, json.dumps([SIMULATE_ARGV, test_argv, str(tmp_path)]))
    without = run_python(LIBRARY_SIDE, json.dumps([SIMULATE, str(data), MODEL]))
    assert not without.pop("mallopt")
    assert with_policy.pop("mallopt") == _blas.keep_freed_memory()
    assert with_policy["csv"] == without["csv"]
    assert with_policy["mean_statistic"] == without["mean_statistic"]
    cli_doc, library_doc = with_policy["test"], without["test"]
    boot = library_doc.pop("bootstrap")
    assert {key: cli_doc[key] for key in library_doc} == library_doc
    assert {key: cli_doc["bootstrap"][key] for key in boot} == boot


def test_library_calls_leave_the_allocator_alone(monkeypatch):
    calls = []
    monkeypatch.setattr(_blas, "keep_freed_memory", lambda: calls.append(1))
    y, x1, x2 = gen_sample(DgpSpec(200, "alternative", seed=4))
    pair = simulation_design(x1, x2, 4)
    run_test(y, pair.w, pair.z)
    run_mc(McConfig(replications=2, n_values=(150,), a_values=(4,),
                    variants=("ols_short", "data_driven_cp")))
    assert calls == []
    # importing the package never looks mallopt up
    assert "mallopt" not in run_python(AUDIT + "import serieslm, serieslm.cli\n"
                                       "print(json.dumps(looked_up))")


class TestNotGlibc:
    def test_libc_that_cannot_load_is_a_no_op(self, monkeypatch):
        def missing(path):
            raise OSError(f"{path}: cannot open shared object file")

        monkeypatch.setattr(_blas, "_library", missing)
        assert _blas.keep_freed_memory() is False

    def test_libc_without_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(_blas, "_library", lambda path: object())
        assert _blas.keep_freed_memory() is False

    def test_refused_value_is_reported(self, monkeypatch):
        class Libc:
            @staticmethod
            def mallopt(param, value):
                return int(param != _blas.HEAP_POLICY[0][0])

        monkeypatch.setattr(_blas, "_library", lambda path: Libc())
        assert _blas.keep_freed_memory() is False
