"""The benchmark's own tests, on the smoke sizes: ``python3 -m pytest bench -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(SMOKE)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run_prints_every_metric_and_passes_its_check(name, trace):
    done = bench("--workload", name, "--seed", "5", "--seconds", "0.3",
                 "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if trace == "0":
        assert all(v["value"] > 0 for v in final["metrics"].values())
        assert "failed_frac" in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    done = bench("--workload", "mc_fixed", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    assert run.tail(samples) == (30.0, 75.0)
    assert run.tail(samples[:19]) == (19.0, 100.0)


def test_reference_mismatch_is_a_failure():
    workload = WORKLOADS["test_dataset"]
    output = {"statistic": 10.0, "t": 1.0, "p_normal": 0.2, "p_chisq": 0.3,
              "bootstrap_p": 0.25}
    assert run.compare_reference(workload.kind, output, dict(output)) == []
    assert run.compare_reference(workload.kind, output, {**output, "statistic": 10.001})
    mc = {"sha256": "a", "fingerprint": {"mean_statistic": [1.0, 2.0]}}
    assert run.compare_reference("mc", mc, dict(mc)) == []
    assert run.compare_reference("mc", mc, {**mc, "sha256": "b"})
    for changed in ([1.0, 2.000001], [1.0]):
        assert run.compare_reference("mc", mc, {**mc, "fingerprint": {"mean_statistic": changed}})


def test_self_times_add_up_to_the_traced_call():
    sys.path.insert(0, str(ROOT / "src"))
    import serieslm.cli as cli
    import serieslm.tuning as tuning

    original = tuning.simulation_design
    tracer = Tracer()
    argv = SMOKE["mc_datadriven"].argv(1, str(run.OUT / "tracer-test"), threads=1)
    run.OUT.mkdir(exist_ok=True)
    assert tracer.root(cli.main, argv) == 0
    assert tuning.simulation_design is original  # patches are undone

    summary = tracer.summary(1)
    (root,) = [s for s in tracer.spans if s[2] == "cli.main"]
    total_self = sum(summary[f"{n}.self_s"] for n in NAMES) + summary["cli.main.self_s"]
    assert total_self == pytest.approx(root[4] - root[3], rel=1e-9)
    assert summary["design.simulation_design.calls"] == 2 * 4  # a = 4, 5 per replication
    assert summary["tuning.data_driven_decisions.calls"] == 4
