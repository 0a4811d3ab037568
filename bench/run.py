"""serieslm benchmark: three CLI workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload mc_fixed --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload mc_fixed --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --steadiness 5 --workload mc_fixed --seconds 30
    python3 bench/run.py --workload test_dataset --seed 1 --seconds 1 --smoke
    python3 bench/run.py --record-references

The load is a closed loop with one client: each run starts one fresh child
process (``child.py``) that calls ``serieslm.cli.main`` back to back.  The
child's environment has the BLAS/OpenMP thread variables and ``MALLOC_*``
removed, and this benchmark never sets them: the thread policy is the
program's own.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of standard
output is the result object; the lines before it show every metric with its
unit, including ``failed_frac``, and a JSON record with the provenance.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import NPROC, SMOKE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
REFERENCES = BENCH / "references.json"

CLEARED_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
MIN_CALLS = 2      # a run repeats its call at least once, to check determinism
TAIL_BEYOND = 10   # the tail is the highest percentile with 10 samples beyond
REL_TOL = 1e-9     # floats (statistics, p-values) against the references
RUN_LIMIT_S = 170  # a run must end within 180 s
REFERENCE_SEEDS = range(20)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# -- child processes ---------------------------------------------------------

def child_env() -> tuple:
    """The environment for program processes, and what was removed from it."""
    env, removed = {}, {}
    for key, value in os.environ.items():
        if key in CLEARED_ENV or key.startswith("MALLOC_"):
            removed[key] = value
        else:
            env[key] = value
    return env, removed


def run_child(spec: dict, deadline: float) -> dict:
    """Run ``child.py`` on ``spec``; its whole process group ends before return."""
    env, _ = child_env()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")], cwd=ROOT, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            json.dumps({"root": str(ROOT), **spec}),
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{spec['mode']} run did not finish in time") from None
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
    if proc.returncode != 0:
        raise BenchError(f"{spec['mode']} run failed:\n{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1]) if spec["mode"] != "setup" else {}


def measure_setup(deadline: float) -> list:
    """Wall seconds for fresh processes to import the program, one per repeat."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        run_child({"mode": "setup"}, deadline)
        times.append(time.perf_counter() - start)
    return times


# -- output checks -----------------------------------------------------------

def _load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"]


def _comparable(output: dict) -> dict:
    return {k: v for k, v in output.items() if k not in ("csv", "fingerprint")}


def check_outputs(name: str, workload, seed: int, smoke: bool, first: dict,
                  outputs: list) -> list:
    """Problems found in a run's outputs; an empty list means correct.

    ``first`` is the warm-up call's output (with the MC CSV text); every
    other call of the run must give exactly the same output.
    """
    problems = []
    if first.get("missing"):
        return ["the first call wrote no output"]
    for i, out in enumerate(outputs):
        if _comparable(out) != _comparable(first):
            problems.append(f"call {i} output differs from the first call's")
            break

    if workload.kind == "mc":
        rows = list(csv.DictReader(io.StringIO(first["csv"])))
        expected_rows = workload.cells * len(workload.variants.split(","))
        if len(rows) != expected_rows:
            problems.append(f"{len(rows)} CSV rows, expected {expected_rows}")
        for row in rows:
            if int(row["M"]) != workload.reps or int(row["seed"]) != seed:
                problems.append(f"row {row} has M != {workload.reps} or a wrong seed")
                break
    else:
        if (first["m_n"], first["r_n"]) != (workload.m_n, workload.r_n):
            problems.append(f"design m_n={first['m_n']} r_n={first['r_n']}")
        if first["dropped_columns"] or first["bootstrap_failed"] != 0:
            problems.append("columns dropped or bootstrap draws failed")
        if not (0.0 < first["bootstrap_p"] <= 1.0 and math.isfinite(first["statistic"])
                and first["statistic"] >= 0.0):
            problems.append("statistic or bootstrap p out of range")

    reference = None if smoke else _load_references().get(name, {}).get(str(seed))
    if reference is not None:
        problems += compare_reference(workload.kind, first, reference)
    return problems


def compare_reference(kind: str, output: dict, reference: dict) -> list:
    """MC: the CSV bytes and each row's mean statistic (to REL_TOL); test: the
    statistic, t and p-values (to REL_TOL) and the bootstrap p (exactly)."""
    problems = []
    if kind == "mc":
        if output["sha256"] != reference["sha256"]:
            problems.append("MC CSV bytes differ from the reference")
        found = output["fingerprint"]["mean_statistic"]
        expected = reference["fingerprint"]["mean_statistic"]
        if len(found) != len(expected):
            problems.append("MC row count differs from the reference")
        close = [("mean_statistic", a, b) for a, b in zip(found, expected)]
    else:
        close = [(key, output[key], reference[key])
                 for key in ("statistic", "t", "p_normal", "p_chisq")]
        if output["bootstrap_p"] != reference["bootstrap_p"]:
            problems.append(f"bootstrap p {output['bootstrap_p']!r} != "
                            f"reference {reference['bootstrap_p']!r}")
    for key, a, b in close:
        if not math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0):
            problems.append(f"{key} {a!r} != reference {b!r}")
            break
    return problems


# -- metrics -----------------------------------------------------------------

def tail(samples: list) -> tuple:
    """(value, percentile): the highest percentile with 10 samples beyond it.

    With fewer than 20 samples that percentile would lie below the median, so
    the maximum is reported instead, as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload, calls: list, setup_times: list, maxrss_kb: dict) -> tuple:
    """The end-to-end metric values and the facts behind them."""
    wall = [c["wall_s"] for c in calls]
    cpu = [c["cpu_s"] for c in calls]
    p50 = statistics.median(wall)
    tail_s, tail_pct = tail(wall)
    values = {
        "throughput_per_s": workload.ops_per_call / p50,
        "latency_p50_ms": 1e3 * p50,
        "latency_tail_ms": 1e3 * tail_s,
        "cpu_s_per_op": statistics.median(cpu) / workload.ops_per_call,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(maxrss_kb.values()) / 1024.0,
    }
    facts = {
        "latency_samples": len(wall),
        "latencies_s": wall,
        "cpu_s": cpu,
        "latency_tail_percentile": tail_pct,
        "ops_per_call": workload.ops_per_call,
        "throughput_overall_per_s": workload.ops_per_call * len(wall) / sum(wall),
        "setup_samples_s": setup_times,
        "maxrss_kb": maxrss_kb,
    }
    return values, facts


# -- provenance --------------------------------------------------------------

def provenance(child_facts: dict) -> dict:
    _, removed = child_env()
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        **child_facts,
        "cleared_env": {
            "names": list(CLEARED_ENV) + ["MALLOC_*"],
            "removed": removed,
        },
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def _git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# -- one run -----------------------------------------------------------------

def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def preflight():
    """Refuse to run where the program or its inputs are missing."""
    for needed in (ROOT / "src" / "serieslm" / "cli.py", ROOT / "configs" / "gasoline_age.json",
                   ROOT / "BENCHMARK.json"):
        if not needed.is_file():
            raise BenchError(f"{needed.relative_to(ROOT)} not found; run from a "
                             "checkout of the serieslm repository")


def run_once(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple:
    """One benchmark run: the result object and a detailed record.

    Any nonzero exit or failed output check counts every operation of the
    run as failed.
    """
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = (SMOKE if smoke else WORKLOADS)[name]
    metric_specs = bench_spec()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        prefix = str(Path(tmp) / name)
        if workload.kind == "test":
            workload.write_input(seed, prefix)  # benchmark set-up, never timed
        common = {"kind": workload.kind, "out_file": workload.out_file(prefix),
                  "seconds": seconds, "min_calls": MIN_CALLS}
        if trace:
            result = run_child({"mode": "trace", **common,
                                "argv": workload.argv(seed, prefix, threads=1),
                                "spans_path": str(OUT / f"spans-{name}.jsonl")},
                               deadline)
        else:
            setup_times = measure_setup(deadline)
            result = run_child({"mode": "measure", **common,
                                "argv": workload.argv(seed, prefix)}, deadline)

    first, calls = result["warmup"], result["calls"]
    problems = [f"a call exited with {c['rc']}" for c in [first] + calls if c["rc"] != 0][:1]
    problems += check_outputs(name, workload, seed, smoke, first["output"],
                              [c["output"] for c in calls])
    attempted = len(calls) * workload.ops_per_call
    failed = attempted if problems else 0

    if trace:
        values = result["layers"]
        facts = {"traced_calls": result["n_traced"], "spans": f"{OUT.name}/spans-{name}.jsonl"}
        wanted = metric_specs["per_layer"]
    else:
        values, facts = end_to_end(workload, calls, setup_times,
                                   result["maxrss_kb"])
        wanted = metric_specs["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "argv": workload.argv(seed, "<out>", threads=1 if trace else None),
        "failed_frac": failed / attempted, "problems": problems, **facts,
        "provenance": provenance(result["provenance"]),
    }
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}, record


def print_run(final: dict, record: dict):
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{'per-layer (traced)' if record['trace'] else 'end-to-end'}")
    for key, metric in final["metrics"].items():
        print(f"  {key:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<44} {record['failed_frac']:>14.6g} frac")
    for problem in record["problems"]:
        print(f"  output check: {problem}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(final))


# -- steadiness and references -----------------------------------------------

def steadiness(names: list, seed: int, seconds: float, runs: int):
    """Run each workload ``runs`` times with seeds seed, seed+1, ... and print
    each end-to-end metric's median, quartiles and spread against its bound."""
    bounds = {m["name"]: m for m in bench_spec()["end_to_end"]}
    for name in names:
        values = {key: [] for key in bounds}
        for i in range(runs):
            final, _ = run_once(name, seed + i, seconds, trace=False, smoke=False)
            if not final["correct"] or final["failed"]:
                raise BenchError(f"{name} seed {seed + i}: output check failed")
            for key, metric in final["metrics"].items():
                values[key].append(metric["value"])
        print(f"{name}: {runs} runs, seeds {seed}..{seed + runs - 1}, {seconds:g} s each")
        print(f"  {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>8} {'bound':>6} {'spread/bound':>12}")
        for key, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = bounds[key]["bound"]
            print(f"  {key:<18} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>8.4f} {bound:>6.3f} {spread / bound:>12.3f}")
        print(f"  values {json.dumps(values)}")


def record_references(seeds):
    """Record each workload's outputs for ``seeds`` into references.json."""
    deadline = time.monotonic() + 3600
    refs = {}
    OUT.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            calls = []
            for seed in seeds:
                prefix = str(Path(tmp) / f"{name}-{seed}")
                if workload.kind == "test":
                    workload.write_input(seed, prefix)
                calls.append([workload.argv(seed, prefix), workload.out_file(prefix)])
            result = run_child({"mode": "outputs", "kind": workload.kind,
                                "calls": calls}, deadline)
        refs[name] = {}
        for seed, out in zip(seeds, result["outputs"]):
            o = out["output"]
            problems = [f"exit code {out['rc']}"] if out["rc"] != 0 else []
            problems += check_outputs(name, workload, seed, True, o, [])
            if problems:
                raise BenchError(f"{name} seed {seed}: {'; '.join(problems)}")
            refs[name][str(seed)] = (
                {"sha256": o["sha256"], "fingerprint": o["fingerprint"]}
                if workload.kind == "mc" else
                {k: o[k] for k in ("statistic", "t", "p_normal", "p_chisq", "bootstrap_p")})
        print(f"recorded {name} for {len(seeds)} seeds")
    REFERENCES.write_text(json.dumps({
        "commit": _git_commit(),
        "note": "outputs of one call per workload and seed: MC as the SHA-256 "
                "of the CSV bytes and each row's mean statistic; test as its "
                "statistic and p-values",
        "workloads": refs,
    }, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload sizes, for the benchmark's own tests")
    parser.add_argument("--steadiness", type=int, metavar="K",
                        help="run each workload K times and print the spreads")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    try:
        preflight()
        if args.record_references:
            record_references(list(REFERENCE_SEEDS))
        elif args.steadiness:
            steadiness(args.workload or list(WORKLOADS), args.seed, args.seconds,
                       args.steadiness)
        else:
            if not args.workload or len(args.workload) != 1:
                parser.error("name exactly one --workload")
            final, record = run_once(args.workload[0], args.seed, args.seconds,
                                     bool(args.trace), args.smoke)
            print_run(final, record)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
