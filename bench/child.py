"""Workload process: drives the program through ``serieslm.cli.main``.

The benchmark starts one fresh process per workload run with this file and a
JSON spec on standard input.  Modes:

``setup``    import the program and exit (timed from outside as set-up).
``measure``  one untimed warm-up call, then back-to-back timed calls until
             ``seconds`` have passed; reports wall and CPU time per call, peak
             RSS and each call's output.
``trace``    alternates untraced and traced calls (see ``tracer.py``) for
             ``seconds``; reports the per-layer summary and the overhead.
``outputs``  one call per ``[argv, out_file]`` pair in ``calls``; reports
             their outputs (used to record the reference outputs).

The first call of every mode also keeps a fingerprint of an MC call's
results that its CSV, which holds only rejection rates over a few
replications, is too coarse to show: each row's mean statistic, taken from
the report the program's own ``run_mc`` returns to the CLI.

The program's own printing goes to the null device; the result is one JSON
line on standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


def _import_program(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import serieslm.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"serieslm imported from {cli.__file__}, not from {src}")
    return cli


def _provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def _read_output(kind: str, out_file: str, full: bool) -> dict:
    """What the output check needs from one call's output file."""
    path = Path(out_file)
    if not path.exists():
        return {"missing": True}
    if kind == "mc":
        data = path.read_bytes()
        out = {"sha256": hashlib.sha256(data).hexdigest()}
        if full:
            out["csv"] = data.decode("utf-8")
        return out
    doc = json.loads(path.read_text(encoding="utf-8"))
    boot = doc.get("bootstrap") or {}
    return {
        "statistic": doc["statistic"],
        "t": doc["t"],
        "p_normal": doc["p_normal"],
        "p_chisq": doc["p_chisq"],
        "bootstrap_p": boot.get("p_value"),
        "bootstrap_failed": boot.get("n_failed"),
        "m_n": doc["m_n"],
        "r_n": doc["r_n"],
        "dropped_columns": doc["dropped_columns"],
    }


def _cpu_seconds() -> float:
    """User plus system CPU of this process and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Program:
    """Calls ``cli.main`` with the program's printing sent to the null device."""

    def __init__(self, cli, kind: str, out_file: str):
        self.cli = cli
        self.kind = kind
        self.out_file = out_file

    def call(self, argv, run=None):
        """One call; returns (exit code, wall seconds, CPU seconds)."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_file)  # so a stale file never passes as output
        run = run or (lambda: self.cli.main(argv))
        with open(os.devnull, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stdout(sink):
            c0, t0 = _cpu_seconds(), time.perf_counter()
            rc = run()
            t1, c1 = time.perf_counter(), _cpu_seconds()
        return rc, t1 - t0, c1 - c0

    def output(self, full=False):
        return _read_output(self.kind, self.out_file, full)


@contextlib.contextmanager
def _fingerprint(cli):
    """Collect each row's mean statistic from the report ``cli.run_mc`` returns."""
    found = {}
    run_mc = cli.run_mc

    def capture_report(config):
        report = run_mc(config)
        found["mean_statistic"] = [row.mean_statistic for row in report.rows]
        return report

    cli.run_mc = capture_report
    try:
        yield found
    finally:
        cli.run_mc = run_mc


def _first_call(program: Program, argv) -> dict:
    """An untimed call whose full output is kept for the output check."""
    with _fingerprint(program.cli) as found:
        rc, _, _ = program.call(argv)
    output = program.output(full=True)
    if program.kind == "mc" and not output.get("missing"):
        output["fingerprint"] = found
    return {"rc": rc, "output": output}


def _measure(program: Program, spec: dict) -> dict:
    argv = spec["argv"]
    warmup = _first_call(program, argv)
    calls = []
    start = time.perf_counter()
    while time.perf_counter() - start < spec["seconds"] or len(calls) < spec["min_calls"]:
        rc, wall, cpu = program.call(argv)
        calls.append({"rc": rc, "wall_s": wall, "cpu_s": cpu,
                      "output": program.output()})
    return {
        "warmup": warmup,
        "calls": calls,
        "maxrss_kb": {
            "self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        },
    }


def _trace(program: Program, spec: dict) -> dict:
    from tracer import Tracer

    argv = spec["argv"]
    tracer = Tracer()
    warmup = _first_call(program, argv)  # as in the measured run
    untraced, traced, outputs = [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < spec["seconds"] or len(traced) < spec["min_calls"]:
        rc, wall, _ = program.call(argv)
        untraced.append(wall)
        outputs.append({"rc": rc, "output": program.output()})
        rc, wall, _ = program.call(argv, lambda: tracer.root(program.cli.main, argv))
        traced.append(wall)
        outputs.append({"rc": rc, "output": program.output()})

    tracer.write(spec["spans_path"])
    layers = tracer.summary(len(traced))
    layers["trace.wall_s"] = statistics.median(traced)
    layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {"layers": layers, "warmup": warmup, "calls": outputs,
            "n_traced": len(traced)}


def main() -> int:
    spec = json.load(sys.stdin)
    cli = _import_program(Path(spec["root"]))
    if spec["mode"] == "setup":
        return 0
    result = {"provenance": _provenance()}
    if spec["mode"] == "measure":
        result.update(_measure(Program(cli, spec["kind"], spec["out_file"]), spec))
    elif spec["mode"] == "trace":
        result.update(_trace(Program(cli, spec["kind"], spec["out_file"]), spec))
    else:  # outputs
        result["outputs"] = [_first_call(Program(cli, spec["kind"], out_file), argv)
                             for argv, out_file in spec["calls"]]
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
