"""Outside-in span tracer for the benchmark's per-layer run.

The program is not instrumented.  Instead, while a call into the program is
traced, each function in ``TRACED`` is replaced by a timing wrapper under
every ``serieslm.*`` module attribute that refers to it, so the call is timed
whichever module looks it up (``serieslm.mc.simulation_design`` and
``serieslm.tuning.simulation_design`` are one function and one metric).

Spans live in memory as ``(id, parent, name, start, end)`` tuples and are
written out once, when the run ends.  A span's self time is its duration minus
the durations of its child spans; the traced run is single-threaded
(``--threads 1``), so child spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time

PACKAGE = "serieslm"

# (layer, function): the module that defines the function, and its name there.
TRACED = (
    ("mc", "gen_sample"),
    ("distributions", "normal_quantile"),
    ("design", "simulation_design"),
    ("design", "build_partially_linear"),
    ("design", "screen_collinear"),
    ("basis", "build_basis"),
    ("basis", "tensor_interactions"),
    ("regress", "ols_fit"),
    ("regress", "residualize_block"),
    ("regress", "annihilate"),
    ("lmtest", "lm_statistic"),
    ("lmtest", "variant_statistic"),
    ("lmtest", "run_test"),
    ("bootstrap", "wild_bootstrap"),
    ("bootstrap", "draw_multipliers"),
    ("tuning", "data_driven_decisions"),
    ("distributions", "chisq_cdf"),
    ("distributions", "chisq_quantile"),
    ("cli", "load_csv"),
)
NAMES = tuple(f"{layer}.{fn}" for layer, fn in TRACED)

COUNTS = (
    "bootstrap.draws",
    "bootstrap.draws_failed",
    "regress.ols_fit.failed",
    "lmtest.failed",
)

# The root span of one workload call: the program's entry point itself.
ROOT = "cli.main"


class Tracer:
    """Collects spans and counts for the calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self._open = []  # (span id, layer) of the spans not yet ended
        self._next_id = 0
        self._patches = []

    def _span(self, name, fn, args, kwargs):
        layer = name.split(".", 1)[0]
        sid = self._next_id
        self._next_id += 1
        parent, parent_layer = self._open[-1] if self._open else (-1, None)
        self._open.append((sid, layer))
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            if name == "regress.ols_fit":
                self.counts["regress.ols_fit.failed"] += 1
            if layer == "lmtest" and parent_layer != "lmtest":
                self.counts["lmtest.failed"] += 1
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((sid, parent, name, start, end))
        if name == "bootstrap.wild_bootstrap":
            self.counts["bootstrap.draws"] += out.n_draws
            self.counts["bootstrap.draws_failed"] += out.n_failed
        return out

    def root(self, fn, *args):
        """Run ``fn(*args)`` as one traced workload call, under a root span."""
        self._install()
        try:
            return self._span(ROOT, fn, args, {})
        finally:
            self._uninstall()

    def _install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for layer, fn_name in TRACED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{layer}"), fn_name)
            wrapper = self._wrapper(f"{layer}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def _wrapper(self, name, fn):
        span = self._span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return span(name, fn, args, kwargs)

        return traced

    def _uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path):
        """Write every span as one JSON line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")

    def summary(self, n_calls: int) -> dict:
        """Per-function calls, self seconds and median microseconds per call.

        ``calls`` and ``self_s`` are per workload call (totals divided by
        ``n_calls``); ``us_p50`` is the median inclusive duration of one call
        of the function.  A function that never ran reports zeros.
        """
        child_time = {}
        for _, parent, _, start, end in self.spans:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        durations = {name: [] for name in NAMES + (ROOT,)}
        self_s = dict.fromkeys(NAMES + (ROOT,), 0.0)
        for sid, _, name, start, end in self.spans:
            durations[name].append(end - start)
            self_s[name] += (end - start) - child_time.get(sid, 0.0)

        out = {}
        for name in NAMES:
            d = durations[name]
            out[f"{name}.calls"] = len(d) / n_calls
            out[f"{name}.self_s"] = self_s[name] / n_calls
            out[f"{name}.us_p50"] = statistics.median(d) * 1e6 if d else 0.0
        for name in COUNTS:
            out[name] = self.counts[name] / n_calls
        draws = self.counts["bootstrap.draws"]
        out["bootstrap.valid_frac"] = (
            (draws - self.counts["bootstrap.draws_failed"]) / draws if draws else 0.0)
        out[f"{ROOT}.self_s"] = self_s[ROOT] / n_calls
        return out
