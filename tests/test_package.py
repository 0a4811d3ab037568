"""Package surface: every exported, traced or documented name resolves."""

import importlib
import pkgutil
import re
from pathlib import Path

import serieslm

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    # a name deleted from a module but left in an __all__ fails here
    modules = [serieslm] + [importlib.import_module(f"serieslm.{info.name}")
                            for info in pkgutil.iter_modules(serieslm.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing {missing}"
    namespace = {}
    exec("from serieslm import *", namespace)
    assert set(serieslm.__all__) <= set(namespace)


def test_every_traced_name_resolves():
    # the benchmark's tracer looks each (module, function) up by name, so a
    # renamed or deleted function would silently drop out of its per-layer run
    tracer = {}
    exec(compile((ROOT / "bench" / "tracer.py").read_text(encoding="utf-8"),
                 "bench/tracer.py", "exec"), tracer)
    missing = [f"{layer}.{fn}" for layer, fn in tracer["TRACED"]
               if not callable(getattr(importlib.import_module(f"serieslm.{layer}"), fn, None))]
    assert not missing, f"bench/tracer.py traces names serieslm lacks: {missing}"


def test_readme_library_quick_start_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2
