"""Package surface: every exported, traced or documented name resolves."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

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


# scipy.linalg routines whose input validation costs more than the
# factorization at the sizes of one replication; the package calls LAPACK
# through ``get_lapack_funcs`` handles instead
WRAPPERS = {"qr", "cho_solve", "solve_triangular", "cholesky", "solve", "lstsq"}


def scipy_linalg_wrappers(tree: ast.AST) -> list:
    """(line, name) of each use of a ``WRAPPERS`` routine of scipy.linalg in ``tree``."""
    modules = {"scipy.linalg"}  # dotted names bound to the scipy.linalg module
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.name == "scipy.linalg" and alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "scipy":
                modules.update(alias.asname or alias.name for alias in node.names
                               if alias.name == "linalg")
            elif node.module.startswith("scipy.linalg"):
                found += [(node.lineno, alias.name) for alias in node.names
                          if alias.name in WRAPPERS]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in WRAPPERS:
            if ast.unparse(node.value) in modules:
                found.append((node.lineno, node.attr))
    return found


def test_no_scipy_linalg_wrapper_on_the_hot_path():
    uses = {path.name: scipy_linalg_wrappers(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted((ROOT / "src" / "serieslm").glob("*.py"))}
    assert not {name: found for name, found in uses.items() if found}


@pytest.mark.parametrize("source", [
    "import scipy.linalg\nscipy.linalg.qr(a)",
    "import scipy.linalg as sl\nsl.cho_solve(c, b)",
    "from scipy import linalg\nlinalg.solve_triangular(r, b)",
    "from scipy.linalg import lstsq",
    "from scipy.linalg._decomp_cholesky import cholesky",
])
def test_the_guard_sees_each_spelling(source):
    assert scipy_linalg_wrappers(ast.parse(source))


def test_the_guard_passes_lapack_handles():
    source = ("import scipy.linalg\n"
              "_GEQP3, = scipy.linalg.get_lapack_funcs(('geqp3',), dtype=float)")
    assert not scipy_linalg_wrappers(ast.parse(source))
