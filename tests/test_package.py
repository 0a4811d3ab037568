"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import serieslm


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
