"""Export guard: every ``__all__`` name resolves, and the package root
re-exports only names its modules list in ``__all__``."""

import importlib
import pkgutil
import sys

import pytest

import spr

MODULES = sorted(info.name for info in pkgutil.iter_modules(spr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spr.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"spr.{name}.__all__ lists missing {attr}"


def test_package_imports_are_exported():
    # The root resolves its names lazily (PEP 562): each must come out of
    # getattr as the very object its defining module lists in __all__.
    assert spr.__all__
    for name in spr.__all__:
        value = getattr(spr, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("spr."), name
        assert name in module.__all__, f"{module.__name__}.{name} is not in __all__"
        assert getattr(module, name) is value
    assert set(spr.__all__) <= set(dir(spr))
    assert not hasattr(spr, "no_such_name")

    namespace = {}
    exec("from spr import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(spr.__all__)
