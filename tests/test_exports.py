"""Export guard: every ``__all__`` name resolves, and the package root
re-exports only names its modules list in ``__all__``."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import spr

MODULES = sorted(info.name for info in pkgutil.iter_modules(spr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"spr.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"spr.{name}.__all__ lists missing {attr}"


def test_package_imports_are_exported():
    tree = ast.parse(Path(spr.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module(f"spr.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"spr.{node.module}.{alias.name} is not in __all__"
