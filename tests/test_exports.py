import importlib
import pkgutil

import pytest

import p2amg

MODULES = ["p2amg"] + [
    f"p2amg.{info.name}" for info in pkgutil.iter_modules(p2amg.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []
