import importlib
import pkgutil

import pytest

import zvmcmc

MODULES = sorted(info.name for info in pkgutil.iter_modules(zvmcmc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"zvmcmc.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_reexports_only_names_its_modules_export():
    reexported = {n: obj for n, obj in vars(zvmcmc).items()
                  if not n.startswith("_") and hasattr(obj, "__module__")}
    undeclared = [n for n, obj in reexported.items()
                  if n not in getattr(importlib.import_module(obj.__module__), "__all__", ())]
    assert reexported and undeclared == []
