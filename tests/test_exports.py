import importlib
import pkgutil

import pytest

import serrin

MODULES = sorted(info.name for info in pkgutil.iter_modules(serrin.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"serrin.{name}")
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert missing == []


def test_package_exports_resolve_and_star_import_works():
    assert [entry for entry in serrin.__all__ if not hasattr(serrin, entry)] == []
    namespace = {}
    exec("from serrin import *", namespace)
    assert set(serrin.__all__) <= set(namespace)
