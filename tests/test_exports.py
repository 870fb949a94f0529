import importlib
import pkgutil

import pytest

import keyhop

MODULES = [info.name for info in pkgutil.iter_modules(keyhop.__path__, "keyhop.")]


@pytest.mark.parametrize("name", ["keyhop", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
