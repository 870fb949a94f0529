import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import keyhop

MODULES = [info.name for info in pkgutil.iter_modules(keyhop.__path__, "keyhop.")]


@pytest.mark.parametrize("name", ["keyhop", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []


def test_package_import_leaves_numpy_unloaded():
    # numpy is only needed by the truth-table oracle and asyncio only by a
    # wire run; each loads on first use
    code = "import sys, keyhop, keyhop.cli; print('numpy' in sys.modules, 'asyncio' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(keyhop.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False False"
