import ast
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


def test_no_module_imports_another_modules_private_names():
    # a name with a leading underscore is its module's own business
    src = os.path.dirname(keyhop.__file__)
    private = []
    for filename in sorted(os.listdir(src)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(src, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            path = (node.module or "").split(".")
            if node.level or path[0] == "keyhop":
                names = [*path, *(alias.name for alias in node.names)]
                private += [f"{filename}: {name}" for name in names if name.startswith("_")]
    assert private == []


def test_every_public_name_has_one_home():
    # a name in two modules' __all__ lists, the package root included, is
    # an alias: callers import each name from the module that defines it
    homes = {}
    for name in ["keyhop", *MODULES]:
        for export in importlib.import_module(name).__all__:
            homes.setdefault(export, []).append(name)
    assert {export: where for export, where in homes.items() if len(where) > 1} == {}
