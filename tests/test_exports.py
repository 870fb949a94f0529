import ast
import importlib
import inspect
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
    # wire run; each loads on first use. The CLI imports each command's
    # modules in its handler, so importing it loads no wire code (nor hmac)
    # and no analysis or rate model
    late = ["numpy", "asyncio", "keyhop.wire", "hmac", "keyhop.analysis", "keyhop.ratemodel"]
    code = f"import sys, keyhop, keyhop.cli; print([m for m in {late!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(keyhop.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"


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


PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _resolve(node, bound):
    """The object a Name or an attribute chain on one names, or None when its
    root is bound to no keyhop module or name; AttributeError if it is gone."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if not isinstance(node, ast.Attribute):
        return None
    root = node
    while isinstance(root, ast.Attribute):
        root = root.value
    if not (isinstance(root, ast.Name) and inspect.ismodule(bound.get(root.id))):
        return None  # a keyhop function's or class's attributes may be instance names
    return getattr(_resolve(node.value, bound), node.attr)


def test_every_keyhop_name_the_benchmark_uses_resolves():
    # the benchmark runs after the suite, on its own; a keyhop name or keyword
    # it uses that a change removed would show up only as a failed run there
    missing, used = [], 0
    for filename in sorted(os.listdir(PERFBENCH)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PERFBENCH, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        bound = {}  # local name -> the keyhop module or object it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "keyhop":
                        module = importlib.import_module(alias.name)
                        bound[alias.asname or "keyhop"] = module if alias.asname else keyhop
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "keyhop":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    try:
                        obj = importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        obj = getattr(module, alias.name, None)
                    if obj is None:
                        missing.append(f"{filename}:{node.lineno}: {node.module}.{alias.name}")
                    bound[alias.asname or alias.name] = obj
        for node in ast.walk(tree):
            try:
                _resolve(node, bound)
                if isinstance(node, ast.Call) and callable(func := _resolve(node.func, bound)):
                    params = inspect.signature(func).parameters
                    missing += [
                        f"{filename}:{node.lineno}: {ast.unparse(node.func)}({kw.arg}=)"
                        for kw in node.keywords
                        if kw.arg is not None and kw.arg not in params
                    ]
            except AttributeError:
                missing.append(f"{filename}:{node.lineno}: {ast.unparse(node)}")
        used += len(bound)
    assert used and missing == []


def _loaded_names(folder):
    """(file, line, name) for each name the folder's modules load, read as an
    attribute or import."""
    for filename in sorted(os.listdir(folder)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(folder, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield filename, node.lineno, node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                yield filename, node.lineno, node.attr
            elif isinstance(node, ast.alias):
                yield filename, node.lineno, node.name


def _public_api():
    """(name, file, first line, last line) of each module __all__ name and of
    each public method and property a keyhop class defines itself, rather
    than overriding one of a base class. Dunder names are left out."""
    for name in MODULES:
        module = importlib.import_module(name)
        filename = os.path.basename(module.__file__)
        with open(module.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        defined = {}  # top-level name -> its defining statement
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined[stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                    if isinstance(target, ast.Name):
                        defined[target.id] = stmt
        for export in module.__all__:
            if not export.startswith("__"):
                stmt = defined[export]
                yield export, filename, stmt.lineno, stmt.end_lineno
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            if cls.name.startswith("_"):
                continue
            bases = getattr(module, cls.name).__mro__[1:]
            for stmt in cls.body:
                if (
                    isinstance(stmt, ast.FunctionDef)
                    and not stmt.name.startswith("_")
                    and not any(hasattr(base, stmt.name) for base in bases)
                ):
                    yield f"{cls.name}.{stmt.name}", filename, stmt.lineno, stmt.end_lineno


def test_every_public_name_has_a_caller_outside_the_tests():
    # API that only tests reach is dead weight: each exported name, method and
    # property is used in src/keyhop outside its own definition, or by the
    # benchmark. Names are matched by spelling alone, so a method shares its
    # callers with every other attribute of that name
    src = os.path.dirname(keyhop.__file__)
    used = list(_loaded_names(src))
    bench = {name for _, _, name in _loaded_names(PERFBENCH)}
    unused = [
        qualified
        for qualified, filename, first, last in _public_api()
        if (name := qualified.rsplit(".", 1)[-1]) not in bench
        and not any(
            ref == name and (where != filename or not first <= line <= last)
            for where, line, ref in used
        )
    ]
    assert unused == []
