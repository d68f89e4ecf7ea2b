"""The package API is stated once: each module's `__all__`, re-exported by
`tlmonoid/__init__.py`."""

import ast
import inspect
import pathlib
import types

import pytest

import tlmonoid
from tlmonoid import (algebra, errors, etranslate, relations, rewrite,
                      tangles, tuples, verify, words)

MODULES = (errors, tuples, tangles, words, relations, rewrite, etranslate,
           algebra, verify)
ERROR_CLASSES = sorted(
    name for name, obj in inspect.getmembers(errors, inspect.isclass)
    if obj.__module__ == errors.__name__)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_declared_name_is_the_packages(module):
    missing = [name for name in module.__all__
               if getattr(tlmonoid, name, None) is not getattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_every_error_class_is_the_packages(name):
    assert getattr(tlmonoid, name, None) is getattr(errors, name)


def test_each_name_is_declared_by_one_module():
    declared = [name for module in MODULES for name in module.__all__]
    assert len(declared) == len(set(declared))


def test_the_package_exports_nothing_else():
    declared = {name for module in MODULES for name in module.__all__}
    declared |= set(ERROR_CLASSES)
    extra = [name for name, obj in vars(tlmonoid).items()
             if not name.startswith("_") and name not in declared
             and not (isinstance(obj, types.ModuleType)
                      and obj.__name__ == f"tlmonoid.{name}")]
    assert extra == []
    assert tlmonoid.__version__


SOURCES = sorted(pathlib.Path(tlmonoid.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_inside_a_function(path):
    # a function-level import hides a cycle in the module graph; each
    # module's imports are all at its top, so the graph reads from them
    tree = ast.parse(path.read_text(encoding="utf-8"))
    late = [f"{path.name}:{node.lineno}"
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert late == []
