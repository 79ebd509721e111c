"""The public surface: every exported name resolves, and every function the
benchmark tracer wraps still exists under the module it names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import krrlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(krrlab.__path__))
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"krrlab.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def _traced_functions() -> tuple:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "KRRLAB_FUNCTIONS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no KRRLAB_FUNCTIONS in {TRACER}")


def test_traced_functions_resolve():
    names = _traced_functions()
    assert names
    for dotted in names:
        module, attr = dotted.split(".")
        assert callable(getattr(importlib.import_module(f"krrlab.{module}"), attr, None)), dotted
