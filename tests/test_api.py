"""The public surface: every exported name resolves, every function the
benchmark tracer wraps still exists under the module it names, and importing
krrlab leaves scipy's heavy subpackages unloaded."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import krrlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(krrlab.__path__))
ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


def test_import_leaves_out_heavy_scipy_subpackages():
    code = ("import sys, krrlab, krrlab.cli\n"
            "krrlab.cli.main(['bounds', '--decay', 'polynomial', '--a', '1'])\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
