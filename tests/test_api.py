"""The public surface: every exported name resolves, every function the
benchmark tracer wraps still exists under the module it names, no krrlab
module imports a private name from another, importing
krrlab and running its numpy-only paths (linearized sweeps in synth and
real mode, and exact affine sweeps; bounds, synth, plot) loads no scipy
module at all, and an exact-kernel fit loads
`scipy.linalg` when it builds its first kernel matrix (`kernels.scipy_gram`)."""

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


def _private_imports(path: Path) -> list:
    """`from <krrlab module> import _name` statements in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.ImportFrom)
                and (node.level > 0 or (node.module or "").startswith("krrlab"))):
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_modules_import_no_private_names_from_each_other():
    sources = sorted((ROOT / "src" / "krrlab").glob("*.py"))
    assert sources
    assert [hit for path in sources for hit in _private_imports(path)] == []


def test_import_leaves_out_heavy_scipy_subpackages():
    code = ("import sys, krrlab, krrlab.cli\n"
            "krrlab.cli.main(['bounds', '--decay', 'polynomial', '--a', '1'])\n"
            "print(sorted(m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _fresh_interpreter(code: str, cwd) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_numpy_only_paths_load_no_scipy(tmp_path):
    code = ("import sys, krrlab, krrlab.cli\n"
            "cfg = krrlab.ExperimentConfig(d=10, n_grid='5:20:5', trials=1, test_points=100,\n"
            "                              noise_draws=2, output_path='s.csv')\n"
            "points, _ = krrlab.run_sweep(cfg)\n"
            "assert len(points) == 4\n"
            "for kw in (dict(), dict(mode='real', input_path=%r, d=24)):\n"
            "    cfg = krrlab.ExperimentConfig(n_grid=[20, 40], trials=1, test_points=100,\n"
            "                                  noise_draws=2, **kw)\n"
            "    assert len(krrlab.run_sweep(cfg)[0]) == 2\n"
            "    cfg = krrlab.ExperimentConfig(kernel='polynomial', degree=1, use_linearized=False,\n"
            "                                  n_grid=[20, 40], trials=1, test_points=100,\n"
            "                                  noise_draws=2, **kw)\n"
            "    assert len(krrlab.run_sweep(cfg)[0]) == 2\n"
            "main = krrlab.cli.main\n"
            "assert main(['bounds', '--decay', 'polynomial', '--a', '1']) == 0\n"
            "assert main(['synth', '--d', '10', '--n', '20', '--out', 'x.libsvm']) == 0\n"
            "assert main(['plot', '--csv', 's.csv', '--columns', 'var_emp',\n"
            "             '--out', 's.svg']) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
            % str(ROOT / "tests" / "data" / "sample200.libsvm"))
    assert _fresh_interpreter(code, tmp_path) == "[]"


def test_exact_kernel_fit_loads_scipy_linalg_on_demand(tmp_path):
    code = ("import sys, numpy as np, krrlab\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "rng = np.random.default_rng(0)\n"
            "data = krrlab.Dataset(rng.standard_normal((30, 5)), rng.standard_normal(30))\n"
            "model = krrlab.krr_fit(krrlab.KernelSpec.gaussian(), data, 1e-3)\n"
            "assert np.all(np.isfinite(model.dual_coef))\n"
            "print('scipy.linalg' in sys.modules)")
    assert _fresh_interpreter(code, tmp_path) == "True"
