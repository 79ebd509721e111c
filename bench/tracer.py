"""In-memory span tracer that wraps krrlab's public functions from outside.

`Tracer.install` replaces every module-attribute reference to a traced
function (for example `krrlab.sweep.sample_dataset`, the name `run_sweep`
calls through) with a wrapper, and the LAPACK-backed numpy/scipy entry
points the krrlab modules call (`scipy.linalg.cho_factor`, ...) likewise;
`Tracer.uninstall` puts the originals back.  A span is
`[name, start, end, parent, cell]`; a layer's self time is its span's
duration minus the time its child spans cover.

A cell is one (n, trial) iteration of `run_sweep`: it opens when a child of
`run_sweep` samples the training set (`synth.sample_dataset`, or
`linearize.estimate_trace_ratio` in real mode) and closes when its last
call, `risk.bound_v2`, returns.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from collections import defaultdict
from time import perf_counter

# Traced functions as <defining module>.<name>; the module is the layer.
KRRLAB_FUNCTIONS = (
    "sweep.run_sweep", "sweep.eig_compare", "sweep.write_csv",
    "synth.sample_dataset", "synth.sample_features",
    "risk.excess_risk_mc", "risk.gram_and_cross", "risk.bound_v1", "risk.bound_v2",
    "spectral.quantity_N",
    "kernels.solve_regularized", "kernels.kernel_matrix", "kernels.cross_kernel_matrix",
    "linearize.linearize_params", "linearize.estimate_trace_ratio",
    "linearize.build_lin_kernel", "linearize.interlacing_check",
    "libsvm.parse_libsvm", "svgplot.emit_plot",
)
# The numpy/scipy boundary: traced name -> (module, attribute).
LAPACK_FUNCTIONS = {
    "lapack.cho_factor": ("scipy.linalg", "cho_factor"),
    "lapack.cho_solve": ("scipy.linalg", "cho_solve"),
    "lapack.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "lapack.qr": ("numpy.linalg", "qr"),
}
TRACED = KRRLAB_FUNCTIONS + tuple(LAPACK_FUNCTIONS)

CELL_PARENT = "sweep.run_sweep"
CELL_OPENERS = ("synth.sample_dataset", "linearize.estimate_trace_ratio")
CELL_CLOSER = "risk.bound_v2"


def _cols(b) -> int:
    return b.shape[1] if getattr(b, "ndim", 1) == 2 else 1


# Textbook flop counts for dense float64 LAPACK routines, in GFLOP.
def _gflop(name: str, args) -> float:
    if name == "lapack.cho_factor":
        n = args[0].shape[0]
        return n ** 3 / 3e9
    if name == "lapack.cho_solve":
        n = args[0][0].shape[0]
        return 2.0 * n * n * _cols(args[1]) / 1e9
    if name == "lapack.eigvalsh":          # tridiagonal reduction dominates
        n = args[0].shape[0]
        return 4.0 * n ** 3 / 3e9
    if name == "lapack.qr":                # Householder QR plus forming thin Q
        m, n = args[0].shape
        m, n = max(m, n), min(m, n)
        return (4.0 * m * n * n - 4.0 * n ** 3 / 3.0) / 1e9
    return 0.0


def _draw_key(args):
    # identifies a dataset draw exactly: covariance, n, target and the
    # generator's position in its stream
    cov, n, target, rng = args[:4]
    st = rng.bit_generator.state["state"]
    return (cov.d, cov.kind, cov.a, int(n), target.kind, target.noise_sigma,
            st["state"], st["inc"])


def krrlab_modules(krrlab) -> list:
    """The package and every module that defines a traced function."""
    return [krrlab] + [importlib.import_module(f"krrlab.{m}")
                       for m in sorted({f.split(".")[0] for f in KRRLAB_FUNCTIONS})]


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.draws = set()
        self._stack = []
        self._cell = None
        self._ncells = 0
        self._patches = []

    def install(self, krrlab) -> None:
        targets = {}                               # id(original) -> wrapper
        for name in KRRLAB_FUNCTIONS:
            mod, attr = name.split(".")
            fn = getattr(importlib.import_module(f"krrlab.{mod}"), attr)
            targets[id(fn)] = self._wrap(name, fn)
        for name, (mod, attr) in LAPACK_FUNCTIONS.items():
            module = importlib.import_module(mod)
            fn = getattr(module, attr)
            wrapper = self._wrap(name, fn)
            targets[id(fn)] = wrapper
            self._patch(module, attr, wrapper)
        for module in krrlab_modules(krrlab):
            for attr, val in list(vars(module).items()):
                if id(val) in targets:
                    self._patch(module, attr, targets[id(val)])

    def _patch(self, module, attr, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            in_sweep = parent is not None and spans[parent][0] == CELL_PARENT
            if in_sweep and name in CELL_OPENERS:
                self._ncells += 1
                self._cell = self._ncells
            self._count(name, args)
            rec = [name, 0.0, 0.0, parent, self._cell]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if in_sweep and name == CELL_CLOSER:
                    self._cell = None

        return wrapper

    def _count(self, name, args) -> None:
        c = self.counts
        if name.startswith("lapack."):
            c[f"{name}.gflop"] += _gflop(name, args)
        elif name == "kernels.solve_regularized":
            c["kernels.solve_regularized.rhs_cols"] += _cols(args[2])
        elif name == "synth.sample_dataset":
            self.draws.add(_draw_key(args))
        elif name == "libsvm.parse_libsvm":
            c["libsvm.bytes_parsed"] += os.path.getsize(args[0])


    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the recorded spans over a pass of `wall_s`."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for name in TRACED:
            out[f"{name}.s"] = out[f"{name}.self_s"] = out[f"{name}.calls"] = 0
        cell_lo, cell_hi = {}, {}
        decomp_in_cells = 0
        for i, (name, start, end, parent, cell) in enumerate(self.spans):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child[i]
            out[f"{name}.calls"] += 1
            if cell is not None:
                cell_lo[cell] = min(cell_lo.get(cell, start), start)
                cell_hi[cell] = max(cell_hi.get(cell, end), end)
                decomp_in_cells += name in ("lapack.cho_factor", "lapack.eigvalsh")
        for name in LAPACK_FUNCTIONS:
            out[f"{name}.gflop"] = self.counts[f"{name}.gflop"]
        cells = len(cell_lo)
        sampled = out["synth.sample_dataset.calls"]
        attributed = sum(out[f"{name}.self_s"] for name in TRACED)
        out.update({
            "kernels.solve_regularized.rhs_cols": int(self.counts["kernels.solve_regularized.rhs_cols"]),
            "kernels.jitter_retries": (out["lapack.cho_factor.calls"]
                                       - out["kernels.solve_regularized.calls"]),
            "libsvm.bytes_parsed": int(self.counts["libsvm.bytes_parsed"]),
            "synth.unique_draw_ratio": len(self.draws) / sampled if sampled else 0.0,
            "sweep.cells": cells,
            "decomp_per_cell": decomp_in_cells / cells if cells else 0.0,
            "cell.s.p50": (statistics.median(cell_hi[c] - cell_lo[c] for c in cell_lo)
                           if cells else 0.0),
            "trace.wall_s": wall_s,
            "trace.attributed_frac": attributed / wall_s,
        })
        return out

    def span_records(self) -> list:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[name, start - t0, end - t0, parent, cell]
                for name, start, end, parent, cell in self.spans]
