"""Workload definitions for the krrlab benchmark.

Each workload is a list of sweep configs plus, for `real_exact`, an
eigenvalue comparison and an SVG plot.  Inputs are a pure function of the
workload seed.  `micro=True` gives a seconds-long variant that takes the
same code path; the harness smoke test uses it.

Run as a script (`python3 bench/workloads.py <workload> <seed> <workdir>
<micro 0|1>`), this module is the set-up probe: it imports krrlab, builds
the configs and prints `ready`.  The runner times that from process start.
"""

from __future__ import annotations

import importlib
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOADS = ("lin_protocol", "lin_wide", "real_exact")
PLOT_COLUMNS = ["bias_emp", "var_emp", "risk_emp", "v1_bound"]


def import_krrlab():
    """Import krrlab from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "krrlab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no krrlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    krrlab = importlib.import_module("krrlab")
    if Path(krrlab.__file__).resolve().parent != SRC / "krrlab":
        raise SystemExit(f"bench: krrlab imported from {krrlab.__file__}, not {SRC}")
    return krrlab


@dataclass
class RealInput:
    """The arrays the generated libsvm file was written from."""

    features: object
    responses: object


@dataclass
class Workload:
    name: str
    sweeps: list
    eig_n: Optional[int] = None          # eig_compare on sweeps[0] at this n
    eig_path: Optional[str] = None
    plot_path: Optional[str] = None      # emit_plot of sweeps[0]'s CSV
    real: Optional[RealInput] = field(default=None, repr=False)


def _protocol_configs(krrlab, seed: int, micro: bool) -> list:
    # the seven acceptance-suite sweeps, one trial each; cells seed as
    # [seed, n, t], so all seven redraw identical datasets
    sizes = (dict(d=40, n_grid="20:60:20", test_points=100, noise_draws=5) if micro
             else dict(d=500, n_grid="100:1000:100", test_points=2000, noise_draws=50))
    common = dict(mode="synth", degree=3, use_linearized=True, gamma_override=0.0,
                  decay="harmonic", cbar=0.01, sigma=1.0, trials=1, seed=seed, **sizes)
    cfgs = [krrlab.ExperimentConfig(kernel=k, theta=th, **common)
            for k in ("gaussian", "polynomial") for th in (1 / 3, 2 / 3)]
    cfgs += [krrlab.ExperimentConfig(kernel="polynomial", theta=0.0, fixed_lambda=lam,
                                     **common)
             for lam in (1e-5, 1e-3, 1e-1)]
    return cfgs


def _wide_configs(krrlab, seed: int, micro: bool) -> list:
    sizes = (dict(d=20, n_grid="40:120:40", test_points=100, noise_draws=5) if micro
             else dict(d=100, n_grid="200:2000:200", test_points=2000, noise_draws=50))
    return [krrlab.ExperimentConfig(
        mode="synth", kernel="gaussian", use_linearized=True, gamma_override=0.0,
        decay="harmonic", cbar=0.01, theta=2 / 3, sigma=1.0, trials=1, seed=seed,
        **sizes)]


def _real_sizes(micro: bool) -> dict:
    if micro:
        return dict(rows=300, d=20, n_grid="40:120:40", test_points=150,
                    noise_draws=5, eig_n=120)
    return dict(rows=2600, d=100, n_grid="200:2000:200", test_points=600,
                noise_draws=50, eig_n=2000)


def real_input_path(workdir: str, seed: int, micro: bool) -> str:
    return os.path.join(workdir, f"real_seed{seed}{'_micro' if micro else ''}.libsvm")


def write_real_input(krrlab, seed: int, workdir: str, micro: bool) -> RealInput:
    """Write the real_exact libsvm file from the seed (polynomial decay a=1)."""
    s = _real_sizes(micro)
    cov = krrlab.make_covariance(s["d"], "polynomial", 1.0)
    data, _ = krrlab.sample_dataset(cov, s["rows"], krrlab.TargetSpec(noise_sigma=1.0),
                                    np.random.default_rng([seed, 13]))
    path = real_input_path(workdir, seed, micro)
    krrlab.export_libsvm(data, path)
    return RealInput(data.features, data.responses)


def build(krrlab, name: str, seed: int, workdir: str, micro: bool = False) -> Workload:
    """Build the workload's configs; this is what set-up time measures."""
    if name == "lin_protocol":
        return Workload(name, _protocol_configs(krrlab, seed, micro))
    if name == "lin_wide":
        return Workload(name, _wide_configs(krrlab, seed, micro))
    if name == "real_exact":
        s = _real_sizes(micro)
        tag = f"seed{seed}{'_micro' if micro else ''}"
        cfg = krrlab.ExperimentConfig(
            mode="real", kernel="gaussian", use_linearized=False, standardize=True,
            d=s["d"], n_grid=s["n_grid"], test_points=s["test_points"],
            noise_draws=s["noise_draws"], sigma=1.0, trials=1, seed=seed,
            input_path=real_input_path(workdir, seed, micro),
            output_path=os.path.join(workdir, f"real_{tag}.csv"))
        return Workload(name, [cfg], eig_n=s["eig_n"],
                        eig_path=os.path.join(workdir, f"eig_{tag}.csv"),
                        plot_path=os.path.join(workdir, f"real_{tag}.svg"))
    raise SystemExit(f"bench: unknown workload {name!r} (choose from {WORKLOADS})")


@dataclass
class PassOutput:
    """What one pass of the timed section produced.

    A stage that raised holds its exception; a stage the workload lacks is `None`.
    """

    sweeps: list                 # per sweep: (points, csv_text) or an exception
    eig: object = None           # EigComparison or an exception
    plot: object = None          # SVG bytes or an exception


def run_pass(krrlab, wl: Workload) -> PassOutput:
    """The timed section: every sweep, then eig-compare and plot if present.

    Calls go through module attributes so that a tracer's wrappers apply.
    """
    out = PassOutput(sweeps=[])
    for cfg in wl.sweeps:
        try:
            out.sweeps.append(krrlab.sweep.run_sweep(cfg))
        except Exception as exc:  # counted as failed rows by the checker
            out.sweeps.append(exc)
    if wl.eig_n is not None:
        try:
            out.eig = krrlab.sweep.eig_compare(wl.sweeps[0], n=wl.eig_n,
                                               output_path=wl.eig_path)
        except Exception as exc:
            out.eig = exc
    if wl.plot_path is not None:
        try:
            out.plot = krrlab.svgplot.emit_plot(wl.sweeps[0].output_path, PLOT_COLUMNS,
                                                wl.plot_path)
        except Exception as exc:
            out.plot = exc
    return out


if __name__ == "__main__":
    _name, _seed, _workdir, _micro = sys.argv[1:5]
    build(import_krrlab(), _name, int(_seed), _workdir, _micro == "1")
    print("ready", flush=True)
