"""Digest the benchmark's outputs and a group of multi-trial sweeps, to show
that a change leaves them byte-identical.

    python3 tools/output_digest.py [--tree DIR] [--workloads a,b] [--seeds 1-5] [--micro]
    python3 tools/output_digest.py --tree OLD --against NEW [--seeds 1-5] ...

For every workload and seed, one pass of the workload is built and run with
the tree's own `bench/workloads.py` (`build`, then `run_pass`; `real_exact`
first writes its libsvm input with `write_real_input`), against the tree's
own `src/`, in a temporary working directory.  One line is printed per
output: `<workload> <seed> <output> <sha256>`, where the outputs are each
sweep (`sweep0`, `sweep1`, ...), the eig-compare CSV (`eig`) and the SVG
(`svg`).  Every sweep is digested in one form: its CSV text followed by the
`repr` of its points' fields, since the CSV's 12 significant digits hide a
change in the last bits of a point.  The benchmark workloads all run one
trial per cell, so the group `multi_trial` adds small sweeps at 9 or more
trials, built with the tree's own `krrlab.ExperimentConfig` and run on the
same inputs in every tree, so a change in the order a sweep reduces its
cells shows too.  It covers both routes in both modes (`lin_real`, a
linearized real-mode sweep, is the one whose test samples are pool tails
fitted by the spectral route), the exact linear kernel with a ridge
(`exact_affine`) and without one, without noise (`ridgeless`) and with it
(`ridgeless_noisy`, whose V1 takes the min-norm filter and whose V2 is inf),
on grids on both sides of n = d, and, as `eig_synth`, one synthetic
eig-compare CSV, which no workload draws.  A stage that raised prints
`error:<exception type>` in place of its digest.  Nothing is written under
`bench/`: bytecode caching is off and every output goes to the temporary
directory.

With `--against`, both trees are digested, each in its own interpreter
(krrlab can be imported once per process), and every output is listed as
`same` or `DIFFERS`; the exit status is 1 if any output differs or is
missing on one side.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from bench_pairs import parse_seeds  # noqa: E402

ROOT = TOOLS.parent
WORKLOADS = ("lin_protocol", "lin_wide", "real_exact", "multi_trial")

SAMPLE200 = str(ROOT / "tests" / "data" / "sample200.libsvm")
# The multi-trial group: one sweep per route and schedule, named by its output ...
MULTI_TRIAL = {
    "lin_schedule": dict(kernel="gaussian"),
    "fixed_lambda_gamma0": dict(kernel="polynomial", fixed_lambda=1e-5, gamma_override=0.0),
    "curvature": dict(kernel="gaussian", lin_curvature=True),
    "exact_synth": dict(kernel="gaussian", use_linearized=False),
    "exact_real": dict(kernel="gaussian", use_linearized=False, mode="real", d=24,
                       input_path=SAMPLE200),
    "lin_real": dict(kernel="gaussian", mode="real", d=24, input_path=SAMPLE200),
    "exact_affine": dict(kernel="linear", use_linearized=False),
    "ridgeless": dict(kernel="linear", use_linearized=False, cbar=0.0, sigma=0.0),
    "ridgeless_noisy": dict(kernel="linear", use_linearized=False, cbar=0.0, sigma=1.0),
}
# ... and one synthetic eig-compare, at the group's largest n.
EIG_SYNTH = dict(kernel="gaussian")
# Full-size grids for the sweeps whose spectral cell switches sides at n = d
# (the micro grid, 10 to 50 at d = 20, already straddles it).
FULL_GRID = dict.fromkeys(("exact_affine", "ridgeless", "ridgeless_noisy"),
                          [60, 90, 100, 110, 140])


def _load_workloads(tree: Path):
    """The tree's `bench/workloads.py`, registered (its dataclasses need that)
    under a name of its own, so that no other `workloads` module is shadowed."""
    spec = importlib.util.spec_from_file_location("output_digest_workloads",
                                                  tree / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _sha(data) -> str:
    if isinstance(data, BaseException):
        return f"error:{type(data).__name__}"
    return hashlib.sha256(data.encode("ascii") if isinstance(data, str) else data).hexdigest()


def _sweep_text(sweep):
    """A sweep's `(points, csv_text)` as its CSV and the repr of its points'
    fields at full precision; an exception raised in its place is kept."""
    if isinstance(sweep, BaseException):
        return sweep
    points, csv_text = sweep
    return csv_text + repr([dataclasses.astuple(p) for p in points])


def _multi_trial(krrlab, seed: int, micro: bool) -> dict:
    """{output: sweep or eig-compare text, or the exception raised} of the
    multi-trial group."""
    size = (dict(d=20, n_grid=[10, 30, 50], trials=9, test_points=100, noise_draws=4)
            if micro else
            dict(d=100, n_grid=[20, 40, 60, 80, 100], trials=10, test_points=400,
                 noise_draws=20))
    out = {}
    for output, kw in MULTI_TRIAL.items():
        try:
            grid = {} if micro or output not in FULL_GRID else dict(n_grid=FULL_GRID[output])
            out[output] = _sweep_text(krrlab.run_sweep(krrlab.ExperimentConfig(
                seed=seed, **dict(size, **kw, **grid))))
        except Exception as exc:     # digested as error:<type>
            out[output] = exc
    try:
        out["eig_synth"] = krrlab.eig_compare(krrlab.ExperimentConfig(
            seed=seed, **dict(size, **EIG_SYNTH))).csv_text
    except Exception as exc:
        out["eig_synth"] = exc
    return out


def digest(tree: Path, workloads: list, seeds: list, micro: bool = False) -> dict:
    """{(workload, seed, output): sha256} for one pass of each workload."""
    caching, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        wmod = _load_workloads(Path(tree).resolve())
        krrlab = wmod.import_krrlab()
    finally:
        sys.dont_write_bytecode = caching
    out = {}
    for name in workloads:
        for seed in seeds:
            if name == "multi_trial":
                for output, text in _multi_trial(krrlab, seed, micro).items():
                    out[name, seed, output] = _sha(text)
                continue
            with tempfile.TemporaryDirectory(prefix="output_digest_") as workdir:
                if name == "real_exact":
                    wmod.write_real_input(krrlab, seed, workdir, micro)
                wl = wmod.build(krrlab, name, seed, workdir, micro)
                res = wmod.run_pass(krrlab, wl)
                for i, sweep in enumerate(res.sweeps):
                    out[name, seed, f"sweep{i}"] = _sha(_sweep_text(sweep))
                if wl.eig_n is not None:
                    out[name, seed, "eig"] = _sha(
                        res.eig if isinstance(res.eig, BaseException) else res.eig.csv_text)
                if wl.plot_path is not None:
                    out[name, seed, "svg"] = _sha(res.plot)
    return out


def format_lines(digests: dict) -> list:
    return [f"{w} {s} {o} {h}" for (w, s, o), h in digests.items()]


def parse_lines(lines) -> dict:
    out = {}
    for line in lines:
        w, s, o, h = line.split()
        out[w, int(s), o] = h
    return out


def compare(old: dict, new: dict) -> list:
    """(key, verdict) for every output of either side, in `old`'s order."""
    keys = list(old) + [k for k in new if k not in old]
    return [(k, "same" if k in old and k in new and old[k] == new[k] else "DIFFERS")
            for k in keys]


def _digest_in_child(tree: Path, args) -> dict:
    cmd = [sys.executable, "-B", __file__, "--tree", str(tree),
           "--workloads", ",".join(args.workloads), "--seeds", args.seeds]
    if args.micro:
        cmd.append("--micro")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"output_digest: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return parse_lines(proc.stdout.splitlines())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT)
    ap.add_argument("--against", type=Path, help="second tree: compare the two")
    ap.add_argument("--workloads", type=lambda t: t.split(","), default=list(WORKLOADS))
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--micro", action="store_true", help="the seconds-long micro configs")
    args = ap.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)} (choose from {WORKLOADS})")

    if args.against is None:
        for line in format_lines(digest(args.tree, args.workloads,
                                        parse_seeds(args.seeds), args.micro)):
            print(line, flush=True)
        return 0
    verdicts = compare(_digest_in_child(args.tree, args), _digest_in_child(args.against, args))
    for (w, s, o), verdict in verdicts:
        print(f"{w} {s} {o} {verdict}")
    differ = sum(v != "same" for _, v in verdicts)
    print(f"output_digest: {len(verdicts) - differ} of {len(verdicts)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
