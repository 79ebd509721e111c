"""Digest the benchmark's outputs and a group of multi-trial sweeps, to show
that a change leaves them byte-identical.

    python3 tools/output_digest.py [--tree DIR] [--workloads a,b] [--seeds 1-5] [--micro]
    python3 tools/output_digest.py --tree OLD --against NEW [--seeds 1-5] [--values] ...

For every workload and seed, one pass of the workload is built and run with
the tree's own `bench/workloads.py` (`build`, then `run_pass`; `real_exact`
first writes its libsvm input with `write_real_input`), against the tree's
own `src/`, in a temporary working directory.  One line is printed per
output: `<workload> <seed> <output> <sha256>`, where the outputs are each
sweep (`sweep0`, `sweep1`, ...), the eig-compare output (`eig`) and the SVG
(`svg`).  Every sweep is digested in one form: its CSV text followed by the
`repr` of its points' fields, since the CSV's 12 significant digits hide a
change in the last bits of a point; every eig-compare output likewise, as
its CSV text followed by the `repr` of its three spectra.  The benchmark
workloads all run one trial per cell, so the group `multi_trial` adds small
sweeps at 9 or more trials, built with the tree's own
`krrlab.ExperimentConfig` and run on the same inputs in every tree, so a
change in the order a sweep reduces its cells shows too.  It covers both
routes in both modes (`lin_real`, a linearized real-mode sweep, is the one
whose test samples are pool tails fitted by the spectral route), the exact
linear kernel with a ridge (`exact_affine`) and without one, without noise
(`ridgeless`) and with it (`ridgeless_noisy`, whose V1 takes the min-norm
filter and whose V2 is inf), on grids on both sides of n = d, and, as
`eig_synth`, one synthetic eig-compare, which no workload draws.  A stage
that raised prints `error:<exception type>` in place of its digest.  The
group `bounds` holds the standard output of `krrlab bounds` (`cli.main`) for
a harmonic, a polynomial (a = 1) and an exponential (a = 1) decay, with
fixed flags; it does not depend on the seed.  Nothing is written under
`bench/`: bytecode caching is off and every output goes to the temporary
directory.

With `--against`, both trees are digested, each in its own interpreter
(krrlab can be imported once per process), and every output is listed as
`same` or `DIFFERS`; the exit status is 1 if any output differs or is
missing on one side.

`--values` also reads each output's values as a table: a sweep's points and
an eig-compare's spectra at full precision (the SVG and the `bounds`
printouts have none).  On its own it appends the table, as JSON, to the
output's digest line; with `--against`, every output that differs is
followed by one line per CSV column, with the column's largest relative gap
|a - b| / max(|a|, |b|) between the trees and the rows that moved, named by
their first column (`n=600`), so a change that moves values can list each
move, and then one line, `printed CSV: same` or `printed CSV: moved at n=600
...`, that says whether the rows also differ as the CSV prints them
(`sweep._write_rows`: the first field as is, the others to 12 significant
digits), so a move in the last bits can be told from a move in the printed
digits.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))

from bench_pairs import parse_seeds  # noqa: E402

ROOT = TOOLS.parent
WORKLOADS = ("lin_protocol", "lin_wide", "real_exact", "multi_trial", "bounds")

SAMPLE200 = str(ROOT / "tests" / "data" / "sample200.libsvm")
# The multi-trial group: one sweep per route and schedule, named by its output ...
MULTI_TRIAL = {
    "lin_schedule": dict(kernel="gaussian"),
    "fixed_lambda_gamma0": dict(kernel="polynomial", fixed_lambda=1e-5, gamma_override=0.0),
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
# An eig-compare's spectra: its CSV columns and `EigComparison` fields.
EIG_SPECTRA = ("eig_true", "eig_lin", "eig_scaled_gram")
# The bounds group: `krrlab bounds` flags per output, each decay in regime for
# a closed-form peak where it has one.
BOUNDS_FLAGS = ["--rstar", "100000", "--n", "500", "--cbar", "0.01", "--theta", "0.3",
                "--gamma", "5"]
BOUNDS = {"harmonic": ["--decay", "harmonic"],
          "polynomial": ["--decay", "polynomial", "--a", "1"],
          "exponential": ["--decay", "exponential", "--a", "1"]}
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


def _spectra(eig) -> list:
    """An `EigComparison`'s spectra, in `EIG_SPECTRA` order, as lists of
    floats (whose repr keeps every bit)."""
    return [getattr(eig, name).tolist() for name in EIG_SPECTRA]


def _text(result):
    """The digested form of one output: a sweep's `(points, csv_text)` as its
    CSV and the repr of its points' fields at full precision; an
    `EigComparison` as its CSV and the repr of its spectra; the SVG, a
    printout or the exception raised in an output's place as it is."""
    if isinstance(result, tuple):
        points, csv_text = result
        return csv_text + repr([dataclasses.astuple(p) for p in points])
    if hasattr(result, "csv_text"):
        return result.csv_text + repr(_spectra(result))
    return result


def values_table(output: str, result):
    """{"header": [...], "rows": [[...], ...]} of one output's values at full
    precision: a sweep's points, an eig-compare's CSV rows with its spectra
    in place of their printed digits; None for the SVG, the `bounds`
    printouts and an output that raised."""
    if isinstance(result, BaseException) or output == "svg" or output in BOUNDS:
        return None
    if isinstance(result, tuple):
        points, csv_text = result
        header, rows = csv_text.split("\n", 1)[0], [list(dataclasses.astuple(p)) for p in points]
        return {"header": header.split(","), "rows": rows}
    header, *lines = result.csv_text.splitlines()
    header = header.split(",")
    rows = [[float(v) for v in line.split(",")] for line in lines]
    for name, values in zip(EIG_SPECTRA, _spectra(result)):
        j = header.index(name)
        for row, value in zip(rows, values):
            row[j] = value
    return {"header": header, "rows": rows}


def _multi_trial(krrlab, seed: int, micro: bool) -> dict:
    """{output: sweep or `EigComparison`, or the exception raised} of the
    multi-trial group."""
    size = (dict(d=20, n_grid=[10, 30, 50], trials=9, test_points=100, noise_draws=4)
            if micro else
            dict(d=100, n_grid=[20, 40, 60, 80, 100], trials=10, test_points=400,
                 noise_draws=20))
    out = {}
    for output, kw in MULTI_TRIAL.items():
        try:
            grid = {} if micro or output not in FULL_GRID else dict(n_grid=FULL_GRID[output])
            out[output] = krrlab.run_sweep(krrlab.ExperimentConfig(
                seed=seed, **dict(size, **kw, **grid)))
        except Exception as exc:     # digested as error:<type>
            out[output] = exc
    try:
        out["eig_synth"] = krrlab.eig_compare(krrlab.ExperimentConfig(
            seed=seed, **dict(size, **EIG_SYNTH)))
    except Exception as exc:
        out["eig_synth"] = exc
    return out


def _bounds(krrlab) -> dict:
    """{output: `krrlab bounds` standard output, or the exception raised} of
    the bounds group."""
    cli = importlib.import_module(krrlab.__name__ + ".cli")
    out = {}
    for output, flags in BOUNDS.items():
        stdout = io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout):
                cli.main(["bounds", *flags, *BOUNDS_FLAGS])
            out[output] = stdout.getvalue()
        except Exception as exc:
            out[output] = exc
    return out


def digest(tree: Path, workloads: list, seeds: list, micro: bool = False) -> dict:
    """{(workload, seed, output): sha256} for one pass of each workload."""
    return {key: _sha(_text(result))
            for key, result in outputs(tree, workloads, seeds, micro).items()}


def outputs(tree: Path, workloads: list, seeds: list, micro: bool = False) -> dict:
    """{(workload, seed, output): result} for one pass of each workload: a
    sweep's `(points, csv_text)`, the `EigComparison`, the SVG, or the
    exception raised in an output's place."""
    caching, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        wmod = _load_workloads(Path(tree).resolve())
        krrlab = wmod.import_krrlab()
    finally:
        sys.dont_write_bytecode = caching
    out = {}
    for name in workloads:
        for seed in seeds:
            if name in ("multi_trial", "bounds"):
                group = (_multi_trial(krrlab, seed, micro) if name == "multi_trial"
                         else _bounds(krrlab))
                for output, result in group.items():
                    out[name, seed, output] = result
                continue
            with tempfile.TemporaryDirectory(prefix="output_digest_") as workdir:
                if name == "real_exact":
                    wmod.write_real_input(krrlab, seed, workdir, micro)
                wl = wmod.build(krrlab, name, seed, workdir, micro)
                res = wmod.run_pass(krrlab, wl)
                for i, sweep in enumerate(res.sweeps):
                    out[name, seed, f"sweep{i}"] = sweep
                if wl.eig_n is not None:
                    out[name, seed, "eig"] = res.eig
                if wl.plot_path is not None:
                    out[name, seed, "svg"] = res.plot
    return out


def format_lines(digests: dict, tables: dict = None) -> list:
    """One line per output, `<workload> <seed> <output> <sha256>`, followed
    by the output's table as JSON (no spaces) where `tables` holds one."""
    tables = tables or {}
    return [f"{w} {s} {o} {h}" + (f" {json.dumps(tables[w, s, o], separators=(',', ':'))}"
                                  if tables.get((w, s, o)) is not None else "")
            for (w, s, o), h in digests.items()]


def parse_lines(lines) -> dict:
    """{(workload, seed, output): sha256} of `format_lines`' lines."""
    return {(w, int(s), o): h for w, s, o, h, *_ in (line.split(" ", 4) for line in lines)}


def parse_tables(lines) -> dict:
    """{(workload, seed, output): table} of the lines that carry one."""
    return {(w, int(s), o): json.loads(rest[0])
            for w, s, o, _, *rest in (line.split(" ", 4) for line in lines) if rest}


def _relative_gap(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _printed(row) -> str:
    """A table row as `sweep._write_rows` prints it."""
    return ",".join([str(row[0]), *(format(v, ".12g") for v in row[1:])])


def value_moves(old, new) -> list:
    """Lines naming, for every column of two tables of one output, its
    largest relative gap and the rows (by their first column) whose value
    moved; then one line naming the rows whose printed CSV moved."""
    if old is None or new is None:
        return ["  no values to compare (an SVG, a bounds printout, an output that raised, "
                "or a missing one)"]
    if old["header"] != new["header"] or len(old["rows"]) != len(new["rows"]):
        return [f"  shape differs: {old['header']} x {len(old['rows'])} rows -> "
                f"{new['header']} x {len(new['rows'])} rows"]
    key = old["header"][0]
    lines = []
    for j, column in enumerate(old["header"]):
        gaps = [(_relative_gap(a[j], b[j]), a[0]) for a, b in zip(old["rows"], new["rows"])]
        moved = [f"{key}={row:g}" for gap, row in gaps if gap > 0]
        largest = max((g for g, _ in gaps), default=0.0)
        lines.append(f"  {column}: largest relative gap {largest:.3g}"
                     + (f", moved at {' '.join(moved)}" if moved else ", no row moved"))
    printed = [f"{key}={a[0]:g}" for a, b in zip(old["rows"], new["rows"])
               if _printed(a) != _printed(b)]
    lines.append("  printed CSV: " + (f"moved at {' '.join(printed)}" if printed else "same"))
    return lines


def compare(old: dict, new: dict) -> list:
    """(key, verdict) for every output of either side, in `old`'s order."""
    keys = list(old) + [k for k in new if k not in old]
    return [(k, "same" if k in old and k in new and old[k] == new[k] else "DIFFERS")
            for k in keys]


def _digest_in_child(tree: Path, args) -> list:
    """The digest lines of `tree`, computed in a fresh interpreter."""
    cmd = [sys.executable, "-B", __file__, "--tree", str(tree),
           "--workloads", ",".join(args.workloads), "--seeds", args.seeds]
    if args.micro:
        cmd.append("--micro")
    if args.values:
        cmd.append("--values")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"output_digest: {' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return proc.stdout.splitlines()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tree", type=Path, default=ROOT)
    ap.add_argument("--against", type=Path, help="second tree: compare the two")
    ap.add_argument("--workloads", type=lambda t: t.split(","), default=list(WORKLOADS))
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--micro", action="store_true", help="the seconds-long micro configs")
    ap.add_argument("--values", action="store_true",
                    help="also read the values: per differing output, each column's "
                         "largest relative gap and the rows that moved")
    args = ap.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workloads {sorted(unknown)} (choose from {WORKLOADS})")

    if args.against is None:
        results = outputs(args.tree, args.workloads, parse_seeds(args.seeds), args.micro)
        digests = {key: _sha(_text(result)) for key, result in results.items()}
        tables = ({key: values_table(key[2], result) for key, result in results.items()}
                  if args.values else None)
        for line in format_lines(digests, tables):
            print(line, flush=True)
        return 0
    old, new = _digest_in_child(args.tree, args), _digest_in_child(args.against, args)
    verdicts = compare(parse_lines(old), parse_lines(new))
    old_tables, new_tables = parse_tables(old), parse_tables(new)
    for (w, s, o), verdict in verdicts:
        print(f"{w} {s} {o} {verdict}")
        if args.values and verdict != "same":
            for line in value_moves(old_tables.get((w, s, o)), new_tables.get((w, s, o))):
                print(line)
    differ = sum(v != "same" for _, v in verdicts)
    print(f"output_digest: {len(verdicts) - differ} of {len(verdicts)} outputs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
