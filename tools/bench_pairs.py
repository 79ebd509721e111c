"""Compare two source trees on the benchmark by alternating pairs of runs.

    python3 tools/bench_pairs.py --parent OLD --change NEW --out BENCH_x.json \
        --label x --claim "..." [--workloads a,b] [--seeds 1-10] [--seconds 30]
    python3 tools/bench_pairs.py --parent OLD --aa --out BENCH_aa.json ...

Each tree is a directory holding a copy of the repository's files (for
example from `git archive`); each run is `python3 bench/run.py --workload W
--seed S --seconds T --trace 0`, started in that tree so that it imports
the tree's own `src/` and writes to the tree's own `.bench_work/`.  For
every seed and workload the two runs of a pair go back to back, the parent
first at odd seeds and the change first at even seeds.

`--aa` is the A/A control: the change tree is a fresh copy of the parent
tree, so any systematic difference between the two columns is an artifact
of the method (run order, directory), not of the code.

The output has the schema of `BENCH_exact_memory.json`: per workload and
end-to-end metric of `BENCHMARK.json`, the median and inclusive quartiles
of each side, the change's median relative to the parent's, the number of
pairs in which the change is better, and every run's value.  Each metric
also gets a no-regression `verdict` against its `bound` in BENCHMARK.json,
decided in this order:

* `unresolved`: the parent's IQR exceeds bound x the parent's median, and
  not every change run beats every parent run, so the runs spread too
  widely to tell;
* `worse`: the change's median is worse than the parent's by more than
  bound (relative to the parent's median);
* `within_bound`: otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """'1-10' or '1,3,5' (or a mix, '1-3,7') as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`: its result line and its provenance."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {tree} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    prov = next(json.loads(line[len("provenance: "):]) for line in lines
                if line.startswith("provenance: "))
    return {"result": result, "provenance": prov}


def _summary(values: list) -> dict:
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else values * 3)
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4),
            "q3": round(q3, 4)}


def summarize(runs: dict, metrics: list) -> dict:
    """Per-metric statistics of one workload's pairs; `runs[side]` lists the
    side's runs in seed order."""
    out = {"correct_and_no_failed_ops_in_every_run": all(
        r["result"]["correct"] and r["result"]["failed"] == 0
        for side in SIDES for r in runs[side])}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        vals = {side: [r["result"]["metrics"][name]["value"] for r in runs[side]]
                for side in SIDES}
        p, c = (statistics.median(vals[side]) for side in SIDES)
        better = sum((b < a) if lower else (b > a) for a, b in zip(*vals.values()))
        stats = {side: _summary(vals[side]) for side in SIDES}
        iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        beats_every_run = (max(vals["change"]) < min(vals["parent"]) if lower
                           else min(vals["change"]) > max(vals["parent"]))
        bound = m["bound"] * p
        out[name] = {
            **stats,
            "median_change_pct": round(100.0 * (c - p) / p, 1),
            "change_better_pairs": better,
            # a gain counts only beyond the spread of the parent's own runs
            "median_gap_exceeds_parent_iqr": abs(c - p) > iqr,
            "verdict": ("unresolved" if iqr > bound and not beats_every_run
                        else "worse" if (c - p if lower else p - c) > bound
                        else "within_bound"),
            "parent_runs": [round(v, 4) for v in vals["parent"]],
            "change_runs": [round(v, 4) for v in vals["change"]],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--aa", action="store_true", help="A/A control: change = copy of parent")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--label", required=True)
    ap.add_argument("--claim", default="")
    ap.add_argument("--parent-rev", help="revision the parent tree was taken from")
    ap.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.aa == (args.change is not None):
        ap.error("give exactly one of --change and --aa")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": args.parent.resolve(), "change": Path(tmp) / "copy"}
        if args.aa:
            shutil.copytree(args.parent, trees["change"], ignore=shutil.ignore_patterns(
                ".bench_work", "__pycache__", ".git"))
        else:
            trees["change"] = args.change.resolve()
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        for seed in seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    run = run_one(trees[side], w, seed, args.seconds)
                    runs[w][side].append(run)
                    value = {k: round(v["value"], 4)
                             for k, v in run["result"]["metrics"].items()}
                    print(f"bench_pairs: seed {seed} {w} {side} {value}", flush=True)

    first = runs[workloads[0]]["parent"][0]["provenance"]
    doc = {
        "label": args.label,
        "claim": args.claim,
        "parent": args.parent_rev or first.get("git_sha"),
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "method": "each tree run from its own copy of the committed files; per seed and "
                  "workload one parent run and one change run back to back, the parent "
                  "first at odd seeds and the change first at even seeds; medians and "
                  "quartiles (inclusive) over the pairs"
                  + ("; A/A control: the change tree is a copy of the parent tree"
                     if args.aa else ""),
        "aa_control": args.aa,
        "pairs": len(seeds),
        "seeds": seeds,
        "src_sha256": {side: runs[workloads[0]][side][0]["provenance"]["src_sha256"]
                       for side in SIDES},
        "machine": {k: first[k] for k in ("machine", "nproc", "cpu_count", "python",
                                          "numpy", "scipy", "thread_env")},
        "openblas_build": first["openblas_build"],
        "openblas_runtime": first["openblas_runtime"],
        "workloads": {w: summarize(runs[w], spec["end_to_end"]) for w in workloads},
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"bench_pairs: wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
