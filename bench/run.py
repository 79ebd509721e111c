"""Benchmark runner for krrlab.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see `workloads.py`) in this process, through krrlab's
public API, with OpenBLAS at its default thread count.  The timed section
is repeated while another repetition still fits in `--seconds` (at least
once).  With `--trace 0` it reports the end-to-end metrics of
`BENCHMARK.json`: `wall_s` (median over repetitions), `setup_s` (median
over several fresh processes, from process start to krrlab imported and
configs built), and `peak_rss_mb` (this process, up to the end of the timed
section).  With `--trace 1` each repetition is an untraced/traced pair and
the per-layer metrics come from the traced pass of median wall time.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; earlier lines give a summary, the
provenance, and the path of the full report under `.bench_work/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ROOT, SRC  # noqa: E402

WORKDIR = ROOT / ".bench_work"
SETUP_PROBES = 5


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def setup_seconds(name: str, seed: int, micro: bool) -> float:
    """Median time from starting a fresh interpreter to configs built."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), name, str(seed), str(WORKDIR),
           "1" if micro else "0"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(perf_counter() - t0)
            proc.stdout.read()
            proc.wait(timeout=120)
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {line!r}")
    return statistics.median(times)


def _timed_pass(krrlab, wl, tracer=None):
    if tracer is not None:
        tracer.install(krrlab)
    try:
        c0, t0 = os.times(), perf_counter()
        out = workloads.run_pass(krrlab, wl)
        wall, c1 = perf_counter() - t0, os.times()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out, wall, (c1.user + c1.system) - (c0.user + c0.system)


def measure(krrlab, wl, seconds: float, traced: bool):
    """Repeat the timed section while another repetition fits in `seconds`.

    Returns (outputs of every pass, untraced walls, traced (wall, cpu, tracer)).
    """
    outputs, walls, traced_runs = [], [], []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        out, wall, _ = _timed_pass(krrlab, wl)
        outputs.append(out)
        walls.append(wall)
        if traced:
            tracer = Tracer()
            out, wall, cpu = _timed_pass(krrlab, wl, tracer)
            outputs.append(out)
            traced_runs.append((wall, cpu, tracer))
        unit = perf_counter() - t0
        if perf_counter() - start + unit > seconds:
            return outputs, walls, traced_runs


def _openblas_runtime() -> list:
    """Config string and thread count of every OpenBLAS loaded in-process."""
    import ctypes
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                       and line.split()[-1].startswith("/")})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                    info["threads"] = getattr(lib, f"{prefix}get_num_threads{suffix}")()
                    break
            if "config" in info:
                break
        found.append(info)
    return found


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def provenance(args) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_build": {"version": blas.get("version"),
                           "config": blas.get("openblas configuration")},
        "openblas_runtime": _openblas_runtime(),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }


def _lower_median_index(values) -> int:
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]


def main(argv=None, micro: bool = False) -> int:
    args = _parse(argv)
    krrlab = workloads.import_krrlab()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORKDIR.mkdir(exist_ok=True)

    real = None
    if args.workload == "real_exact":      # input file, outside every clock
        real = workloads.write_real_input(krrlab, args.seed, str(WORKDIR), micro)
    setup_s = setup_seconds(args.workload, args.seed, micro)
    wl = workloads.build(krrlab, args.workload, args.seed, str(WORKDIR), micro)
    wl.real = real

    outputs, walls, traced_runs = measure(krrlab, wl, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = check.check(krrlab, wl, outputs, args.seed, micro)

    metrics = {"wall_s": statistics.median(walls), "setup_s": setup_s,
               "peak_rss_mb": peak_rss_mb, "fail_frac": failed / attempted}
    spans = None
    if traced_runs:
        tw = [w for w, _, _ in traced_runs]
        wall, cpu, tracer = traced_runs[_lower_median_index(tw)]
        metrics.update(tracer.metrics(wall))
        metrics["proc.cpu_s"] = cpu
        metrics["proc.trace_overhead_frac"] = statistics.median(tw) / statistics.median(walls) - 1
        metrics["risk.identity_z.max"] = check.identity_z_max(outputs)
        spans = tracer.span_records()

    section = "per_layer" if args.trace else "end_to_end"
    printed = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    prov = provenance(args)
    stem = WORKDIR / f"{args.workload}-seed{args.seed}-trace{args.trace}{'-micro' if micro else ''}"
    report = {"provenance": prov, "passes": len(outputs), "untraced_walls_s": walls,
              "traced_walls_s": [w for w, _, _ in traced_runs], "attempted": attempted,
              "failed": failed, "problems": problems, "metrics": metrics,
              "gflop_note": "computed from array shapes with textbook flop counts"}
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        Path(f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "cell"], "spans": spans}) + "\n")

    print(f"bench: {args.workload} seed={args.seed} passes={len(outputs)} "
          f"wall_s={metrics['wall_s']:.4f} s setup_s={setup_s:.4f} s "
          f"peak_rss_mb={peak_rss_mb:.1f} MB fail_frac={metrics['fail_frac']:.6g} ratio "
          f"({failed}/{attempted})")
    for line in problems[:20]:
        print(f"bench: FAIL {line}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"report: {stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
