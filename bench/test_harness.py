"""Smoke test of the benchmark harness on seconds-long micro configs.

    python3 -m pytest bench/test_harness.py -q

Each micro config takes its workload's code path.  The test checks that
every metric named in BENCHMARK.json is printed with its unit, that no
operation fails, that the exact work counts repeat, and that a traced run
leaves krrlab's attributes as it found them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy.linalg
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "gflop", "bytes")


def _attributes(krrlab) -> dict:
    modules = tracer.krrlab_modules(krrlab) + [scipy.linalg, numpy.linalg]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def _run(capsys, workload: str, trace: int) -> tuple:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3",
                     "--trace", str(trace)], micro=True) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines[0], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_micro_run_prints_every_metric(capsys, workload, trace):
    krrlab = workloads.import_krrlab()
    before = _attributes(krrlab)
    summary, result = _run(capsys, workload, trace)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "fail_frac=0 ratio" in summary
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert _attributes(krrlab) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_spans_cover_the_pass(capsys, workload):
    _, first = _run(capsys, workload, 1)
    _, second = _run(capsys, workload, 1)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    counts.append("synth.unique_draw_ratio")
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name

    m = {k: v["value"] for k, v in first["metrics"].items()}
    assert (m["libsvm.parse_libsvm.calls"] > 0) == (workload == "real_exact")
    assert m["sweep.cells"] > 0
    assert abs(m["trace.attributed_frac"] - 1) < 0.01


def test_bare_directory_exits_nonzero(tmp_path):
    # only BENCHMARK.json and the benchmark itself: no program to measure
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lin_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
