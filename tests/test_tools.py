"""The pure parts of tools/bench_pairs.py (seed lists and pair statistics),
and tools/output_digest.py on the micro workloads and multi-trial group."""

import dataclasses
import importlib.util
import math
import re
from pathlib import Path

import pytest

from krrlab import sweep

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load("bench_pairs")
output_digest = _load("output_digest")


@pytest.mark.parametrize("text,want", [
    ("1-10", list(range(1, 11))),
    ("11", [11]),
    ("1-3,7", [1, 2, 3, 7]),
])
def test_parse_seeds(text, want):
    assert bench_pairs.parse_seeds(text) == want


RSS = [{"name": "peak_rss_mb", "better": "lower", "bound": 0.15}]


def _run(value, correct=True, failed=0):
    return {"result": {"correct": correct, "failed": failed,
                       "metrics": {"peak_rss_mb": {"value": value, "unit": "MB"}}}}


def test_summarize_counts_pairs_and_quartiles():
    runs = {"parent": [_run(v) for v in (174.0, 173.0, 175.0, 176.0)],
            "change": [_run(v) for v in (139.0, 174.0, 140.0, 139.5)]}
    out = bench_pairs.summarize(runs, RSS)
    m = out["peak_rss_mb"]
    assert out["correct_and_no_failed_ops_in_every_run"]
    assert m["parent"] == {"median": 174.5, "q1": 173.75, "q3": 175.25}
    assert m["change"]["median"] == 139.75
    assert m["change_better_pairs"] == 3          # the tie at 174 is no win
    assert m["median_change_pct"] == round(100 * (139.75 - 174.5) / 174.5, 1)
    assert m["median_gap_exceeds_parent_iqr"]
    assert m["change_runs"] == [139.0, 174.0, 140.0, 139.5]


def test_summarize_flags_a_failed_run():
    runs = {"parent": [_run(1.0), _run(1.0)], "change": [_run(1.0), _run(1.0, failed=1)]}
    out = bench_pairs.summarize(runs, RSS)
    assert not out["correct_and_no_failed_ops_in_every_run"]
    assert not out["peak_rss_mb"]["median_gap_exceeds_parent_iqr"]


def test_summarize_one_pair():
    runs = {"parent": [_run(174.0)], "change": [_run(139.0)]}
    m = bench_pairs.summarize(runs, RSS)["peak_rss_mb"]
    assert m["parent"] == {"median": 174.0, "q1": 174.0, "q3": 174.0}
    assert m["change_better_pairs"] == 1


@pytest.mark.parametrize("better,parent,change,want", [
    # parent IQR 1.075 > 0.25 x 1.75, and no change run beats every parent run
    ("lower", (1.0, 1.2, 1.4, 2.1, 2.4, 2.6), (1.5, 1.5, 1.6, 1.6, 1.7, 1.7), "unresolved"),
    # the same spread, but every change run beats every parent run
    ("lower", (1.0, 1.2, 1.4, 2.1, 2.4, 2.6), (0.5, 0.6, 0.7, 0.7, 0.8, 0.9), "within_bound"),
    # a tight parent, and the change's median 30% worse against a 25% bound
    ("lower", (2.0, 2.0, 2.1, 2.0, 1.9, 2.0), (2.6, 2.6, 2.7, 2.6, 2.5, 2.6), "worse"),
    # a tight parent, and the change's median 20% worse: within the bound
    ("lower", (2.0, 2.0, 2.1, 2.0, 1.9, 2.0), (2.4, 2.4, 2.5, 2.4, 2.3, 2.4), "within_bound"),
    # higher is better: a median 30% below the parent's is worse
    ("higher", (2.0, 2.0, 2.1, 2.0, 1.9, 2.0), (1.4, 1.4, 1.5, 1.4, 1.3, 1.4), "worse"),
], ids=["unresolved", "beats-every-run", "worse", "within-bound", "higher-worse"])
def test_summarize_verdict(better, parent, change, want):
    runs = {"parent": [_run(v) for v in parent], "change": [_run(v) for v in change]}
    metric = {"name": "peak_rss_mb", "better": better, "bound": 0.25}
    assert bench_pairs.summarize(runs, [metric])["peak_rss_mb"]["verdict"] == want


def _files(directory: Path) -> dict:
    return {p: (p.stat().st_size, p.stat().st_mtime_ns) for p in directory.rglob("*")}


def test_output_digest_names_every_output_and_writes_nothing_under_bench():
    before = _files(ROOT / "bench")
    digests = output_digest.digest(ROOT, list(output_digest.WORKLOADS), [1], micro=True)
    assert _files(ROOT / "bench") == before
    assert list(digests) == ([("lin_protocol", 1, f"sweep{i}") for i in range(7)]
                             + [("lin_wide", 1, "sweep0")]
                             + [("real_exact", 1, o) for o in ("sweep0", "eig", "svg")]
                             + [("multi_trial", 1, o) for o in (
                                 "lin_schedule", "fixed_lambda_gamma0", "curvature",
                                 "exact_synth", "exact_real", "lin_real", "exact_affine",
                                 "ridgeless", "ridgeless_noisy", "eig_synth")]
                             + [("bounds", 1, o) for o in ("harmonic", "polynomial",
                                                            "exponential")])
    assert all(re.fullmatch("[0-9a-f]{64}", h) for h in digests.values())
    assert output_digest.digest(ROOT, ["lin_wide"], [1], micro=True) == {
        ("lin_wide", 1, "sweep0"): digests["lin_wide", 1, "sweep0"]}


def test_output_digest_sees_a_one_ulp_change_in_a_benchmark_sweep(monkeypatch):
    # the CSV's 12 significant digits cannot show a last-bit change; the
    # repr of the points' fields, digested with it, does
    run_sweep = sweep.run_sweep

    def nudged(config):
        points, csv_text = run_sweep(config)
        first = points[0]
        points[0] = dataclasses.replace(first, var_emp=math.nextafter(first.var_emp, math.inf))
        assert sweep.write_csv(points, None) == csv_text
        return points, csv_text

    key = ("lin_wide", 1, "sweep0")
    want = output_digest.digest(ROOT, ["lin_wide"], [1], micro=True)[key]
    monkeypatch.setattr(sweep, "run_sweep", nudged)
    assert output_digest.digest(ROOT, ["lin_wide"], [1], micro=True)[key] != want


def test_output_digest_compares_two_trees(capsys):
    assert output_digest.main(["--against", str(ROOT), "--workloads", "lin_wide",
                               "--seeds", "1-2", "--micro"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lin_wide 1 sweep0 same", "lin_wide 2 sweep0 same",
        "output_digest: 2 of 2 outputs identical"]


def test_output_digest_bounds_group_holds_the_printouts():
    out = output_digest.outputs(ROOT, ["bounds"], [1, 2])
    assert list(out) == [("bounds", s, o) for s in (1, 2)
                         for o in ("harmonic", "polynomial", "exponential")]
    for (_, _, decay), text in out.items():
        assert text == out["bounds", 1, decay]
        assert text.startswith("b = n*lambda + gamma = ")
        assert ("peak n_* = " in text) == (decay == "polynomial")
        assert ("monotone-decrease condition" in text) == (decay == "exponential")
        assert output_digest.values_table(decay, text) is None


def test_output_digest_flags_changed_and_missing_outputs():
    old = {("w", 1, "sweep0"): "a", ("w", 1, "eig"): "b"}
    new = {("w", 1, "sweep0"): "a", ("w", 1, "eig"): "c", ("w", 1, "svg"): "d"}
    assert output_digest.compare(old, new) == [
        (("w", 1, "sweep0"), "same"), (("w", 1, "eig"), "DIFFERS"),
        (("w", 1, "svg"), "DIFFERS")]
    assert output_digest.parse_lines(output_digest.format_lines(new)) == new


def _nudged_table(table, row, column):
    # a copy of `table` with one value moved by one ulp
    rows = [list(r) for r in table["rows"]]
    j = table["header"].index(column)
    rows[row][j] = math.nextafter(rows[row][j], math.inf)
    return {"header": table["header"], "rows": rows}


def test_output_digest_values_name_a_one_ulp_move_by_column_and_row():
    result = output_digest.outputs(ROOT, ["lin_wide"], [1], micro=True)["lin_wide", 1, "sweep0"]
    table = output_digest.values_table("sweep0", result)
    assert table["header"] == sweep.CSV_HEADER.split(",")
    n = table["rows"][1][0]
    moved = _nudged_table(table, 1, "var_emp")
    # the JSON that carries a table between interpreters keeps every bit
    digests = {("lin_wide", 1, "sweep0"): "a"}
    lines = output_digest.format_lines(digests, {("lin_wide", 1, "sweep0"): moved})
    assert output_digest.parse_lines(lines) == digests
    assert output_digest.parse_tables(lines) == {("lin_wide", 1, "sweep0"): moved}

    report = output_digest.value_moves(table, moved)
    assert len(report) == len(table["header"]) + 1
    assert report[-1] == "  printed CSV: same"
    var_line = report[table["header"].index("var_emp")]
    assert var_line.startswith("  var_emp: largest relative gap ")
    assert var_line.endswith(f", moved at n={n}")
    gap = float(var_line.split("gap ")[1].split(",")[0])
    assert 0 < gap <= 2.3e-16
    assert all(line.endswith("largest relative gap 0, no row moved")
               for line in report[:-1] if line is not var_line)


@pytest.mark.parametrize("scale,want", [
    (None, "  printed CSV: same"),
    (1.0 + 1e-9, "  printed CSV: moved at n=100"),
], ids=["one-ulp", "1e-9"])
def test_output_digest_values_tell_last_bits_from_printed_digits(scale, want):
    # one ulp stays below the 12 printed digits; a 1e-9 relative move does not
    table = {"header": ["n", "v1_bound"], "rows": [[100, 0.123456789012345], [200, 2.5]]}
    moved = _nudged_table(table, 0, "v1_bound")
    if scale is not None:
        moved["rows"][0][1] = table["rows"][0][1] * scale
    report = output_digest.value_moves(table, moved)
    assert report[1].endswith("moved at n=100")
    assert report[-1] == want


def test_output_digest_values_follow_each_differing_output(monkeypatch, capsys):
    table = {"header": ["i", "eig_true"], "rows": [[1.0, 2.0], [2.0, 0.5]]}
    old = {("w", 1, "eig"): "a", ("w", 1, "svg"): "b", ("w", 1, "sweep0"): "c"}
    new = {**old, ("w", 1, "eig"): "d", ("w", 1, "svg"): "e"}
    tables = {("w", 1, "eig"): table, ("w", 1, "sweep0"): table}
    moved = {**tables, ("w", 1, "eig"): _nudged_table(table, 1, "eig_true")}
    children = iter([output_digest.format_lines(old, tables),
                     output_digest.format_lines(new, moved)])
    monkeypatch.setattr(output_digest, "_digest_in_child", lambda tree, args: next(children))
    assert output_digest.main(["--against", str(ROOT), "--values"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "w 1 eig DIFFERS",
        "  i: largest relative gap 0, no row moved",
        "  eig_true: largest relative gap 2.22e-16, moved at i=2",
        "  printed CSV: same",
        "w 1 svg DIFFERS",
        "  no values to compare (an SVG, a bounds printout, an output that raised, "
        "or a missing one)",
        "w 1 sweep0 same",
        "output_digest: 1 of 3 outputs identical"]
