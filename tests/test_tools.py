"""The pure parts of tools/bench_pairs.py: seed lists and pair statistics."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


@pytest.mark.parametrize("text,want", [
    ("1-10", list(range(1, 11))),
    ("11", [11]),
    ("1-3,7", [1, 2, 3, 7]),
])
def test_parse_seeds(text, want):
    assert bench_pairs.parse_seeds(text) == want


def _run(value, correct=True, failed=0):
    return {"result": {"correct": correct, "failed": failed,
                       "metrics": {"peak_rss_mb": {"value": value, "unit": "MB"}}}}


def test_summarize_counts_pairs_and_quartiles():
    runs = {"parent": [_run(v) for v in (174.0, 173.0, 175.0, 176.0)],
            "change": [_run(v) for v in (139.0, 174.0, 140.0, 139.5)]}
    out = bench_pairs.summarize(runs, [{"name": "peak_rss_mb", "better": "lower"}])
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
    out = bench_pairs.summarize(runs, [{"name": "peak_rss_mb", "better": "lower"}])
    assert not out["correct_and_no_failed_ops_in_every_run"]
    assert not out["peak_rss_mb"]["median_gap_exceeds_parent_iqr"]


def test_summarize_one_pair():
    runs = {"parent": [_run(174.0)], "change": [_run(139.0)]}
    m = bench_pairs.summarize(runs, [{"name": "peak_rss_mb", "better": "lower"}])["peak_rss_mb"]
    assert m["parent"] == {"median": 174.0, "q1": 174.0, "q3": 174.0}
    assert m["change_better_pairs"] == 1
