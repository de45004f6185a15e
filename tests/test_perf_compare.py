"""``tools/perf_compare.py``: the CI wall-clock comparison of two trees."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TOOL = REPO / "tools" / "perf_compare.py"
WORKLOADS = [w["name"] for w in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def perf_compare():
    spec = importlib.util.spec_from_file_location("perf_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(run_s=10.0, setup_s=1.0, peak_rss_mb=300.0, attempted=8, failed=0):
    """One result line, shaped like the last stdout line of perfbench/run.py."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def _compare(perf_compare, tmp_path, change, parent=None):
    for side, line in (("parent", parent or _line()), ("change", change)):
        (tmp_path / side).mkdir(exist_ok=True)
        for workload in WORKLOADS:
            (tmp_path / side / f"{workload}.json").write_text(json.dumps(line))
    return perf_compare.main([str(tmp_path / "parent"), str(tmp_path / "change")])


def test_identical_pair_passes(perf_compare, tmp_path, capsys):
    assert _compare(perf_compare, tmp_path, _line()) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert all(workload in out for workload in WORKLOADS)


def test_run_s_thirty_percent_slower_fails(perf_compare, tmp_path, capsys):
    assert _compare(perf_compare, tmp_path, _line(run_s=13.0)) == 1
    assert "[FAIL] attack-resnet20 run_s" in capsys.readouterr().out


def test_peak_rss_ten_percent_higher_passes(perf_compare, tmp_path):
    assert _compare(perf_compare, tmp_path, _line(peak_rss_mb=330.0)) == 0


def test_larger_failed_share_fails(perf_compare, tmp_path, capsys):
    assert _compare(perf_compare, tmp_path, _line(failed=1)) == 1
    assert "[FAIL] sweep-micro failed share" in capsys.readouterr().out


def test_missing_result_fails(perf_compare, tmp_path, capsys):
    _compare(perf_compare, tmp_path, _line())
    (tmp_path / "change" / "sweep-micro.json").unlink()
    assert perf_compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1
    assert "[FAIL] sweep-micro: no result" in capsys.readouterr().out


def _compare_runs(perf_compare, tmp_path, parent_runs, change_runs):
    """Write ``<workload>.<i>.json`` per run and side, then compare."""
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        (tmp_path / side).mkdir(exist_ok=True)
        for workload in WORKLOADS:
            for i, line in enumerate(runs, start=1):
                (tmp_path / side / f"{workload}.{i}.json").write_text(json.dumps(line))
    return perf_compare.main([str(tmp_path / "parent"), str(tmp_path / "change")])


def test_three_runs_with_one_outlier_pass(perf_compare, tmp_path, capsys):
    # One change run 1.26x slower (an A/A pair's spread on a 2-vCPU host):
    # the median of three runs is unmoved.
    parent = [_line(run_s=10.0), _line(run_s=10.2), _line(run_s=9.9)]
    change = [_line(run_s=10.1), _line(run_s=12.6, setup_s=1.26), _line(run_s=9.8)]
    assert _compare_runs(perf_compare, tmp_path, parent, change) == 0
    assert "medians of 3 and 3 runs" in capsys.readouterr().out


def test_three_runs_consistently_thirty_percent_slower_fail(perf_compare, tmp_path, capsys):
    parent = [_line(run_s=10.0), _line(run_s=10.2), _line(run_s=9.9)]
    change = [_line(run_s=13.0), _line(run_s=13.3), _line(run_s=12.9)]
    assert _compare_runs(perf_compare, tmp_path, parent, change) == 1
    assert "[FAIL] attack-resnet20 run_s" in capsys.readouterr().out


def test_failed_share_counts_every_run(perf_compare, tmp_path, capsys):
    change = [_line(), _line(failed=1), _line()]
    assert _compare_runs(perf_compare, tmp_path, [_line()] * 3, change) == 1
    assert "[FAIL] sweep-micro failed share" in capsys.readouterr().out
