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
