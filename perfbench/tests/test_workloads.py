"""Each workload at a reduced size, through the driver, as the harness runs it."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run as driver

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
ZERO_ON_TABLE1 = ("autodiff.", "backend.", "engine.", "parallel.")


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perfbench-work")


def bench(work_dir, workload, trace, seed=0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--size", "smoke",
         "--work-dir", str(work_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expected_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_at_reduced_size(work_dir, workload):
    result = bench(work_dir, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == expected_units("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(work_dir, workload):
    # A different seed reorders operations; the digest recorded by the
    # untraced test must still match, or every operation counts as failed.
    result = bench(work_dir, workload, trace=1, seed=5)
    assert result["correct"] and result["failed"] == 0
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == expected_units("per_layer")
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    assert values["trace.self_coverage_pct"] >= 90.0
    zero = {n: v for n, v in values.items() if n.startswith(ZERO_ON_TABLE1)}
    if workload == "profile-table1":
        assert not any(zero.values()), zero
        assert values["rowhammer.flips_found"] > 0
    else:
        assert values["rowhammer.hammer_calls"] > 0 and values["autodiff.conv_fwd_calls"] > 0


def test_digest_mismatch_fails_the_run(tmp_path):
    assert driver.check_digest(tmp_path, "key", "aaa")
    assert driver.check_digest(tmp_path, "key", "aaa")
    assert not driver.check_digest(tmp_path, "key", "bbb")
    assert driver.check_digest(tmp_path, "other", "bbb")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
