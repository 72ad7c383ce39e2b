"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench -q

The end-to-end tests run the ``smoke`` workload, which takes well under a
second per sample but goes through the runner, the sample process, the
tracing wrappers, the golden check and the metric names.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.BENCHMARK_WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_golden_covers_every_invocation_and_holds_the_anchors(name):
    golden = workloads.load_golden(name)
    assert {workloads.key(i) for i in workloads.invocations(name, 0)} == set(golden)
    for key, want in golden.items():
        assert workloads.check(golden, key, want["exit"], json.dumps(want["output"])) is None


def test_every_anchor_names_a_benchmark_invocation():
    keys = {
        workloads.key(i) for name in run.BENCHMARK_WORKLOADS
        for i in workloads.invocations(name, 0)
    }
    assert set(workloads.ANCHORS) <= keys


def test_check_reports_wrong_outputs():
    golden = workloads.load_golden("homology")
    key = workloads.key(workloads._homology(3, 6, 7))
    output = golden[key]["output"]
    assert workloads.check(golden, key, 1, json.dumps(output)).startswith("exit code")
    assert workloads.check(golden, key, 0, "not json") == "output is not JSON"
    changed = json.loads(json.dumps(output))
    changed["homology"][4]["dim"] += 1
    assert workloads.check(golden, key, 0, json.dumps(changed)) == "output differs from golden"
    # A golden file that lost an anchor fact fails the anchor, not just equality.
    changed["homology"][4]["decomposition"] = []
    tampered = {key: {"exit": 0, "output": changed}}
    assert workloads.check(tampered, key, 0, json.dumps(changed)).startswith("anchor failed")


def test_seed_only_reorders_within_passes():
    for name, stages in workloads.WORKLOADS.items():
        a, b = workloads.invocations(name, 1), workloads.invocations(name, 1)
        assert a == b
        start = 0
        for stage in stages:
            assert sorted(a[start:start + len(stage)]) == sorted(stage)
            start += len(stage)
    assert workloads.invocations("grid-cores", 1) != workloads.invocations("grid-cores", 2)


def test_coverage_check_flags_wrong_predictions():
    silent = {f"{name}.calls": 0 for name in tracing.LAYER_NAMES}
    found = run.coverage_violations("smoke", silent)
    assert len(found) == len(workloads.EXERCISES["smoke"])
    noisy = {f"{name}.calls": 1 for name in tracing.LAYER_NAMES}
    found = run.coverage_violations("smoke", noisy)
    assert len(found) == len(tracing.LAYER_NAMES) - len(workloads.EXERCISES["smoke"])


def test_smoke_run_reports_every_end_to_end_metric():
    proc = _run("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    env = json.loads((HERE / "results" / "smoke-seed3-trace0.json").read_text())["environment"]
    assert env["clients"] == min(run.CLIENTS, env["nproc"])
    assert env["samples"] >= env["clients"]
    assert env["setup_readings"] == (run.SETUP_PROBES_PER_SAMPLE + 1) * env["samples"]


def test_smoke_traced_run_reports_every_layer_and_passes_coverage():
    proc = _run("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _result(proc)
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["graphs.canonical_form.calls"]["value"] > 0
    assert metrics["reptheory.induce_from_subgroup.calls"]["value"] == 0
    assert metrics["complexes.load_enumeration.hit_ratio"]["value"] == 0.5


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _run("--workload", "smoke", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
