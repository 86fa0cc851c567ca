"""Smoke test of the benchmark: every workload end to end at a tiny size.

    python3 -m pytest perfbench -q

Checks the printed result against ``BENCHMARK.json``, that work counters
repeat exactly between two traced runs of one seed, that the per-layer
self times account for the traced wall, and that a checkout without the
compiler sources makes the benchmark fail without a result.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
TINY = ["--seed", "7", "--seconds", "0.5", "--loops", "9"]


def bench(*args: str, cwd: pathlib.Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True, proc.stdout
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    return doc


@pytest.fixture(scope="module")
def traced() -> dict[str, list[dict]]:
    return {w: [result(w, 1)["metrics"], result(w, 1)["metrics"]] for w in WORKLOADS}


def test_workloads_record_why_they_were_chosen():
    from perfbench.run import WORKLOADS as CODE

    assert {w["name"]: w["why"] for w in DECLARED["workloads"]} == CODE
    assert all(why.strip() for why in CODE.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_declared_end_to_end_metric(workload):
    metrics = result(workload, 0)["metrics"]
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared
    assert all(m["value"] > 0 for m in metrics.values()), metrics


def test_traced_runs_print_only_declared_per_layer_metrics(traced):
    declared = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    for runs in traced.values():
        for metrics in runs:
            assert {name: m["unit"] for name, m in metrics.items()} == declared


def test_work_counters_repeat_exactly(traced):
    """Every metric counted in units of ``count`` is a work counter."""
    for workload, (first, second) in traced.items():
        counters = [name for name, m in first.items() if m["unit"] == "count"]
        assert "ddg.build.calls" in counters and "cache.hits" in counters
        drift = {
            name: (first[name]["value"], second[name]["value"])
            for name in counters if first[name]["value"] != second[name]["value"]
        }
        assert not drift, f"{workload}: {drift}"


def test_layer_self_times_account_for_the_traced_wall(traced):
    for workload, runs in traced.items():
        ratio = runs[0]["trace.accounted_ratio"]["value"]
        assert 0.95 <= ratio <= 1.05, (workload, ratio)


def test_layers_appear_on_the_workloads_that_exercise_them(traced):
    def value(workload, name):
        return traced[workload][0][name]["value"]

    assert value("paper-grid", "regalloc.calls") == 0
    assert value("regalloc-sample", "regalloc.calls") > 0
    assert value("served-mixed", "regalloc.calls") == 0
    for workload in ("paper-grid", "regalloc-sample"):
        served_only = [
            name for name in traced[workload][0]
            if name.startswith(("store.", "serve.")) and value(workload, name)
        ]
        assert not served_only, (workload, served_only)
    assert value("served-mixed", "store.hits") > 0
    assert value("served-mixed", "serve.cells.compiled") > 0
    assert value("served-mixed", "ddg.build.calls") > 0


def test_without_compiler_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
