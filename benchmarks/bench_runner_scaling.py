"""Serial vs parallel evaluation-runner scaling on the spec95 corpus.

Times the full six-configuration evaluation serially and with 2 and 4
worker processes, checks the acceptance properties of the pass-manager
refactor — byte-identical tables/figures across execution strategies and
an ideal-schedule cache profile of >= 5 hits per loop — and writes a JSON
summary artifact.  A second bench checks the resume path: rerunning a
parallel store-backed run over its now-complete store reproduces it
byte-identically with zero compilations.
"""

from __future__ import annotations

import json
import time

from repro.core.pipeline import PipelineConfig
from repro.evalx.runner import PAPER_CONFIG_ORDER
from repro.evalx.export import run_to_csv
from repro.evalx.figures import compute_figure
from repro.evalx.runner import run_evaluation
from repro.evalx.table1 import compute_table1
from repro.evalx.table2 import compute_table2
from repro.store import ArtifactStore

from .conftest import write_artifact

CONFIG = PipelineConfig(run_regalloc=False)


def _rendered(run) -> str:
    """Everything presentation-grade the runner feeds: tables + figures + CSV."""
    parts = [compute_table1(run).format(), compute_table2(run).format()]
    parts.extend(compute_figure(run, n).format() for n in (2, 4, 8))
    parts.append(run_to_csv(run))
    return "\n".join(parts)


def test_runner_scaling(corpus, results_dir):
    runs = {}
    timings = {}
    for jobs in (1, 2, 4):
        t0 = time.perf_counter()
        runs[jobs] = run_evaluation(loops=corpus, config=CONFIG, jobs=jobs)
        timings[jobs] = time.perf_counter() - t0

    serial = runs[1]
    # byte-identical presentation output regardless of execution strategy
    baseline = _rendered(serial)
    for jobs in (2, 4):
        assert _rendered(runs[jobs]) == baseline, f"jobs={jobs} diverged from serial"

    # cache profile: per loop, one miss fills the entry and the other five
    # paper configurations hit — in every execution strategy
    n_loops = len(corpus)
    for jobs, run in runs.items():
        assert run.cache_misses == n_loops, (jobs, run.cache_misses)
        assert run.cache_hits >= 5 * n_loops, (jobs, run.cache_hits)

    summary = {
        "corpus_loops": n_loops,
        "configs": len(serial.per_config),
        "serial_seconds": round(timings[1], 3),
        "jobs2_seconds": round(timings[2], 3),
        "jobs4_seconds": round(timings[4], 3),
        "speedup_jobs2": round(timings[1] / timings[2], 2),
        "speedup_jobs4": round(timings[1] / timings[4], 2),
        "cache_hits_per_loop": serial.cache_hits / n_loops,
        "cache_hit_rate": round(serial.cache_hit_rate, 4),
        "pass_seconds_serial": {
            name: round(seconds, 4)
            for name, seconds in sorted(serial.pass_seconds.items())
        },
    }
    write_artifact(results_dir, "runner_scaling.json", json.dumps(summary, indent=2))


def test_warm_store_rerun(corpus, results_dir, tmp_path):
    """Store-backed run == plain run; a rerun needs zero compilations."""
    loops = corpus[:40]  # a representative slice keeps the bench quick
    n_cells = len(loops) * len(PAPER_CONFIG_ORDER)
    path = tmp_path / "store"

    t0 = time.perf_counter()
    plain = run_evaluation(loops=loops, config=CONFIG, jobs=2)
    plain_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    cold = run_evaluation(loops=loops, config=CONFIG, jobs=2,
                          store=ArtifactStore.open(path))
    cold_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    rerun = run_evaluation(loops=loops, config=CONFIG,
                           store=ArtifactStore.open(path))
    rerun_seconds = time.perf_counter() - t0

    assert _rendered(cold) == _rendered(plain)
    assert _rendered(rerun) == _rendered(plain)
    assert rerun.store_hits == n_cells
    assert rerun.store_misses == 0
    assert rerun.cache_hits == rerun.cache_misses == 0  # nothing compiled

    summary = {
        "loops": len(loops),
        "cells": n_cells,
        "plain_jobs2_seconds": round(plain_seconds, 3),
        "cold_store_jobs2_seconds": round(cold_seconds, 3),
        "store_write_overhead_pct": round(
            100.0 * (cold_seconds - plain_seconds) / plain_seconds, 1
        ),
        "warm_rerun_seconds": round(rerun_seconds, 3),
    }
    write_artifact(results_dir, "runner_store_rerun.json",
                   json.dumps(summary, indent=2))
