"""Shared fixtures for the benchmark harness.

The full 211-loop x 6-configuration evaluation runs once per session and
is shared by every table/figure bench; each bench renders its artifact to
``benchmarks/results/`` and asserts the shape properties the paper's
conclusions rest on.  Like every evaluation, it computes each loop's DDG
and ideal schedule once and reuses them across the six configurations
(the scaling bench asserts the hit profile).
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.pipeline import PipelineConfig
from repro.evalx.runner import run_evaluation
from repro.workloads.corpus import spec95_corpus

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def corpus():
    return spec95_corpus()


@pytest.fixture(scope="session")
def corpus_run(corpus):
    """The full paper evaluation (Tables 1-2, Figures 5-7 inputs)."""
    return run_evaluation(loops=corpus, config=PipelineConfig(run_regalloc=False))


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_artifact(results_dir: pathlib.Path, name: str, text: str) -> None:
    path = results_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    # also surface in the pytest -s stream for tee'd logs
    print(f"\n===== {name} =====\n{text}\n")
