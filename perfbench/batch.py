"""The two batch workloads: serial ``run_evaluation`` over a grid of cells.

``paper-grid`` is ``repro evaluate``: every corpus loop under the six
paper configurations, no register allocation, a fresh ArtifactCache per
pass.  ``regalloc-sample`` is a seeded draw of corpus loops under the
same six configurations with register allocation on (the ``repro
compile`` default and the paper's step 5).

A run repeats identical passes over its grid until ``--seconds`` have
elapsed.  Untraced passes time each ``compile_loop`` call and nothing
else; a traced run alternates untraced and traced passes so the tracing
overhead is measured on adjacent, identical work.
"""

from __future__ import annotations

import random
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from perfbench.common import (
    Expectations,
    calibration_seconds,
    corpus,
    oracle_sample,
    percentile,
    setup_probe_seconds,
    SpeedTracker,
)
from perfbench.ledger import LAYERS, CellTimer, Ledger, instrument

#: loops drawn by regalloc-sample: one per size stratum of the corpus
REGALLOC_DRAW = 105
#: the draw leaves out larger loops, about a tenth of a corpus: register
#: assignment fails on the 2-cluster embedded machine for one random loop
#: of 47-60 operations on corpus seeds 17, 19, 46, 84 and 103 (spilling
#: does not converge, even with more rounds), and a benchmark workload
#: must not fail; no loop of at most 46 operations failed on seeds 1-99
REGALLOC_MAX_OPS = 46


def all_loops(loops: list, _seed: int) -> list:
    return loops


def stratified_draw(loops: list, seed: int, k: int = REGALLOC_DRAW) -> list:
    """One loop from each of ``k`` equal strata of the corpus loops of up
    to :data:`REGALLOC_MAX_OPS` operations sorted by size: a seeded draw
    whose total work varies little between seeds."""
    by_size = sorted(
        (loop for loop in loops if len(loop.ops) <= REGALLOC_MAX_OPS),
        key=lambda loop: (len(loop.ops), loop.name),
    )
    k = min(k, len(by_size))
    rng = random.Random(f"regalloc-sample:{seed}")
    picked = {
        id(by_size[rng.randrange(s * len(by_size) // k, (s + 1) * len(by_size) // k)])
        for s in range(k)
    }
    return [loop for loop in loops if id(loop) in picked]


@dataclass(frozen=True)
class BatchWorkload:
    #: PipelineConfig settings, and the frozen-expectation table they match
    settings: dict
    expectations: str
    pick: Callable[[list, int], list]
    #: what the set-up probe imports beyond the runner and the corpus
    setup_statement: str


BATCH_WORKLOADS = {
    "paper-grid": BatchWorkload(
        {"run_regalloc": False}, "no_regalloc", all_loops, "pass"),
    "regalloc-sample": BatchWorkload(
        {"run_regalloc": True},
        "regalloc", stratified_draw, "import repro.regalloc.assignment"),
}


@dataclass
class Pass:
    """One evaluation of the whole grid."""

    run: object            # EvalRun
    wall: float            # without the speed probes taken inside the pass
    segments: list[int]    # speed segment of each cell (or of the pass)
    cell_seconds: list[float] | None = None   # untraced passes
    ledger: Ledger | None = None              # traced passes
    #: scale to the reference host: the cell-time-weighted mean of the
    #: cells' speed factors, or the factor around a traced pass
    factor: float = 1.0
    cell_factors: list[float] | None = None

    def rescale(self, speed: SpeedTracker) -> None:
        if self.cell_seconds is None:
            self.factor = speed.factor(self.segments[0])
            return
        self.cell_factors = [speed.factor(k) for k in self.segments]
        scaled = sum(s * f for s, f in zip(self.cell_seconds, self.cell_factors))
        self.factor = scaled / sum(self.cell_seconds)


def _untraced_pass(loops, config, speed: SpeedTracker) -> Pass:
    from repro.core.cache import ArtifactCache
    from repro.evalx.runner import run_evaluation

    timer = CellTimer(speed)
    probed = speed.probe_seconds
    with timer.installed():
        t0 = time.perf_counter()
        run = run_evaluation(loops=loops, config=config, cache=ArtifactCache())
        wall = time.perf_counter() - t0
    wall -= speed.probe_seconds - probed
    return Pass(run, wall, timer.segments, cell_seconds=timer.seconds)


def _traced_pass(loops, config, speed: SpeedTracker) -> Pass:
    """No probes inside: they would land in the runner's self time."""
    from repro.core.cache import ArtifactCache
    from repro.evalx.runner import run_evaluation

    segment = speed.segment
    ledger = Ledger()
    with instrument(ledger):
        evaluate = ledger.span("runner", run_evaluation)
        t0 = time.perf_counter()
        run = evaluate(loops=loops, config=config, cache=ArtifactCache())
        wall = time.perf_counter() - t0
    ledger.root_wall_s = wall
    speed.between_units(force=True)
    return Pass(run, wall, [segment], ledger=ledger)


def run_batch(workload: BatchWorkload, seed: int, seconds: float, trace: bool,
              cap: int | None, tmp) -> dict:
    from repro.core.cache import ArtifactCache
    from repro.core.pipeline import PipelineConfig
    from repro.evalx.runner import run_evaluation

    record: dict = {"calibration_before_s": calibration_seconds()}
    setup_s = None if trace else setup_probe_seconds(
        seed, workload.setup_statement, tmp)
    loops = workload.pick(corpus(seed, cap), seed)
    config = PipelineConfig(**workload.settings)
    # lazy imports and first-call work happen here, outside the timing
    run_evaluation(loops=loops[:2], config=config, cache=ArtifactCache())

    passes: list[Pass] = []
    speed = SpeedTracker()
    t_start = time.perf_counter()
    while True:
        passes.append(_untraced_pass(loops, config, speed))
        if trace:
            speed.between_units(force=True)
            passes.append(_traced_pass(loops, config, speed))
        if time.perf_counter() - t_start >= seconds:
            break
    speed.between_units(force=True)
    for p in passes:
        p.rescale(speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["calibration_after_s"] = calibration_seconds()
    record["pass_walls_s"] = [p.wall for p in passes]
    record["speed_factors"] = [p.factor for p in passes]

    check = _check(workload, config, passes, loops, seed)
    record.update(check)
    if trace:
        metrics, record["counter_drift"] = _layer_metrics(passes)
    else:
        metrics = _end_to_end(passes, loops, setup_s, peak_rss_mb, check)
    correct = check["wrong"] == 0 and not record.get("counter_drift")
    return {
        "record": record,
        "correct": correct,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": metrics,
    }


def _check(workload: BatchWorkload, config, passes: list[Pass], loops: list,
           seed: int) -> dict:
    """Every pass must match the frozen expectations (default seed) and
    the first pass; a seeded sample goes through the oracles."""
    expected = Expectations(seed, workload.expectations)
    first = passes[0].run
    reference = {
        (m.loop_name, label): m
        for label, cells in first.per_config.items() for m in cells
    }
    attempted = failed = 0
    wrong: set[tuple[int, str, str]] = set()
    for n, p in enumerate(passes):
        failed += len(p.run.failures)
        for label, cells in p.run.per_config.items():
            for m in cells:
                key = (m.loop_name, label)
                if reference.get(key) != m or expected.wrong(*key, m):
                    wrong.add((n, *key))
        attempted += len(p.run.failures) + sum(map(len, p.run.per_config.values()))
    by_name = {loop.name: loop for loop in loops}
    sample, bad = oracle_sample(
        {
            key: (by_name[key[0]], first.machines[key[1]], m)
            for key, m in reference.items()
        },
        config, seed,
    )
    for key in bad:
        wrong.update((n, *key) for n in range(len(passes)))
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": len(wrong),
        "oracle_sample": [list(key) for key in sample],
        "frozen_expectations": expected.table is not None,
    }


def _end_to_end(passes, loops, setup_s, peak_rss_mb, check) -> dict:
    n_loops = len(loops)
    scaled = [
        [s * 1e3 * f for s, f in zip(p.cell_seconds, p.cell_factors)]
        for p in passes
    ]
    cell_ms = [ms for cells in scaled for ms in cells]
    # a "request" is one loop under all six configurations; the runner
    # goes configuration-major, so loop i's cells are i, i + n, i + 2n...
    request_ms = [sum(cells[i::n_loops]) for cells in scaled for i in range(n_loops)]
    first = [m for cells in passes[0].run.per_config.values() for m in cells]
    attempted = check["attempted"]
    return {
        "setup_s": setup_s,
        "cells_per_s": statistics.median(
            len(p.cell_seconds) / (p.wall * p.factor) for p in passes),
        "cell_ms_p50": percentile(cell_ms, 50),
        "cell_ms_p95": percentile(cell_ms, 95),
        "request_ms_p50": percentile(request_ms, 50),
        "request_ms_p95": percentile(request_ms, 95),
        "cells_ok_frac": (attempted - check["failed"]) / attempted,
        "cells_correct_frac": (attempted - check["wrong"]) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "kernel_ipc_mean": statistics.fmean(m.partitioned_ipc for m in first),
        "body_copies_per_cell": statistics.fmean(m.n_body_copies for m in first),
    }


def _layer_metrics(passes) -> tuple[dict, list[str]]:
    """Per-layer numbers, and the counters that differ between traced
    passes (identical work, so there must be none)."""
    untraced = [p for p in passes if p.ledger is None]
    traced = [p for p in passes if p.ledger is not None]
    counts = traced[0].ledger.counts
    drift = [
        name for p in traced[1:] for name in set(counts) | set(p.ledger.counts)
        if p.ledger.counts.get(name) != counts.get(name)
    ]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = statistics.median(
            p.ledger.self_s[layer] * p.factor for p in traced)
    out.update(counts)
    # adjacent untraced/traced pairs, as measured: the two kinds of pass
    # are scaled at different granularity, which would bias the ratio
    out["trace.overhead_ratio"] = statistics.median(
        t.wall / u.wall for u, t in zip(untraced, traced))
    out["trace.accounted_ratio"] = statistics.median(
        sum(p.ledger.self_s.values()) / p.ledger.root_wall_s for p in traced)
    return out, sorted(set(drift))
