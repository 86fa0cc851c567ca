"""A copy-unit cell reuses its embedded sibling's step-4 artifacts.

The greedy partition, the copy-inserted loop and its derived DDG do not
depend on the copy model (paper Sections 5 and 6.1), so the
:class:`~repro.core.cache.ArtifactCache` hands them from one cell of a
cluster count to the other (:class:`~repro.core.cache.StepFourShare`).
These tests pin the contract:

* sharing changes no result: loop-major compiles through one cache equal
  fresh-cache compiles of every cell, with and without register
  allocation;
* the work really halves loop-major (a chunk or the serial grid) and is
  unchanged configuration-major;
* the cache holds at most one share, for the loop it last served;
* a reused cell records the same spans and metrics as a built one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import passes
from repro.core.cache import ArtifactCache
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.evalx.runner import (
    PAPER_CONFIG_ORDER,
    ChunkPayload,
    compile_chunk,
    run_evaluation,
)
from repro.ir.printer import format_loop
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.obs import Tracer
from repro.workloads.corpus import spec95_corpus

MACHINES = [paper_machine(n, model) for n, model in PAPER_CONFIG_ORDER]
QUICK = spec95_corpus(n=40)


def _kernel_times(result) -> list[int]:
    return [result.kernel.times[op.op_id] for op in result.partitioned.loop.ops]


@pytest.mark.parametrize("regalloc", [False, True], ids=["no-regalloc", "regalloc"])
def test_loop_major_cells_equal_fresh_cache_cells(regalloc):
    config = PipelineConfig(run_regalloc=regalloc)
    cache = ArtifactCache()
    for loop in QUICK:
        for machine in MACHINES:
            shared = compile_loop(loop, machine, config, cache=cache)
            alone = compile_loop(loop, machine, config, cache=ArtifactCache())
            where = (loop.name, machine.name)
            assert shared.metrics == alone.metrics, where
            assert format_loop(shared.partitioned.loop) == format_loop(
                alone.partitioned.loop
            ), where
            assert _kernel_times(shared) == _kernel_times(alone), where


@pytest.fixture
def step_four_calls(monkeypatch):
    """Calls of the three shared computations, by name."""
    calls = {"greedy": 0, "copies": 0, "derive": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(passes, "greedy_partition",
                        counted("greedy", passes.greedy_partition))
    monkeypatch.setattr(passes, "insert_copies",
                        counted("copies", passes.insert_copies))
    monkeypatch.setattr(passes, "derive_partitioned_ddg",
                        counted("derive", passes.derive_partitioned_ddg))
    return calls


def _work(loops) -> list:
    return [(i, loop, n, model.value)
            for i, loop in enumerate(loops) for n, model in PAPER_CONFIG_ORDER]


def test_loop_major_chunk_runs_step_four_three_times_per_loop(step_four_calls):
    loops = QUICK[:10]
    result = compile_chunk(ChunkPayload(cells=_work(loops),
                                        config=PipelineConfig(run_regalloc=False)))
    assert all(cell.ok for cell in result.cells)
    assert step_four_calls == {name: 3 * len(loops) for name in step_four_calls}


def test_serial_grid_runs_step_four_three_times_per_loop(step_four_calls):
    loops = QUICK[:10]
    run = run_evaluation(loops=loops, config=PipelineConfig(run_regalloc=False))
    assert not run.failures
    assert step_four_calls == {name: 3 * len(loops) for name in step_four_calls}


def test_configuration_major_grid_runs_step_four_six_times_per_loop(step_four_calls):
    """Cells of one configuration for every loop, then the next: each
    lookup of another loop replaces the entry, and its share with it."""
    loops = QUICK[:10]
    config = PipelineConfig(run_regalloc=False)
    cache = ArtifactCache()
    for machine in MACHINES:
        for loop in loops:
            compile_loop(loop, machine, config, cache=cache)
    assert step_four_calls == {name: 6 * len(loops) for name in step_four_calls}


def test_only_greedy_shares(step_four_calls):
    loops = QUICK[:4]
    config = PipelineConfig(partitioner="iterative", run_regalloc=False)
    result = compile_chunk(ChunkPayload(cells=_work(loops), config=config))
    assert all(cell.ok for cell in result.cells)
    assert step_four_calls["derive"] == 6 * len(loops)


def test_cache_holds_one_share_for_the_loop_last_served():
    config = PipelineConfig(run_regalloc=False)
    first, second = QUICK[0], QUICK[1]
    cache = ArtifactCache()
    compile_loop(first, MACHINES[0], config, cache=cache)
    held = cache._entry.share
    assert held is not None and held.loop is first
    assert held.partitioned is not None and held.partitioned_ddg is not None

    compile_loop(second, MACHINES[2], config, cache=cache)
    assert cache._entry.share is not None and cache._entry.share.loop is second

    # a cell of another partitioner builds no share, but still drops the
    # held one: it belongs to a loop the cache no longer serves
    compile_loop(first, MACHINES[4], dataclasses.replace(config, partitioner="bug"),
                 cache=cache)
    assert cache._entry.loop is first and cache._entry.share is None


def test_sibling_takes_the_share_and_the_cache_lets_go():
    config = PipelineConfig(run_regalloc=False)
    loop = QUICK[2]
    cache = ArtifactCache()
    embedded = compile_loop(loop, paper_machine(4, CopyModel.EMBEDDED), config,
                            cache=cache)
    copy_unit = compile_loop(loop, paper_machine(4, CopyModel.COPY_UNIT), config,
                             cache=cache)
    assert copy_unit.partitioned is embedded.partitioned
    assert copy_unit.partitioned_ddg is embedded.partitioned_ddg
    assert copy_unit.partition is embedded.partition
    assert cache._entry.loop is loop and cache._entry.share is None


def test_share_is_keyed_by_cluster_count_and_heuristic():
    config = PipelineConfig(run_regalloc=False)
    loop = QUICK[2]
    cache = ArtifactCache()
    four = compile_loop(loop, paper_machine(4, CopyModel.EMBEDDED), config,
                        cache=cache)
    eight = compile_loop(loop, paper_machine(8, CopyModel.COPY_UNIT), config,
                         cache=cache)
    assert eight.partitioned is not four.partitioned
    assert eight.metrics == compile_loop(
        loop, paper_machine(8, CopyModel.COPY_UNIT), config).metrics

    other = dataclasses.replace(config, heuristic=dataclasses.replace(
        config.heuristic, antiaffinity_scale=1.0))
    machine = paper_machine(8, CopyModel.EMBEDDED)
    reweighted = compile_loop(loop, machine, other, cache=cache)
    assert reweighted.partitioned is not eight.partitioned
    assert reweighted.metrics == compile_loop(loop, machine, other).metrics


def _traced_cells(cells, config) -> tuple[list, dict]:
    """Spans by identity and metric snapshots of a loop-major chunk."""
    result = compile_chunk(ChunkPayload(cells=cells, config=config,
                                        trace=True, metrics=True))
    assert all(cell.ok for cell in result.cells)
    return sorted(s.identity() for s in result.spans), dict(result.snapshots)


@pytest.mark.parametrize("regalloc", [False, True], ids=["no-regalloc", "regalloc"])
def test_shared_cells_trace_and_measure_like_built_cells(regalloc, monkeypatch):
    """A chunk (every copy-unit cell reuses) against a serial grid whose
    cache never hands a share over (every cell builds): the same span
    identities, span arguments and per-cell metric snapshots."""
    loops = QUICK[:12]
    config = PipelineConfig(run_regalloc=regalloc)
    spans, snapshots = _traced_cells(_work(loops), config)

    monkeypatch.setattr(ArtifactCache, "take_share", lambda self, key, loop: None)
    tracer = Tracer()
    run = run_evaluation(loops=loops, config=config, tracer=tracer,
                         collect_metrics=True)
    assert not run.failures
    assert spans == sorted(s.identity() for s in tracer.spans)
    assert snapshots == run.cell_metrics
    names = {identity[3] for identity in spans}
    assert {"greedy_partition", "insert_copies", "ddg_derive"} <= names
