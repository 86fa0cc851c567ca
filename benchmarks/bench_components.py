"""Micro-benchmarks of the pipeline's stages.

Throughput numbers for each compiler phase on a representative loop, so
performance regressions in any stage are visible independently of the
table/figure benches.
"""

import pytest

from repro.core.copies import insert_copies
from repro.core.greedy import greedy_partition
from repro.core.weights import build_rcg_from_kernel
from repro.ddg.analysis import min_ii, recurrence_ii
from repro.ddg.builder import build_loop_ddg
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine
from repro.regalloc.assignment import assign_banks
from repro.sched.modulo.scheduler import modulo_schedule
from repro.workloads.kernels import make_kernel
from repro.workloads.synthetic import PROFILES, SyntheticLoopGenerator


@pytest.fixture(scope="module")
def big_loop():
    return SyntheticLoopGenerator(11).generate("bench_big", PROFILES["parallel"])


@pytest.fixture(scope="module")
def machine4():
    return paper_machine(4, CopyModel.EMBEDDED)


def test_bench_ddg_build(benchmark, big_loop):
    ddg = benchmark(build_loop_ddg, big_loop)
    assert len(ddg) == len(big_loop.ops)


def test_bench_recurrence_ii(benchmark):
    loop = make_kernel("lfk5_tridiag")
    ddg = build_loop_ddg(loop)
    assert benchmark(recurrence_ii, ddg) == 10


def test_bench_modulo_schedule_ideal(benchmark, big_loop):
    m = ideal_machine()
    ddg = build_loop_ddg(big_loop)
    ks = benchmark(modulo_schedule, big_loop, ddg, m)
    assert ks.ii >= min_ii(ddg, m)


def test_bench_rcg_build(benchmark, big_loop):
    m = ideal_machine()
    ddg = build_loop_ddg(big_loop)
    ks = modulo_schedule(big_loop, ddg, m)
    rcg = benchmark(build_rcg_from_kernel, ks, ddg)
    assert rcg.n_edges > 0


def test_bench_greedy_partition(benchmark, big_loop):
    m = ideal_machine()
    ddg = build_loop_ddg(big_loop)
    ks = modulo_schedule(big_loop, ddg, m)
    rcg = build_rcg_from_kernel(ks, ddg).freeze()
    part = benchmark(greedy_partition, rcg, 4)
    assert len(part) == len(rcg)


def test_bench_copy_insertion(benchmark, big_loop, machine4):
    m = ideal_machine()
    ddg = build_loop_ddg(big_loop)
    ks = modulo_schedule(big_loop, ddg, m)
    rcg = build_rcg_from_kernel(ks, ddg).freeze()
    part = greedy_partition(rcg, 4)
    ploop = benchmark(insert_copies, big_loop, part, machine4)
    assert len(ploop.loop.ops) >= len(big_loop.ops)


def test_bench_register_assignment(benchmark, big_loop, machine4):
    from repro.core.pipeline import PipelineConfig, compile_loop

    result = compile_loop(big_loop, machine4, PipelineConfig(run_regalloc=False))
    out = benchmark(
        assign_banks,
        result.kernel,
        result.partitioned_ddg,
        result.partitioned.partition,
        machine4,
    )
    assert out.success


def test_bench_full_pipeline_one_loop(benchmark, big_loop, machine4):
    from repro.core.pipeline import PipelineConfig, compile_loop

    result = benchmark(
        compile_loop, big_loop, machine4, PipelineConfig(run_regalloc=False)
    )
    assert result.metrics.partitioned_ii >= 1
