"""Targeted tests for corners the main suites leave uncovered."""


import pytest

from repro.ir.builder import LoopBuilder
from repro.ir.parser import parse_loop
from repro.ir.printer import format_loop
from repro.ir.types import MemRef
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.sim.reference import run_reference
from repro.sim.values import evaluate, seed_memory


class TestStridedMemRefs:
    def test_str_and_parse_round_trip(self):
        b = LoopBuilder("strided")
        b.fload("f1", "a", offset=1, stride=2)
        b.fstore("f1", "b", offset=0, stride=2)
        loop = b.build()
        text = format_loop(loop)
        assert "a[2i+1]" in text
        reparsed = parse_loop(text)
        assert reparsed.ops[0].mem == MemRef("a", 1, False, 2)

    def test_stride_distance_algebra(self):
        # store a[2i]; load a[2i-4]: same address 2 iterations later
        assert MemRef("a", 0, stride=2).same_location_distance(
            MemRef("a", -4, stride=2)
        ) == 2
        # offset not divisible by stride: never aliases
        assert MemRef("a", 0, stride=2).same_location_distance(
            MemRef("a", -3, stride=2)
        ) is None

    def test_mixed_strides_rejected(self):
        with pytest.raises(ValueError, match="mixed strides"):
            MemRef("a", 0, stride=2).same_location_distance(MemRef("a", 0, stride=3))

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            MemRef("a", 0, stride=0)

    def test_address_computation(self):
        assert MemRef("a", 3, stride=4).address(2) == 11
        assert MemRef("s", scalar=True).address(7) == 0

    def test_strided_dependence_distance_in_ddg(self):
        from repro.ddg.builder import build_loop_ddg

        b = LoopBuilder("sr")
        b.fload("f1", "x", offset=-2, stride=2)
        b.fstore("f1", "x", stride=2)
        loop = b.build()
        ddg = build_loop_ddg(loop)
        carried = [dist for dist in ddg.index().dist if dist > 0]
        assert carried and carried[0] == 1


class TestOpcodesSemantics:
    def test_bitwise_and_shift_ops(self):
        b = LoopBuilder("bits")
        b.load("r1", "v")
        b.or_("r2", "r1", 5)
        b.xor("r3", "r2", 3)
        b.shr("r4", "r3", 1)
        b.store("r4", "o")
        state = run_reference(b.build(), trip_count=1)
        v = seed_memory("v", 0, as_float=False)
        assert state.memory[("o", 0)] == (((v | 5) ^ 3) >> 1)

    def test_movi_fneg_fmov(self):
        b = LoopBuilder("moves")
        b.movi("r1", 42)
        b.store("r1", "io")
        b.fload("f1", "x")
        b.fneg("f2", "f1")
        b.fmov("f3", "f2")
        b.fstore("f3", "fo")
        state = run_reference(b.build(), trip_count=1)
        assert state.memory[("io", 0)] == 42
        assert state.memory[("fo", 0)] == -state.memory[("x", 0)]

    def test_conversions(self):
        b = LoopBuilder("cvt")
        b.load("r1", "v")
        b.cvtif("f1", "r1")
        b.fmul("f2", "f1", 2.0)
        b.cvtfi("r2", "f2")
        b.store("r2", "o")
        state = run_reference(b.build(), trip_count=1)
        v = seed_memory("v", 0, as_float=False)
        assert state.memory[("o", 0)] == int(float(v) * 2.0)

    def test_evaluate_rejects_memory_ops(self):
        from repro.ir.operations import Opcode, Operation
        from repro.ir.registers import RegisterFactory
        from repro.ir.types import DataType

        f = RegisterFactory()
        op = Operation(
            opcode=Opcode.LOAD, dest=f.new(DataType.INT), mem=MemRef("a")
        )
        with pytest.raises(ValueError):
            evaluate(op, [])

    def test_fdiv_by_zero_guarded(self):
        b = LoopBuilder("fz")
        b.fload("f1", "x")
        b.fsub("f2", "f1", "f1")
        b.fdiv("f3", "f1", "f2")
        b.fstore("f3", "o")
        state = run_reference(b.build(), trip_count=1)
        assert state.memory[("o", 0)] == 0.0


class TestRunnerFailureRecording:
    def test_failures_are_recorded_not_raised(self, monkeypatch):
        from repro.core import pipeline as pipeline_mod
        from repro.evalx.runner import run_evaluation
        from repro.workloads.corpus import spec95_corpus

        loops = spec95_corpus(n=4)
        real = pipeline_mod.compile_loop
        calls = {"n": 0}

        def flaky(loop, machine, config, cache=None, **obs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected failure")
            return real(loop, machine, config, cache=cache, **obs)

        monkeypatch.setattr("repro.evalx.runner.compile_loop", flaky)
        run = run_evaluation(loops=loops, configs=((2, CopyModel.EMBEDDED),))
        assert len(run.failures) == 1
        assert "injected failure" in run.failures[0].error
        (label,) = run.per_config
        assert len(run.per_config[label]) == 3


class TestWholeFunctionOnCopyUnit:
    def test_copy_unit_machine(self):
        from repro.core.wholefn import compile_function
        from repro.workloads.functions import SyntheticFunctionGenerator

        fn = SyntheticFunctionGenerator(9).generate("cu_fn")
        m = paper_machine(4, CopyModel.COPY_UNIT)
        result = compile_function(fn, m)
        assert result.degradation_pct >= 0
        # copy-unit copies must not occupy FU slots in the block schedules:
        # re-validate resources through the shared checker
        from repro.ddg.builder import build_block_ddg
        from repro.sched.validate import validate_linear_schedule

        for name, block in result.clustered_blocks.items():
            ddg = build_block_ddg(block, m.latencies)
            validate_linear_schedule(result.clustered_schedules[name], ddg)


class TestUASOnCopyUnit:
    def test_uas_partition_on_copy_unit_machine(self):
        from repro.core.pipeline import PipelineConfig, compile_loop
        from repro.workloads.kernels import make_kernel

        m = paper_machine(2, CopyModel.COPY_UNIT)
        result = compile_loop(
            make_kernel("fir5"), m,
            PipelineConfig(partitioner="uas", run_regalloc=False),
        )
        assert result.metrics.partitioned_ii >= result.metrics.ideal_ii


class TestGreedyEdgeCases:
    def test_empty_rcg(self):
        from repro.core.greedy import greedy_partition
        from repro.core.rcg import RegisterComponentGraph

        part = greedy_partition(RegisterComponentGraph().freeze(), 4)
        assert len(part) == 0
        assert part.bank_sizes() == [0, 0, 0, 0]

    def test_machine_state_live_out_values(self, dot_loop):
        state = run_reference(dot_loop, trip_count=3)
        values = state.live_out_values(dot_loop)
        assert set(values) == {"f4"}
        assert isinstance(values["f4"], float)
