"""Tests for the whole-function partitioning path."""

import pytest

from repro.core.wholefn import compile_function
from repro.ir.builder import LoopBuilder
from repro.ir.function import Function
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine, prior_work_machine_4wide


def two_block_function():
    """An entry block computing bases plus a hot inner block."""
    fn = Function("f")
    entry = LoopBuilder("entry", depth=0)
    entry.load("r1", "base", scalar=True)
    entry.shl("r2", "r1", 3)
    entry.store("r2", "scaled", scalar=True)
    fn.add_block(entry.build_block(depth=0))

    inner = LoopBuilder("inner", depth=2)
    inner.fload("f1", "x")
    inner.fload("f2", "y")
    inner.fmul("f3", "f1", "f2")
    inner.fadd("f4", "f3", "f3")
    inner.fstore("f4", "z")
    fn.add_block(inner.build_block(depth=2))
    return fn


class TestCompileFunction:
    def test_rejects_monolithic(self):
        with pytest.raises(ValueError):
            compile_function(two_block_function(), ideal_machine())

    def test_rejects_empty_function(self):
        with pytest.raises(ValueError):
            compile_function(Function("empty"), prior_work_machine_4wide())

    def test_all_blocks_scheduled_both_ways(self):
        fn = two_block_function()
        result = compile_function(fn, prior_work_machine_4wide())
        assert set(result.ideal_schedules) == {"entry.block", "inner.block"}
        assert set(result.clustered_schedules) == {"entry.block", "inner.block"}
        for block in fn.blocks:
            assert result.clustered_schedules[block.name].length >= 1

    def test_partition_covers_all_registers(self):
        fn = two_block_function()
        result = compile_function(fn, prior_work_machine_4wide())
        for reg in fn.registers():
            assert reg in result.partition

    def test_cluster_pins_respect_partition(self):
        fn = two_block_function()
        result = compile_function(fn, prior_work_machine_4wide())
        for block in result.clustered_blocks.values():
            for op in block.ops:
                if op.dest is not None:
                    assert op.cluster == result.partition.bank_of(op.dest)

    def test_depth_weighted_degradation(self):
        fn = two_block_function()
        result = compile_function(fn, prior_work_machine_4wide())
        assert result.degradation_pct >= 0
        # inner block dominates the weighted estimate (10^2 vs 10^0)
        w = result.weighted_cycles(result.ideal_schedules)
        assert w > 100 * result.ideal_schedules["inner.block"].length * 0.9

    def test_cross_block_value_copied_in_consumer_block(self):
        """A value defined in the entry block and consumed in the inner
        block from another bank gets its copy at the top of the consumer."""
        fn = Function("g")
        entry = LoopBuilder("entry", depth=0)
        entry.load("r1", "n", scalar=True)
        fn.add_block(entry.build_block(depth=0))
        r1 = entry.factory.get("r1")

        inner = LoopBuilder("inner", depth=1)
        # use the SAME register object from the entry block
        op = inner.emit(
            __import__("repro.ir.operations", fromlist=["Opcode"]).Opcode.ADD,
            "r9",
            (r1, 5),
        )
        fn.add_block(inner.build_block(depth=1))

        m = paper_machine(2, CopyModel.EMBEDDED)

        r9 = inner.factory.get("r9")
        result = compile_function(fn, m, precolored={r1: 0, r9: 1})
        assert result.n_copies == 1
        inner_ops = result.clustered_blocks["inner.block"].ops
        assert inner_ops[0].is_copy  # prologue copy

    def test_whole_program_degradation_band(self):
        """Sections 3/7: the authors' earlier whole-program study on a
        4-wide, 4-bank machine found roughly 10-11% degradation.  Our
        synthetic two-block function should land in a sane (0-60%) band,
        not blow up."""
        fn = two_block_function()
        result = compile_function(fn, prior_work_machine_4wide())
        assert 0 <= result.degradation_pct <= 60


class TestFunctionPathEdgeCases:
    def test_same_named_registers_copied_into_one_cluster(self):
        """Two blocks built by separate builders each define an ``r1``;
        both values need a copy into cluster 1.  The first copy keeps the
        plain ``r1.c1`` name and the second gets a distinct one."""
        fn = Function("clash")
        builders = []
        for name in ("a", "b"):
            b = LoopBuilder(name, depth=0)
            b.load("r1", f"{name}_in", scalar=True)
            b.shl("r2", "r1", 1)
            b.store("r2", f"{name}_out", scalar=True)
            fn.add_block(b.build_block(depth=0))
            builders.append(b)
        pins = {}
        for b in builders:
            pins[b.factory.get("r1")] = 0
            pins[b.factory.get("r2")] = 1
        result = compile_function(fn, paper_machine(2, CopyModel.EMBEDDED), precolored=pins)
        assert result.n_copies == 2
        copies = [
            op.dest
            for block in result.clustered_blocks.values()
            for op in block.ops
            if op.is_copy
        ]
        assert copies[0].name == "r1.c1"
        assert len({reg.name for reg in copies}) == 2
        for reg in copies:
            assert result.partition.bank_of(reg) == 1

    def test_function_with_one_empty_block(self):
        from repro.ir.block import BasicBlock

        fn = Function("empty_block")
        fn.add_block(BasicBlock(name="only", ops=[], depth=0))
        result = compile_function(fn, paper_machine(2, CopyModel.EMBEDDED))
        assert result.ideal_cycles() == 0
        assert result.degradation_pct == 0.0
