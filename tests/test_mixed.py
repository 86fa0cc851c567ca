"""Tests for the mixed (loops + straight-line blocks) function path."""

import pytest

from repro.core.wholefn import MixedFunction, compile_function
from repro.ir.builder import LoopBuilder
from repro.ir.function import Function
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine


def build_mixed():
    """An entry block, a daxpy-like pipelined loop, an exit block that
    consumes the loop's reduction result."""
    fn = Function("driver")
    entry = LoopBuilder("entry", depth=0)
    entry.load("r1", "n", scalar=True)
    entry.shl("r2", "r1", 3)
    entry.store("r2", "bytes", scalar=True)
    fn.add_block(entry.build_block(depth=0))

    loop_b = LoopBuilder("hot", depth=1)
    loop_b.fload("f1", "x")
    loop_b.fload("f2", "y")
    loop_b.fmul("f3", "f1", "f2")
    loop_b.fadd("f4", "f4", "f3")
    loop_b.live_out("f4")
    loop = loop_b.build()

    exit_ = LoopBuilder("exit", depth=0)
    f4 = loop_b.factory.get("f4")
    exit_.fmul("f9", f4, f4)
    exit_.fstore("f9", "result", scalar=True)
    fn.add_block(exit_.build_block(depth=0))

    return MixedFunction(name="driver", function=fn, loops=[loop]), loop, f4


class TestCompileMixed:
    def test_rejects_monolithic(self):
        mixed, _loop, _f4 = build_mixed()
        with pytest.raises(ValueError):
            compile_function(mixed.function, ideal_machine(), loops=mixed.loops)

    def test_one_partition_covers_everything(self):
        mixed, loop, _f4 = build_mixed()
        m = paper_machine(4, CopyModel.EMBEDDED)
        result = compile_function(mixed.function, m, loops=mixed.loops)
        for reg in mixed.registers():
            assert reg in result.partition

    def test_loop_and_blocks_both_compiled(self):
        mixed, loop, _f4 = build_mixed()
        m = paper_machine(4, CopyModel.EMBEDDED)
        result = compile_function(mixed.function, m, loops=mixed.loops)
        assert loop.name in result.clustered_kernels
        assert set(result.clustered_blocks) == {"entry.block", "exit.block"}
        assert result.clustered_kernels[loop.name].ii >= result.ideal_kernels[loop.name].ii

    def test_loop_register_shared_with_exit_block(self):
        """The exit block reads the loop's accumulator; the shared
        partition puts the cross-reference in one consistent bank."""
        mixed, loop, f4 = build_mixed()
        m = paper_machine(2, CopyModel.EMBEDDED)
        result = compile_function(mixed.function, m, loops=mixed.loops)
        bank = result.partition.bank_of(f4)
        # the loop's fadd was pinned to f4's bank
        ploop = result.partitioned_loops[loop.name]
        fadd = next(op for op in ploop.loop.ops if op.dest is not None and op.dest.rid == f4.rid)
        assert fadd.cluster == bank

    def test_rcg_mixes_kernel_and_block_evidence(self):
        mixed, loop, f4 = build_mixed()
        m = paper_machine(2, CopyModel.EMBEDDED)
        result = compile_function(mixed.function, m, loops=mixed.loops)
        # loop registers and block registers are in one graph
        names = {r.name for r in result.rcg.nodes()}
        assert "f3" in names and "r2" in names and "f9" in names

    def test_degradation_metrics(self):
        mixed, _loop, _f4 = build_mixed()
        m = paper_machine(4, CopyModel.EMBEDDED)
        result = compile_function(mixed.function, m, loops=mixed.loops)
        assert result.loop_degradation_pct() >= 0
        # kernel dominates at trips=100; figure must be finite and sane
        w = result.weighted_degradation_pct()
        assert -5.0 <= w <= 300.0

    def test_function_without_loops(self):
        fn = Function("flat")
        b = LoopBuilder("only", depth=0)
        b.load("r1", "a", scalar=True)
        b.store("r1", "b", scalar=True)
        fn.add_block(b.build_block(depth=0))
        mixed = MixedFunction(name="flat", function=fn, loops=[])
        m = paper_machine(2, CopyModel.EMBEDDED)
        result = compile_function(mixed.function, m, loops=mixed.loops)
        assert result.loop_degradation_pct() == 0.0
        assert result.clustered_blocks


def test_duplicate_loop_names_are_rejected():
    def hot_loop():
        b = LoopBuilder("hot", depth=1)
        b.fload("f1", "x")
        b.fmul("f2", "f1", "f1")
        b.fstore("f2", "y")
        return b.build()

    mixed, _loop, _f4 = build_mixed()
    mixed.loops = [hot_loop(), hot_loop()]
    with pytest.raises(ValueError, match="duplicate loop name 'hot'"):
        compile_function(
            mixed.function, paper_machine(2, CopyModel.EMBEDDED), loops=mixed.loops
        )
