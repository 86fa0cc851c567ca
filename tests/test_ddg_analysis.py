"""Tests for RecII / ResII / MinII, heights and slack."""

import pytest

from repro.ddg.analysis import (
    critical_cycle_ratio,
    estart_lstart,
    longest_path_heights,
    min_ii,
    recurrence_ii,
    resource_ii,
    schedule_slack,
)
from repro.ddg.builder import build_loop_ddg
from repro.ddg.graph import DDG, DepKind
from repro.ir.builder import LoopBuilder
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine
from repro.sched.modulo.scheduler import modulo_schedule
from tests.golden import _reference_longest_path_heights


class TestRecurrenceII:
    def test_acyclic_is_one(self, daxpy_loop):
        assert recurrence_ii(build_loop_ddg(daxpy_loop)) == 1

    def test_accumulator_fadd(self, dot_loop):
        # self-edge: fadd latency 2 over distance 1
        assert recurrence_ii(build_loop_ddg(dot_loop)) == 2

    def test_memory_recurrence_hand_computed(self, memrec_loop):
        # cycle: store(4) -> load, load(2) -> fmul, fmul(2) -> store; dist 1
        assert recurrence_ii(build_loop_ddg(memrec_loop)) == 8

    def test_distance_two_halves_recii(self):
        b = LoopBuilder("d2")
        b.fload("f1", "x", offset=-2)
        b.fload("f2", "y")
        b.fmul("f3", "f1", "f2")
        b.fstore("f3", "x")
        ddg = build_loop_ddg(b.build())
        # same 8-cycle loop latency but distance 2 -> ceil(8/2) = 4
        assert recurrence_ii(ddg) == 4

    def test_critical_cycle_ratio_matches(self, memrec_loop):
        ddg = build_loop_ddg(memrec_loop)
        ratio = critical_cycle_ratio(ddg)
        assert ratio == pytest.approx(8.0, abs=1e-3)

    def test_critical_ratio_zero_for_acyclic(self, daxpy_loop):
        assert critical_cycle_ratio(build_loop_ddg(daxpy_loop)) == 0.0


class TestResourceII:
    def test_monolithic_width_bound(self, ideal16):
        b = LoopBuilder("wide")
        for i in range(33):
            b.fload(f"f{i}", f"a{i}")
        ddg = build_loop_ddg(b.build())
        assert resource_ii(ddg, ideal16) == 3  # ceil(33/16)

    def test_clustered_counts_per_cluster(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        b = LoopBuilder("cl")
        for i in range(8):
            b.fload(f"f{i}", f"a{i}")
        loop = b.build()
        for op in loop.ops:
            op.cluster = 0  # all pinned to one 4-wide cluster
        ddg = build_loop_ddg(loop)
        assert resource_ii(ddg, m) == 2  # ceil(8/4)

    def test_copy_unit_ports_bound(self):
        from repro.ir.operations import make_copy
        from repro.ir.block import BasicBlock, Loop
        from repro.ir.registers import RegisterFactory
        from repro.ir.types import DataType

        m = paper_machine(2, CopyModel.COPY_UNIT)  # 1 copy port per cluster
        f = RegisterFactory()
        ops = []
        live_in = set()
        for i in range(3):
            src = f.new(DataType.INT, name=f"s{i}")
            dst = f.new(DataType.INT, name=f"d{i}")
            live_in.add(src)
            cp = make_copy(dst, src, cluster=0)
            ops.append(cp)
        loop = Loop(name="copies", body=BasicBlock("b", ops), factory=f, live_in=live_in)
        ddg = build_loop_ddg(loop)
        # 3 copies into cluster 0 with 1 port -> ResII 3
        assert resource_ii(ddg, m) == 3


class TestMinII:
    def test_max_of_both(self, memrec_loop, ideal16):
        ddg = build_loop_ddg(memrec_loop)
        assert min_ii(ddg, ideal16) == 8

    def test_scheduler_achieves_min_ii_on_simple_loops(self, daxpy_loop, ideal16):
        ddg = build_loop_ddg(daxpy_loop)
        ks = modulo_schedule(daxpy_loop, ddg, ideal16)
        assert ks.ii == min_ii(ddg, ideal16)


class TestHeightsAndSlack:
    def test_heights_decrease_along_chain(self, daxpy_loop):
        ddg = build_loop_ddg(daxpy_loop)
        h = longest_path_heights(ddg, ii=0)
        # loads (feed everything) must outrank the final store
        assert h[0] > h[-1]
        assert h[-1] == 0

    def test_heights_diverge_below_recii(self, memrec_loop):
        ddg = build_loop_ddg(memrec_loop)
        with pytest.raises(ValueError, match="diverge"):
            longest_path_heights(ddg, ii=1)

    def test_slack_zero_on_critical_path(self, daxpy_loop, ideal16):
        ddg = build_loop_ddg(daxpy_loop)
        ks = modulo_schedule(daxpy_loop, ddg, ideal16)
        slack = schedule_slack(ddg, ks.times, ks.flat_length, ideal16.latencies)
        # the chain load->fmul->fadd->fstore is the critical path: zero slack
        critical = [op for op in daxpy_loop.ops if op.dest is None or op.dest.name in ("f3", "f4", "f1")]
        assert all(slack[op.op_id] == 0 for op in critical)

    def test_estart_lstart_bounds(self, daxpy_loop, ideal16):
        ddg = build_loop_ddg(daxpy_loop)
        ks = modulo_schedule(daxpy_loop, ddg, ideal16)
        estart, lstart = estart_lstart(ddg, ks.times, ks.flat_length, ideal16.latencies)
        for op in daxpy_loop.ops:
            assert estart[op.op_id] <= ks.times[op.op_id]
            assert lstart[op.op_id] >= estart[op.op_id]


class TestDistanceZeroCycleFallback:
    """A distance-0 cycle (a malformed body) has no topological order, so
    ``longest_path_heights`` sweeps in op order; it must reach the golden
    arbitrary-order fixpoint, or diverge where that does."""

    @staticmethod
    def two_op_cycle(delay: int) -> DDG:
        # the two-op cycle of tests/test_ddg_graph.py's
        # test_distance_zero_cycle_detected, with a chosen edge delay
        b = LoopBuilder("two")
        b.fload("f1", "x")
        b.fstore("f1", "y")
        loop = b.build()
        ddg = DDG(ops=list(loop.ops))
        ddg.add_row(0, 1, DepKind.MEM_ANTI, delay, 0, None)
        ddg.add_row(1, 0, DepKind.MEM_ANTI, delay, 0, None)
        return ddg

    def test_positive_cycle_diverges(self):
        ddg = self.two_op_cycle(delay=1)
        with pytest.raises(ValueError, match="heights diverge"):
            longest_path_heights(ddg)
        with pytest.raises(ValueError, match="heights diverge"):
            _reference_longest_path_heights(ddg)

    def test_zero_delay_cycle_has_zero_heights(self):
        ddg = self.two_op_cycle(delay=0)
        assert longest_path_heights(ddg) == [0] * len(ddg.ops)
        assert longest_path_heights(ddg) == _reference_longest_path_heights(ddg)
