"""Tests for Swing modulo scheduling."""

import pytest

from repro.ddg.analysis import min_ii
from repro.ddg.builder import build_loop_ddg
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.regalloc.interference import build_interference
from repro.regalloc.liveness import cyclic_liveness
from repro.regalloc.mve import plan_mve
from repro.sched.modulo.scheduler import SchedulingError, modulo_schedule
from repro.sched.modulo.swing import swing_modulo_schedule
from repro.sched.validate import validate_kernel_schedule
from repro.sim.equivalence import check_kernel_against_reference
from repro.workloads.kernels import NAMED_KERNELS, make_kernel


def pressure_of(kernel, ddg):
    liv = cyclic_liveness(kernel, ddg)
    return build_interference(plan_mve(liv)).max_pressure


class TestSwingLegality:
    @pytest.mark.parametrize("name", sorted(NAMED_KERNELS))
    def test_legal_and_correct_on_every_kernel(self, name, ideal16):
        loop = make_kernel(name)
        ddg = build_loop_ddg(loop)
        ks = swing_modulo_schedule(loop, ddg, ideal16)
        validate_kernel_schedule(ks, ddg)
        check_kernel_against_reference(loop, ks, ddg, trip_count=5)

    def test_times_start_at_zero(self, daxpy_loop, ideal16):
        ddg = build_loop_ddg(daxpy_loop)
        ks = swing_modulo_schedule(daxpy_loop, ddg, ideal16)
        assert min(ks.times.values()) == 0

    def test_ii_never_below_min_ii(self, memrec_loop, ideal16):
        ddg = build_loop_ddg(memrec_loop)
        ks = swing_modulo_schedule(memrec_loop, ddg, ideal16)
        assert ks.ii >= min_ii(ddg, ideal16)

    def test_max_ii_respected(self, memrec_loop, ideal16):
        ddg = build_loop_ddg(memrec_loop)
        with pytest.raises(SchedulingError):
            swing_modulo_schedule(memrec_loop, ddg, ideal16, max_ii=2)

    def test_empty_loop_rejected(self, ideal16):
        from repro.ddg.graph import DDG

        with pytest.raises(ValueError):
            swing_modulo_schedule(make_kernel("daxpy"), DDG(ops=[]), ideal16)

    def test_clustered_machine_with_pinned_ops(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        loop = make_kernel("daxpy4")
        for i, op in enumerate(loop.ops):
            op.cluster = (i // 5) % 4  # each original daxpy on its own cluster
        ddg = build_loop_ddg(loop)
        ks = swing_modulo_schedule(loop, ddg, m)
        validate_kernel_schedule(ks, ddg)


class TestSwingPressure:
    def test_matches_ims_ii_on_named_kernels(self, ideal16):
        for name in sorted(NAMED_KERNELS):
            loop = make_kernel(name)
            ddg = build_loop_ddg(loop)
            ims = modulo_schedule(loop, ddg, ideal16)
            loop2 = make_kernel(name)
            ddg2 = build_loop_ddg(loop2)
            sms = swing_modulo_schedule(loop2, ddg2, ideal16)
            assert sms.ii <= ims.ii + 1, name

    def test_reduces_total_register_pressure(self, ideal16):
        """SMS's raison d'etre (Section 6.3): lifetime-sensitive placement
        lowers register requirements vs standard IMS."""
        total_ims = total_sms = 0
        for name in sorted(NAMED_KERNELS):
            loop = make_kernel(name)
            ddg = build_loop_ddg(loop)
            total_ims += pressure_of(modulo_schedule(loop, ddg, ideal16), ddg)
            loop2 = make_kernel(name)
            ddg2 = build_loop_ddg(loop2)
            total_sms += pressure_of(swing_modulo_schedule(loop2, ddg2, ideal16), ddg2)
        assert total_sms < total_ims

    def test_only_successor_ops_placed_late(self, ideal16):
        """A load whose only scheduled neighbor is its consumer lands as
        close to that consumer as latency allows — the signature of
        bidirectional placement."""
        loop = make_kernel("daxpy")
        ddg = build_loop_ddg(loop)
        ks = swing_modulo_schedule(loop, ddg, ideal16)
        f = loop.factory
        load_f2 = next(op for op in loop.ops if op.dest is not None and op.dest.name == "f2")
        fadd = next(op for op in loop.ops if op.dest is not None and op.dest.name == "f4")
        gap = ks.time_of(fadd) - ks.time_of(load_f2)
        assert gap == ideal16.latency(load_f2)  # exactly latency apart
