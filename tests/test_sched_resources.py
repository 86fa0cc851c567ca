"""Tests for the packed resource model: demand words, and the occupancy
words and bias/guard fit test every scheduler and validator runs on them."""

import pytest

from repro.ddg.graph import DDG
from repro.ir.operations import Opcode, Operation, make_copy
from repro.ir.registers import RegisterFactory
from repro.ir.types import DataType
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine
from repro.sched.resources import demand_words, resource_geometry
from repro.sched.schedule import KernelSchedule, LinearSchedule
from repro.sched.validate import ScheduleValidationError, validate_linear_schedule


def make_alu(cluster=None):
    f = RegisterFactory()
    a = f.new(DataType.INT)
    b = f.new(DataType.INT)
    op = Operation(opcode=Opcode.ADD, dest=a, sources=(b, b))
    op.cluster = cluster
    return op


def make_cp(cluster, dtype=DataType.INT):
    f = RegisterFactory()
    src = f.new(dtype)
    dst = f.new(dtype)
    return make_copy(dst, src, cluster=cluster)


def word(op, machine):
    return demand_words([op], machine)[0]


def fits(occ, op, machine):
    """The fit test: no pool's guard bit sets when ``op`` joins ``occ``."""
    geom = resource_geometry(machine)
    return not ((occ + word(op, machine) + geom.bias) & geom.guard)


def pools(machine, op):
    """The pools (``fu``/``copy``/``bus``, cluster) ``op``'s word takes:
    fields are ``[fu_0..fu_{C-1}, copy_0..copy_{C-1}, bus]``, 8 bits each."""
    c = machine.n_clusters
    names = [("fu", i) for i in range(c)] + [("copy", i) for i in range(c)] + [("bus", None)]
    w = word(op, machine)
    return [names[p] for p in range(2 * c + 1) if (w >> (8 * p)) & 0xFF]


class TestResourceDemand:
    def test_plain_op_uses_fu(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        assert pools(m, make_alu(cluster=2)) == [("fu", 2)]

    def test_embedded_copy_uses_fu(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        assert pools(m, make_cp(1)) == [("fu", 1)]

    def test_copy_unit_copy_uses_port_and_bus(self):
        m = paper_machine(4, CopyModel.COPY_UNIT)
        assert pools(m, make_cp(1)) == [("copy", 1), ("bus", None)]

    def test_unclustered_op_uses_cluster_zero(self):
        m = ideal_machine()
        assert pools(m, make_alu()) == [("fu", 0)]

    def test_out_of_range_cluster_raises(self):
        with pytest.raises(ValueError, match="cluster 4 out of range"):
            word(make_alu(cluster=4), paper_machine(4, CopyModel.EMBEDDED))
        with pytest.raises(IndexError, match="out of range for 1-pool"):
            word(make_alu(cluster=1), ideal_machine())


class TestSlotPool:
    """One cycle's occupancy word: a counter field per pool."""

    def test_fu_exhaustion(self):
        m = paper_machine(8, CopyModel.EMBEDDED)  # 2 FUs per cluster
        op = make_alu(cluster=0)
        occ = 2 * word(op, m)
        assert not fits(occ, op, m)
        # another cluster still free
        assert fits(occ, make_alu(cluster=1), m)

    def test_bus_exhaustion(self):
        m = paper_machine(2, CopyModel.COPY_UNIT)  # 2 buses, 1 port/cluster
        occ = word(make_cp(0), m)
        # port of cluster 0 now exhausted, cluster 1's still free
        assert not fits(occ, make_cp(0), m)
        assert fits(occ, make_cp(1), m)
        m = paper_machine(4, CopyModel.COPY_UNIT, n_buses=2)  # 2 ports/cluster
        occ = word(make_cp(0), m) + word(make_cp(1), m)
        # both buses consumed: cluster 2's free port does not help
        assert not fits(occ, make_cp(2), m)
        assert fits(occ, make_alu(cluster=2), m)

    def test_release_restores(self):
        m = paper_machine(2, CopyModel.EMBEDDED)
        op = make_alu(cluster=0)
        occ = 8 * word(op, m)
        assert not fits(occ, op, m)
        occ -= word(op, m)
        assert fits(occ, op, m)

    def test_oversubscription_raises(self):
        # the linear validator charges each cycle's occupancy word
        m = ideal_machine(width=1)
        a, b = make_alu(), make_alu()
        legal = LinearSchedule(machine=m, ops=[a, b], times={a.op_id: 0, b.op_id: 1})
        validate_linear_schedule(legal, DDG(ops=legal.ops))
        bad = LinearSchedule(machine=m, ops=[a, b], times={a.op_id: 0, b.op_id: 0})
        with pytest.raises(ScheduleValidationError, match="over-subscription at cycle 0"):
            validate_linear_schedule(bad, DDG(ops=bad.ops))


class TestReservationTable:
    def test_grows_on_demand(self):
        # one occupancy row per cycle, as many as the last issue needs
        m = ideal_machine(width=1)
        a, b = make_alu(), make_alu()
        sched = LinearSchedule(machine=m, ops=[a, b], times={a.op_id: 5, b.op_id: 2})
        validate_linear_schedule(sched, DDG(ops=sched.ops))


class TestModuloReservationTable:
    """A kernel's occupancy list: one word per row ``t % II``."""

    def test_row_wraparound(self):
        m = ideal_machine(width=1)
        op = make_alu()
        occ = [0] * 3
        occ[7 % 3] += word(op, m)  # row 1
        other = make_alu()
        assert not fits(occ[4 % 3], other, m)   # also row 1
        assert fits(occ[5 % 3], other, m)       # row 2

    def test_bad_ii_rejected(self):
        from repro.ir.block import BasicBlock, Loop

        op = make_alu()
        loop = Loop(name="one", body=BasicBlock("b", [op]))
        with pytest.raises(ValueError, match="II must be positive"):
            KernelSchedule(machine=ideal_machine(), loop=loop, ii=0, times={op.op_id: 0})
