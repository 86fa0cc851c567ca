"""Tests for slot pools and reservation tables."""

import pytest

from repro.ir.operations import Opcode, Operation, make_copy
from repro.ir.registers import RegisterFactory
from repro.ir.types import DataType
from repro.machine.machine import CopyModel
from repro.machine.presets import ideal_machine, paper_machine
from repro.sched.resources import (
    ModuloReservationTable,
    ReservationTable,
    SlotPool,
    op_resource_demand,
)


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


class TestResourceDemand:
    def test_plain_op_uses_fu(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        d = op_resource_demand(make_alu(cluster=2), m)
        assert d.fu_cluster == 2 and d.copy_cluster is None and not d.bus

    def test_embedded_copy_uses_fu(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        d = op_resource_demand(make_cp(1), m)
        assert d.fu_cluster == 1

    def test_copy_unit_copy_uses_port_and_bus(self):
        m = paper_machine(4, CopyModel.COPY_UNIT)
        d = op_resource_demand(make_cp(1), m)
        assert d.copy_cluster == 1 and d.bus and d.fu_cluster is None


class TestSlotPool:
    def test_fu_exhaustion(self):
        m = paper_machine(8, CopyModel.EMBEDDED)  # 2 FUs per cluster
        pool = SlotPool(m)
        d = op_resource_demand(make_alu(cluster=0), m)
        pool.take(d)
        pool.take(d)
        assert not pool.fits(d)
        # another cluster still free
        d1 = op_resource_demand(make_alu(cluster=1), m)
        assert pool.fits(d1)

    def test_bus_exhaustion(self):
        m = paper_machine(2, CopyModel.COPY_UNIT)  # 2 buses, 1 port/cluster
        pool = SlotPool(m)
        pool.take(op_resource_demand(make_cp(0), m))
        # port of cluster 0 now exhausted
        assert not pool.fits(op_resource_demand(make_cp(0), m))
        pool.take(op_resource_demand(make_cp(1), m))
        # both buses consumed
        assert pool.bus_free == 0

    def test_release_restores(self):
        m = paper_machine(2, CopyModel.EMBEDDED)
        pool = SlotPool(m)
        d = op_resource_demand(make_alu(cluster=0), m)
        for _ in range(8):
            pool.take(d)
        assert not pool.fits(d)
        pool.release(d)
        assert pool.fits(d)

    def test_oversubscription_raises(self):
        m = ideal_machine(width=1)
        pool = SlotPool(m)
        d = op_resource_demand(make_alu(), m)
        pool.take(d)
        with pytest.raises(ValueError):
            pool.take(d)


class TestReservationTable:
    def test_grows_on_demand(self):
        table = ReservationTable(ideal_machine(width=2))
        op = make_alu()
        table.place(op, 5)
        assert table.length == 6
        assert table.cycle_of(op) == 5

    def test_double_place_rejected(self):
        table = ReservationTable(ideal_machine(width=2))
        op = make_alu()
        table.place(op, 0)
        with pytest.raises(ValueError):
            table.place(op, 1)


class TestModuloReservationTable:
    def test_row_wraparound(self):
        m = ideal_machine(width=1)
        mrt = ModuloReservationTable(m, ii=3)
        op = make_alu()
        mrt.place(op, 7)  # row 1
        other = make_alu()
        assert not mrt.fits(other, 4)   # also row 1
        assert mrt.fits(other, 5)       # row 2

    def test_remove_returns_time(self):
        m = ideal_machine(width=1)
        mrt = ModuloReservationTable(m, ii=2)
        op = make_alu()
        mrt.place(op, 9)
        assert not mrt.fits(make_alu(), 1)
        assert mrt.remove(op) == 9
        assert mrt.fits(make_alu(), 1)
        mrt.place(op, 3)  # a removed op may be placed again

    def test_bad_ii_rejected(self):
        with pytest.raises(ValueError):
            ModuloReservationTable(ideal_machine(), ii=0)
