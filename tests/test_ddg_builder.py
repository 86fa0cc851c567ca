"""Tests for DDG construction: register flow, memory dependences, distances."""


from repro.ddg.builder import build_block_ddg, build_loop_ddg
from repro.ddg.graph import DepKind
from repro.ir.builder import LoopBuilder
from tests.golden import dependences


def edges_of(ddg, kind=None):
    return [e for e in dependences(ddg).edges if kind is None or e.kind is kind]


class TestRegisterFlow:
    def test_same_iteration_flow(self, daxpy_loop):
        ddg = build_loop_ddg(daxpy_loop)
        flows = edges_of(ddg, DepKind.FLOW)
        # f1->f3, f2->f4, f3->f4, f4->store
        assert len(flows) == 4
        assert all(e.distance == 0 for e in flows)

    def test_flow_delay_is_source_latency(self, daxpy_loop):
        ddg = build_loop_ddg(daxpy_loop)
        for e in edges_of(ddg, DepKind.FLOW):
            if e.reg.name in ("f1", "f2"):
                assert e.delay == 2  # load latency

    def test_accumulator_self_edge(self, dot_loop):
        ddg = build_loop_ddg(dot_loop)
        self_edges = [
            e for e in edges_of(ddg) if e.src.op_id == e.dst.op_id
        ]
        assert len(self_edges) == 1
        (e,) = self_edges
        assert e.kind is DepKind.FLOW and e.distance == 1 and e.delay == 2

    def test_use_before_def_is_carried(self):
        b = LoopBuilder("ubd")
        b.fstore("f1", "out")      # use before def -> previous iteration
        b.fload("f1", "x")
        loop = b.build()
        ddg = build_loop_ddg(loop)
        flows = edges_of(ddg, DepKind.FLOW)
        assert len(flows) == 1 and flows[0].distance == 1

    def test_live_in_has_no_edge(self, daxpy_loop):
        ddg = build_loop_ddg(daxpy_loop)
        assert all(
            e.reg is None or e.reg.name != "fa" for e in edges_of(ddg)
        )


class TestMemoryDependences:
    def test_store_load_recurrence(self, memrec_loop):
        ddg = build_loop_ddg(memrec_loop)
        mem_flows = edges_of(ddg, DepKind.MEM_FLOW)
        assert len(mem_flows) == 1
        (e,) = mem_flows
        assert e.distance == 1
        assert e.delay == 4  # store latency

    def test_same_iteration_store_then_load(self):
        b = LoopBuilder("sl")
        b.fload("f1", "x")
        b.fstore("f1", "y")
        b.fload("f2", "y")  # reads what the store just wrote
        b.fstore("f2", "z")
        loop = b.build()
        ddg = build_loop_ddg(loop)
        mem_flows = edges_of(ddg, DepKind.MEM_FLOW)
        assert any(e.distance == 0 for e in mem_flows)

    def test_load_then_store_is_anti(self):
        b = LoopBuilder("anti")
        b.fload("f1", "y")
        b.fmul("f2", "f1", "f1")
        b.fstore("f2", "y")  # same location, after the load
        loop = b.build()
        ddg = build_loop_ddg(loop)
        antis = edges_of(ddg, DepKind.MEM_ANTI)
        assert len(antis) == 1 and antis[0].distance == 0 and antis[0].delay == 1

    def test_store_store_output_dep(self):
        b = LoopBuilder("oo")
        b.fload("f1", "x")
        b.fstore("f1", "y")
        b.fload("f2", "z")
        b.fstore("f2", "y")
        loop = b.build()
        ddg = build_loop_ddg(loop)
        outs = edges_of(ddg, DepKind.MEM_OUTPUT)
        assert any(e.distance == 0 for e in outs)

    def test_scalar_store_self_output_dep(self):
        b = LoopBuilder("ss")
        b.fload("f1", "x")
        b.fstore("f1", "acc", scalar=True)
        loop = b.build()
        ddg = build_loop_ddg(loop)
        outs = edges_of(ddg, DepKind.MEM_OUTPUT)
        assert any(
            e.src.op_id == e.dst.op_id and e.distance == 1 for e in outs
        )

    def test_read_read_no_dep(self):
        b = LoopBuilder("rr")
        b.fload("f1", "x")
        b.fload("f2", "x")
        b.fstore("f1", "o1")
        b.fstore("f2", "o2")
        loop = b.build()
        ddg = build_loop_ddg(loop)
        assert not [e for e in edges_of(ddg) if e.kind.is_memory and e.src.reads_mem and e.dst.reads_mem]

    def test_disjoint_arrays_no_dep(self):
        b = LoopBuilder("dj")
        b.fload("f1", "x")
        b.fstore("f1", "y")
        b.fload("f2", "z", offset=-1)
        b.fstore("f2", "w")
        loop = b.build()
        ddg = build_loop_ddg(loop)
        assert not edges_of(ddg, DepKind.MEM_FLOW)

    def test_distance_two_recurrence(self):
        b = LoopBuilder("d2")
        b.fload("f1", "x", offset=-2)
        b.fstore("f1", "x")
        loop = b.build()
        ddg = build_loop_ddg(loop)
        (e,) = edges_of(ddg, DepKind.MEM_FLOW)
        assert e.distance == 2


class TestBlockDDG:
    def test_block_is_acyclic_distance_zero(self):
        b = LoopBuilder("blk", depth=0)
        b.load("r1", "a", scalar=True)
        b.add("r2", "r1", 1)
        b.store("r2", "a", scalar=True)
        block = b.build_block()
        ddg = build_block_ddg(block)
        assert all(e.distance == 0 for e in edges_of(ddg))
        ddg.verify_acyclic_at_distance_zero()  # must not raise

    def test_block_scalar_anti_dep(self):
        b = LoopBuilder("blk2", depth=0)
        b.load("r1", "a", scalar=True)
        b.store("r1", "a", scalar=True)
        ddg = build_block_ddg(b.build_block())
        assert any(e.kind is DepKind.MEM_ANTI for e in edges_of(ddg))
