"""Tests for the Section 4.1 "machine idiosyncrasy" mechanisms.

The paper argues the RCG's key advantage is expressing machine quirks as
weights: an operation requiring ``A = B op C`` with A, B, C in *separate*
banks becomes negative edges "of infinite magnitude", and fixed
bank/number requirements are pre-colored.  These tests drive both
mechanisms through the public API.
"""


from repro.core.greedy import greedy_partition
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.core.rcg import RegisterComponentGraph
from repro.ir.registers import RegisterFactory
from repro.ir.types import DataType
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.workloads.kernels import make_kernel

NEG_INF = -1.0e9


class TestInfiniteNegativeEdges:
    def test_three_way_separation(self):
        """A = B op C with all three in different banks: pairwise -inf
        edges force a 3-coloring."""
        f = RegisterFactory()
        a, b, c = (f.new(DataType.INT, name=n) for n in ("va", "vb", "vc"))
        g = RegisterComponentGraph()
        g.add_edge_weight(a, b, NEG_INF)
        g.add_edge_weight(a, c, NEG_INF)
        g.add_edge_weight(b, c, NEG_INF)
        # some ordinary affinity trying (and failing) to merge them
        g.add_edge_weight(a, b, 5.0)
        part = greedy_partition(g.freeze(), 4)
        banks = {part.bank_of(a), part.bank_of(b), part.bank_of(c)}
        assert len(banks) == 3

    def test_separation_beats_affinity_cluster(self):
        f = RegisterFactory()
        regs = [f.new(DataType.INT, name=f"w{i}") for i in range(4)]
        g = RegisterComponentGraph()
        for i in range(3):
            g.add_edge_weight(regs[i], regs[i + 1], 10.0)
        g.add_edge_weight(regs[0], regs[3], NEG_INF)
        part = greedy_partition(g.freeze(), 2)
        assert part.bank_of(regs[0]) != part.bank_of(regs[3])


class TestPrecoloringThroughPipeline:
    def test_precolored_register_lands_in_its_bank(self):
        loop = make_kernel("lfk1_hydro")
        target = loop.factory.get("f7")
        machine = paper_machine(4, CopyModel.EMBEDDED)
        result = compile_loop(
            loop,
            machine,
            PipelineConfig(precolored={target: 3}, run_regalloc=False),
        )
        assert result.partition.bank_of(target) == 3
        # the defining op was pinned to the same cluster
        new_op = next(
            op for op in result.partitioned.loop.ops
            if op.dest is not None and op.dest.rid == target.rid
        )
        assert new_op.cluster == 3

    def test_precoloring_pulls_neighbors(self):
        """Values tightly bound to a precolored register follow it."""
        loop = make_kernel("horner4")  # a pure serial chain
        f = loop.factory
        machine = paper_machine(2, CopyModel.EMBEDDED)
        result = compile_loop(
            loop,
            machine,
            PipelineConfig(precolored={f.get("f2"): 1}, run_regalloc=False),
        )
        assert result.partition.bank_of(f.get("f2")) == 1
        # pinning one chain member must not wreck the schedule: horner is
        # latency-bound (II=1 on 8 wide-open slots per cluster), so any
        # copies the pin induces still fit without degradation
        assert result.metrics.zero_degradation
