"""Tests for the DDG container itself, and for the golden edge objects."""

import pytest

from repro.ddg.builder import build_loop_ddg
from repro.ddg.graph import DDG, DepKind
from repro.ir.builder import LoopBuilder
from tests.golden import Dependence, add_dependence


def two_op_loop():
    b = LoopBuilder("two")
    b.fload("f1", "x")
    b.fstore("f1", "y")
    return b.build()


class TestDDGStructure:
    def test_membership_and_index(self):
        loop = two_op_loop()
        ddg = DDG(ops=list(loop.ops))
        assert loop.ops[0] in ddg
        assert ddg.index_of(loop.ops[1]) == 1

    def test_duplicate_ops_rejected(self):
        loop = two_op_loop()
        with pytest.raises(ValueError):
            DDG(ops=[loop.ops[0], loop.ops[0]])

    def test_edge_to_foreign_op_rejected(self):
        loop = two_op_loop()
        other = two_op_loop()
        ddg = DDG(ops=list(loop.ops))
        assert other.ops[0] not in ddg
        with pytest.raises(ValueError):
            add_dependence(
                ddg, Dependence(loop.ops[0], other.ops[0], DepKind.MEM_ANTI, 1, 0)
            )

    def test_duplicate_edge_keeps_larger_delay(self):
        ddg = DDG(ops=list(two_op_loop().ops))
        assert ddg.add_row(0, 1, DepKind.MEM_ANTI, 1, 0, None)
        assert ddg.add_row(0, 1, DepKind.MEM_ANTI, 3, 0, None)
        assert ddg.n_edges == 1
        assert ddg.index().delay == [3]
        # smaller delay does not downgrade
        assert not ddg.add_row(0, 1, DepKind.MEM_ANTI, 2, 0, None)
        assert ddg.index().delay == [3]

    def test_loop_carried_vs_intra_partition(self, dot_loop):
        idx = build_loop_ddg(dot_loop).index()
        carried = [k for k in range(idx.m) if idx.dist[k] > 0]
        intra = [k for k in range(idx.m) if idx.dist[k] == 0]
        assert carried and intra
        assert len(carried) + len(intra) == idx.m

    def test_topological_order_respects_edges(self, daxpy_loop):
        idx = build_loop_ddg(daxpy_loop).index()
        order = {v: i for i, v in enumerate(reversed(idx.rev_topo0))}
        assert sorted(order) == list(range(idx.n))
        for k in range(idx.m):
            if idx.dist[k] == 0:
                assert order[idx.src[k]] < order[idx.dst[k]]

    def test_distance_zero_cycle_detected(self):
        ddg = DDG(ops=list(two_op_loop().ops))
        ddg.add_row(0, 1, DepKind.MEM_ANTI, 1, 0, None)
        ddg.add_row(1, 0, DepKind.MEM_ANTI, 1, 0, None)
        assert ddg.index().rev_topo0 is None
        with pytest.raises(ValueError, match="malformed"):
            ddg.verify_acyclic_at_distance_zero()


class TestDependenceValidation:
    def test_negative_delay_rejected(self):
        loop = two_op_loop()
        with pytest.raises(ValueError):
            Dependence(loop.ops[0], loop.ops[1], DepKind.MEM_ANTI, -1, 0)

    def test_negative_distance_rejected(self):
        loop = two_op_loop()
        with pytest.raises(ValueError):
            Dependence(loop.ops[0], loop.ops[1], DepKind.MEM_ANTI, 1, -1)

    def test_flow_requires_register(self):
        loop = two_op_loop()
        with pytest.raises(ValueError):
            Dependence(loop.ops[0], loop.ops[1], DepKind.FLOW, 1, 0)
