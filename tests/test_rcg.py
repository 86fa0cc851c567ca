"""Tests for the register component graph structure."""

import pytest

from repro.core.components import component_summary, connected_components
from repro.core.rcg import RegisterComponentGraph
from repro.ir.registers import RegisterFactory
from repro.ir.types import DataType


@pytest.fixture
def regs():
    f = RegisterFactory()
    return [f.new(DataType.INT, name=f"v{i}") for i in range(6)]


class TestRCGStructure:
    def test_nodes_and_weights(self, regs):
        g = RegisterComponentGraph()
        g.add_node_weight(regs[0], 2.0)
        g.add_node_weight(regs[0], 3.0)
        frozen = g.freeze()
        assert frozen.node_weight(regs[0]) == 5.0
        assert len(frozen) == 1
        assert regs[0] in frozen and regs[1] not in frozen

    def test_edges_accumulate(self, regs):
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], 1.5)
        g.add_edge_weight(regs[1], regs[0], 0.5)  # undirected: same edge
        assert g.n_edges == 1
        assert g.freeze().edge_weight(regs[0], regs[1]) == 2.0

    def test_self_edge_rejected(self, regs):
        g = RegisterComponentGraph()
        with pytest.raises(ValueError):
            g.add_edge_weight(regs[0], regs[0], 1.0)

    def test_neighbors_deterministic(self, regs):
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[2], 1.0)
        g.add_edge_weight(regs[0], regs[1], -1.0)
        names = [n.name for n, _w in g.freeze().neighbors(regs[0])]
        assert names == ["v1", "v2"]

    def test_nodes_by_weight_order(self, regs):
        g = RegisterComponentGraph()
        g.add_node_weight(regs[0], 1.0)
        g.add_node_weight(regs[1], 5.0)
        g.add_node_weight(regs[2], 5.0)
        order = g.freeze().nodes_by_weight()
        assert order[0].name == "v1"  # highest weight
        assert order[1].name == "v2"  # tie broken by rid
        assert order[2].name == "v0"

    def test_cut_weight(self, regs):
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], 4.0)
        g.add_edge_weight(regs[1], regs[2], 3.0)
        assign = {regs[0].rid: 0, regs[1].rid: 0, regs[2].rid: 1}
        assert g.freeze().cut_weight(assign) == 3.0

    def test_builder_answers_no_queries(self, regs):
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], 2.0)
        for name in ("nodes", "node_weight", "edge_weight", "neighbors", "edges",
                     "nodes_by_weight", "cut_weight"):
            assert not hasattr(g, name), name
        with pytest.raises(TypeError):
            len(g)


class TestComponents:
    def test_two_components(self, regs):
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], 1.0)
        g.add_edge_weight(regs[2], regs[3], 1.0)
        comps = connected_components(g.freeze())
        assert len(comps) == 2
        assert all(len(c) == 2 for c in comps)

    def test_isolated_nodes_are_singletons(self, regs):
        g = RegisterComponentGraph()
        g.add_node(regs[0])
        g.add_node(regs[1])
        comps = connected_components(g.freeze())
        assert len(comps) == 2

    def test_positive_only_skips_antiaffinity(self, regs):
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], -2.0)  # anti edge only
        frozen = g.freeze()
        assert len(connected_components(frozen, positive_only=False)) == 1
        assert len(connected_components(frozen, positive_only=True)) == 2

    def test_component_ordering_by_weight(self, regs):
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], 1.0)
        g.add_node_weight(regs[0], 1.0)
        g.add_edge_weight(regs[2], regs[3], 1.0)
        g.add_node_weight(regs[2], 10.0)
        comps = connected_components(g.freeze())
        assert regs[2] in comps[0]  # heavier component first

    def test_summary(self, regs):
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], 1.0)
        g.add_node(regs[2])
        s = component_summary(g.freeze())
        assert s.n_components == 2
        assert s.largest == 2
        assert s.smallest == 1
        assert s.singleton_count == 1
