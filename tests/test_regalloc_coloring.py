"""Tests for Chaitin/Briggs coloring on hand-built graphs."""

import pytest

from repro.regalloc.coloring import chaitin_briggs_color
from repro.regalloc.interference import InterferenceGraph
from tests.golden import add_edge, add_node


def graph_from_edges(edges, nodes=()):
    g = InterferenceGraph()
    for n in nodes:
        add_node(g, n)
    for a, b in edges:
        add_edge(g, a, b)
    return g


def N(i):
    return (i, 0)


class TestColoring:
    def test_triangle_needs_three(self):
        g = graph_from_edges([(N(1), N(2)), (N(2), N(3)), (N(1), N(3))])
        r3 = chaitin_briggs_color(g, 3)
        assert r3.success
        r3.verify(g)
        r2 = chaitin_briggs_color(g, 2)
        assert not r2.success
        assert len(r2.spilled) >= 1

    def test_even_cycle_two_colorable(self):
        nodes = [N(i) for i in range(6)]
        edges = [(nodes[i], nodes[(i + 1) % 6]) for i in range(6)]
        result = chaitin_briggs_color(graph_from_edges(edges), 2)
        assert result.success
        result.verify(graph_from_edges(edges))

    def test_odd_cycle_needs_three(self):
        nodes = [N(i) for i in range(5)]
        edges = [(nodes[i], nodes[(i + 1) % 5]) for i in range(5)]
        g = graph_from_edges(edges)
        assert not chaitin_briggs_color(g, 2).success
        assert chaitin_briggs_color(g, 3).success

    def test_isolated_nodes_all_get_color_zero_ok(self):
        g = graph_from_edges([], nodes=[N(i) for i in range(4)])
        result = chaitin_briggs_color(g, 1)
        assert result.success
        assert set(result.colors.values()) == {0}

    def test_optimistic_coloring_beats_pessimism(self):
        """An even cycle at k=2: every node has degree exactly k, so
        Chaitin's pessimistic simplify would declare a spill, but Briggs'
        optimistic push colors it with 2 colors."""
        nodes = [N(i) for i in range(6)]
        edges = [(nodes[i], nodes[(i + 1) % 6]) for i in range(6)]
        g = graph_from_edges(edges)
        result = chaitin_briggs_color(g, 2)
        assert result.success
        assert result.optimistic_saves >= 1
        result.verify(g)

    def test_spill_cost_steers_choice(self):
        """In an over-constrained clique, the cheapest node spills."""
        nodes = [N(i) for i in range(4)]
        edges = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
        g = graph_from_edges(edges)
        costs = {N(0): 100.0, N(1): 100.0, N(2): 100.0, N(3): 0.1}
        result = chaitin_briggs_color(g, 3, spill_cost=lambda n: costs[n])
        assert result.spilled == [N(3)]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            chaitin_briggs_color(InterferenceGraph(), 0)

    def test_verify_catches_bad_coloring(self):
        g = graph_from_edges([(N(1), N(2))])
        result = chaitin_briggs_color(g, 2)
        result.colors[N(2)] = result.colors[N(1)]
        with pytest.raises(AssertionError):
            result.verify(g)

    def test_colors_within_range(self):
        nodes = [N(i) for i in range(10)]
        edges = [(nodes[i], nodes[j]) for i in range(10) for j in range(i + 1, min(i + 4, 10))]
        g = graph_from_edges(edges)
        result = chaitin_briggs_color(g, 4)
        assert result.success
        assert all(0 <= c < 4 for c in result.colors.values())
