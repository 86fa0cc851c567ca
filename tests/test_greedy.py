"""Tests for the Figure-4 greedy partitioner."""

import pytest

from repro.core.greedy import Partition, greedy_partition
from repro.core.rcg import RegisterComponentGraph
from repro.core.weights import HeuristicConfig
from repro.ir.registers import RegisterFactory
from repro.ir.types import DataType


def make_regs(n):
    f = RegisterFactory()
    return [f.new(DataType.INT, name=f"v{i}") for i in range(n)]


class TestPartition:
    def test_assign_and_lookup(self):
        regs = make_regs(2)
        p = Partition(n_banks=2)
        p.assign(regs[0], 1)
        assert p.bank_of(regs[0]) == 1
        assert regs[0] in p and regs[1] not in p

    def test_out_of_range_bank_rejected(self):
        regs = make_regs(1)
        p = Partition(n_banks=2)
        with pytest.raises(ValueError):
            p.assign(regs[0], 2)

    def test_missing_lookup_raises(self):
        regs = make_regs(1)
        p = Partition(n_banks=2)
        with pytest.raises(KeyError):
            p.bank_of(regs[0])

    def test_bank_sizes_and_members(self):
        regs = make_regs(3)
        p = Partition(n_banks=2)
        p.assign(regs[0], 0)
        p.assign(regs[1], 1)
        p.assign(regs[2], 1)
        assert p.bank_sizes() == [1, 2]
        assert p.registers_in_bank(1) == [regs[1], regs[2]]

    def test_copy_is_independent(self):
        regs = make_regs(1)
        p = Partition(n_banks=2)
        p.assign(regs[0], 0)
        q = p.copy()
        q.assign(make_regs(1)[0], 1)
        assert len(p) == 1 and len(q) == 2


class TestGreedyPartition:
    def test_totality(self):
        regs = make_regs(10)
        g = RegisterComponentGraph()
        for i in range(9):
            g.add_edge_weight(regs[i], regs[i + 1], 1.0)
        p = greedy_partition(g.freeze(), 4)
        assert len(p) == 10
        assert all(0 <= b < 4 for b in p.assignment.values())

    def test_affine_pair_shares_bank(self):
        regs = make_regs(4)
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], 10.0)
        g.add_node_weight(regs[0], 10.0)
        p = greedy_partition(g.freeze(), 2)
        assert p.bank_of(regs[0]) == p.bank_of(regs[1])

    def test_antiaffine_pair_splits(self):
        regs = make_regs(2)
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], -5.0)
        g.add_node_weight(regs[0], 1.0)
        p = greedy_partition(g.freeze(), 2)
        assert p.bank_of(regs[0]) != p.bank_of(regs[1])

    def test_two_components_separate_under_pressure(self):
        regs = make_regs(6)
        g = RegisterComponentGraph()
        for i in (0, 2, 4):
            g.add_edge_weight(regs[i], regs[i + 1], 3.0)
        # capacity 1 register per bank forces spreading of the 3 pairs
        p = greedy_partition(
            g.freeze(), 3, HeuristicConfig(balance_penalty=5.0), slots_per_bank=2
        )
        banks_used = {p.bank_of(r) for r in regs}
        assert len(banks_used) >= 2

    def test_precoloring_respected(self):
        regs = make_regs(3)
        g = RegisterComponentGraph()
        g.add_edge_weight(regs[0], regs[1], 1.0)
        g.add_node(regs[2])
        p = greedy_partition(g.freeze(), 2, precolored={regs[0]: 1})
        assert p.bank_of(regs[0]) == 1
        assert p.bank_of(regs[1]) == 1  # follows its precolored neighbor

    def test_precolored_unknown_register_rejected(self):
        regs = make_regs(2)
        g = RegisterComponentGraph()
        g.add_node(regs[0])
        with pytest.raises(ValueError):
            greedy_partition(g.freeze(), 2, precolored={regs[1]: 0})

    def test_single_bank(self):
        regs = make_regs(3)
        g = RegisterComponentGraph()
        for r in regs:
            g.add_node(r)
        p = greedy_partition(g.freeze(), 1)
        assert all(p.bank_of(r) == 0 for r in regs)

    def test_zero_banks_rejected(self):
        with pytest.raises(ValueError):
            greedy_partition(RegisterComponentGraph().freeze(), 0)

    def test_literal_figure4_defaults_to_bank_zero(self):
        """The verbatim pseudocode sends isolated nodes to bank 0."""
        regs = make_regs(4)
        g = RegisterComponentGraph()
        for r in regs:
            g.add_node(r)
        p = greedy_partition(g.freeze(), 4, HeuristicConfig(literal_figure4=True))
        assert all(p.bank_of(r) == 0 for r in regs)

    def test_capacity_awareness_keeps_small_groups_whole(self):
        """With generous capacity, a connected chain stays in one bank."""
        regs = make_regs(6)
        g = RegisterComponentGraph()
        for i in range(5):
            g.add_edge_weight(regs[i], regs[i + 1], 2.0)
        p = greedy_partition(g.freeze(), 4, slots_per_bank=100)
        assert len({p.bank_of(r) for r in regs}) == 1

    def test_determinism(self):
        regs = make_regs(12)
        g = RegisterComponentGraph()
        for i in range(11):
            g.add_edge_weight(regs[i], regs[i + 1], float(i % 3) - 1.0)
        p1 = greedy_partition(g.freeze(), 4)
        p2 = greedy_partition(g.freeze(), 4)
        assert p1.assignment == p2.assignment
