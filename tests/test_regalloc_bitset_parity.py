"""Parity of the bitset register-assignment layer with its oracles.

``assign_banks`` reads liveness off the DDG's int rows, sweeps the MVE
plan once into per-bank occupancy masks and colours them on the masks
(neighbour bitsets only for a bank of more names than registers); the
whole ``BankAssignments`` must equal the composition of the golden
``_reference_cyclic_liveness`` (the walk over ``Dependence`` objects),
``_reference_build_interference`` (one cycle sweep per bank) and
``_reference_chaitin_briggs_color`` (the set-based colourer) from
``tests/golden.py`` — every colour, every spill in order, not just the
counts.
The paper's 64-register banks never spill, so the same machines with
6, 10 and 16 registers per bank carry the optimistic and spill paths.
Both modulo schedulers feed it: Swing's lifetime-sensitive placement
gives shorter, differently aligned live ranges than IMS.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from repro.core.pipeline import PipelineConfig, compile_loop
from repro.evalx.runner import PAPER_CONFIG_ORDER
from repro.machine.presets import paper_machine
from repro.regalloc import assignment
from repro.regalloc.assignment import BankAssignments
from repro.regalloc.coloring import chaitin_briggs_color
from repro.regalloc.interference import InterferenceGraph
from repro.regalloc.liveness import cyclic_liveness
from repro.regalloc.mve import plan_mve
from repro.workloads.corpus import spec95_corpus
from tests.golden import (
    _reference_build_interference,
    _reference_chaitin_briggs_color,
    _reference_cyclic_liveness,
    add_edge,
    add_node,
)

N_LOOPS = 20


def reference_assign_banks(kernel, ddg, partition, machine) -> BankAssignments:
    """Per-bank assignment as composed before the bitset layer: the
    Dependence-walking liveness, one reference interference sweep and one
    set-based colouring per bank."""
    liveness = _reference_cyclic_liveness(kernel, ddg)
    plan = plan_mve(liveness)
    depth_weight = 10.0 ** kernel.loop.depth

    result = BankAssignments(success=True, unroll=plan.unroll)
    for bank in range(partition.n_banks):
        rids = {
            r.rid
            for r in partition.registers_in_bank(bank)
            if r.rid in liveness.ranges
        }
        if not rids:
            continue
        graph = _reference_build_interference(plan, rids)
        result.max_pressure = max(result.max_pressure, graph.max_pressure)

        def spill_cost(name):
            lr = liveness.ranges[name[0]]
            if lr.invariant:
                return float("inf")
            return (lr.n_uses + 1) * depth_weight

        coloring = _reference_chaitin_briggs_color(graph, machine.regs_per_bank, spill_cost)
        coloring.verify(graph)
        result.per_bank[bank] = coloring
        for name, color in coloring.colors.items():
            result.physical[name] = (bank, color)
        if not coloring.success:
            result.success = False
            seen: set[int] = set()
            for rid, _replica in coloring.spilled:
                if rid in seen or liveness.ranges[rid].invariant:
                    continue
                seen.add(rid)
                result.spill_candidates.append(liveness.ranges[rid].reg)
    return result


def fingerprint(out: BankAssignments) -> tuple:
    """Every observable field, in order."""
    return (
        out.success,
        out.unroll,
        out.max_pressure,
        list(out.physical.items()),
        [
            (bank, list(c.colors.items()), list(c.spilled), c.optimistic_saves)
            for bank, c in out.per_bank.items()
        ],
        [r.rid for r in out.spill_candidates],
    )


@pytest.fixture(scope="module")
def corpus_slice():
    return spec95_corpus(n=N_LOOPS)


@pytest.mark.parametrize(
    "scheduler, regs_per_bank",
    [pytest.param("ims", regs, id=str(regs)) for regs in (None, 6, 10, 16)]
    + [pytest.param("swing", regs, id=f"swing-{regs}") for regs in (None, 6, 10, 16)],
)
def test_assign_banks_matches_reference_composition(
    corpus_slice, scheduler, regs_per_bank, monkeypatch
):
    """Every ``assign_banks`` call the pipeline makes (all spill rounds)
    over a corpus slice x the six paper configurations, on IMS kernels
    and on Swing's lifetime-sensitive ones."""
    fast = assignment.assign_banks
    stats = {"calls": 0, "failed": 0, "optimistic": 0, "spilled": 0}

    def checked(kernel, ddg, partition, machine):
        assert list(cyclic_liveness(kernel, ddg).ranges.items()) == list(
            _reference_cyclic_liveness(kernel, ddg).ranges.items()
        )
        out = fast(kernel, ddg, partition, machine)
        assert fingerprint(out) == fingerprint(
            reference_assign_banks(kernel, ddg, partition, machine)
        )
        stats["calls"] += 1
        stats["failed"] += not out.success
        stats["optimistic"] += sum(c.optimistic_saves for c in out.per_bank.values())
        stats["spilled"] += sum(len(c.spilled) for c in out.per_bank.values())
        return out

    colour = assignment.chaitin_briggs_color
    paths = {"adj": 0, "masks": 0}

    def colour_and_count(graph, k, spill_cost):
        result = colour(graph, k, spill_cost)
        # a bank of more names than registers needs degrees; no other
        # bank builds its neighbour bitsets
        read_adj = "adj" in vars(graph)
        assert read_adj == (len(graph.nodes) > k)
        paths["adj" if read_adj else "masks"] += 1
        return result

    monkeypatch.setattr(assignment, "assign_banks", checked)
    monkeypatch.setattr(assignment, "chaitin_briggs_color", colour_and_count)
    config = PipelineConfig(scheduler=scheduler, run_regalloc=True)
    for n_clusters, model in PAPER_CONFIG_ORDER:
        machine = paper_machine(n_clusters, model)
        if regs_per_bank is not None:
            machine = dataclasses.replace(machine, regs_per_bank=regs_per_bank)
        for loop in corpus_slice:
            try:
                compile_loop(loop, machine, config)
            except RuntimeError:
                pass  # spilling did not converge within the round limit

    assert stats["calls"] >= N_LOOPS * len(PAPER_CONFIG_ORDER)
    if regs_per_bank is None:
        assert stats["failed"] == 0
    else:
        # the small banks must really reach the paths they are here for
        assert stats["failed"] > 0
        assert stats["spilled"] > 0
        assert stats["optimistic"] > 0
        assert paths["adj"] > 0 and paths["masks"] > 0


def random_graph(rng: random.Random, n: int, density: float) -> InterferenceGraph:
    """Names inserted in random order, so the bitset graph must re-sort."""
    names = [(rng.randrange(40), rng.randrange(3)) for _ in range(n)]
    names = list(dict.fromkeys(names))
    rng.shuffle(names)
    graph = InterferenceGraph()
    for name in names:
        add_node(graph, name)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            if rng.random() < density:
                add_edge(graph, a, b)
    return graph


@pytest.mark.parametrize("seed", range(60))
def test_colourers_agree_on_random_graphs(seed):
    rng = random.Random(seed)
    graph = random_graph(rng, rng.randrange(1, 30), rng.choice([0.1, 0.3, 0.6, 0.9]))
    # few distinct costs, so ratio ties are common; inf marks invariants
    costs = {
        name: rng.choice([1.0, 2.0, 10.0, 20.0, math.inf]) for name in graph.nodes
    }
    for k in (1, 2, 3, 5, 8):
        for spill_cost in (None, costs.__getitem__):
            fast = chaitin_briggs_color(graph, k, spill_cost)
            slow = _reference_chaitin_briggs_color(graph, k, spill_cost)
            assert list(fast.colors.items()) == list(slow.colors.items())
            assert fast.spilled == slow.spilled
            assert fast.optimistic_saves == slow.optimistic_saves
            fast.verify(graph)


def test_hand_built_graph_keeps_sorted_bitsets():
    graph = InterferenceGraph()
    add_edge(graph, (5, 0), (1, 0))
    add_edge(graph, (3, 1), (5, 0))
    add_node(graph, (0, 0))
    assert graph.nodes == [(0, 0), (1, 0), (3, 1), (5, 0)]
    assert graph.neighbors((5, 0)) == {(1, 0), (3, 1)}
    assert graph.degree((5, 0)) == 2 and graph.degree((0, 0)) == 0
    assert graph.interferes((1, 0), (5, 0))
    assert not graph.interferes((1, 0), (3, 1))
    assert not graph.interferes((1, 0), (9, 9))
    assert graph.adj == [0b0000, 0b1000, 0b1000, 0b0110]


def test_verify_requires_a_partition_of_the_nodes():
    graph = InterferenceGraph()
    add_edge(graph, (1, 0), (2, 0))
    add_node(graph, (3, 0))
    result = chaitin_briggs_color(graph, 2)
    result.verify(graph)
    missing = dataclasses.replace(result, colors=dict(result.colors))
    del missing.colors[(3, 0)]
    with pytest.raises(AssertionError, match="partition"):
        missing.verify(graph)
    both = dataclasses.replace(result, spilled=[(3, 0)])
    with pytest.raises(AssertionError, match="partition"):
        both.verify(graph)
    twice = dataclasses.replace(
        result, colors={(1, 0): 0, (2, 0): 1}, spilled=[(3, 0), (3, 0)]
    )
    with pytest.raises(AssertionError, match="partition"):
        twice.verify(graph)
    stranger = dataclasses.replace(result, spilled=[(9, 0)])
    with pytest.raises(AssertionError, match="partition"):
        stranger.verify(graph)


def test_verify_rejects_out_of_range_and_clashing_colours():
    """``verify`` checks by position what it checked by name: every
    colour in ``range(k)`` and no two neighbours sharing one."""
    graph = InterferenceGraph()
    add_edge(graph, (1, 0), (2, 0))
    add_node(graph, (3, 0))
    result = chaitin_briggs_color(graph, 2)
    for bad in (2, -1):
        wide = dataclasses.replace(result, colors={**result.colors, (3, 0): bad})
        with pytest.raises(AssertionError, match="out of range for k=2"):
            wide.verify(graph)
    clash = dataclasses.replace(result, colors={(1, 0): 1, (2, 0): 1, (3, 0): 1})
    with pytest.raises(AssertionError, match=r"improper coloring: \(1, 0\) and \(2, 0\)"):
        clash.verify(graph)
    spilled = dataclasses.replace(result, colors={(1, 0): 0, (3, 0): 0}, spilled=[(2, 0)])
    spilled.verify(graph)


def test_allocation_builds_no_name_index(corpus_slice, monkeypatch):
    """The colourer and ``verify`` work on positions: a quick grid with
    register allocation on, 6-register banks included (spill rounds),
    never builds a bank graph's name -> index dict."""
    def refuse(graph):
        raise AssertionError("name index built")

    monkeypatch.setattr(InterferenceGraph, "index", property(refuse))
    config = PipelineConfig(run_regalloc=True)
    for n_clusters, model in PAPER_CONFIG_ORDER:
        for regs in (None, 6):
            machine = paper_machine(n_clusters, model)
            if regs is not None:
                machine = dataclasses.replace(machine, regs_per_bank=regs)
            for loop in corpus_slice[:8]:
                try:
                    compile_loop(loop, machine, config)
                except RuntimeError as exc:
                    assert "spill rounds" in str(exc)


def test_paper_banks_colour_without_neighbour_bitsets(monkeypatch):
    """No quick-40 bank holds more names than the paper's 64 registers,
    so register allocation over quick-40 x the six configs colours every
    bank on its occupancy masks and never builds ``adj``."""
    def refuse(graph):
        raise AssertionError("neighbour bitsets built")

    monkeypatch.setattr(InterferenceGraph, "adj", property(refuse))
    fast = assignment.assign_banks
    calls = []

    def counted(*args):
        calls.append(1)
        return fast(*args)

    monkeypatch.setattr(assignment, "assign_banks", counted)
    config = PipelineConfig(run_regalloc=True)
    loops = spec95_corpus(n=40)
    for n_clusters, model in PAPER_CONFIG_ORDER:
        machine = paper_machine(n_clusters, model)
        for loop in loops:
            compile_loop(loop, machine, config)
    assert len(calls) == len(loops) * len(PAPER_CONFIG_ORDER)
