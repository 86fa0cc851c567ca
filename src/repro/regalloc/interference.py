"""Interference graphs over MVE names, on bank-local int bitsets.

Two names interfere when their occupancy windows overlap anywhere on the
cyclic timeline.  Each name's cyclic occupancy is packed into one Python
int (bit ``c`` set = live at cycle ``c``), so a pair interferes iff the
AND of their masks is nonzero.  The mask comes straight from the live
range: a name with ``q`` replicas is live for ``lifetime`` cycles once
every ``q * II``, a periodic bit pattern rotated to the replica's first
birth, so the per-iteration windows are never expanded.  A bank's peak
pressure is read off its II kernel rows
(:func:`repro.regalloc.liveness.row_pressure`).

A graph numbers its names densely in sorted order and keeps each name's
neighbours as one int (bit ``j`` set = interferes with ``nodes[j]``):
degree is a popcount, and the colourer (:mod:`repro.regalloc.coloring`)
simplifies and selects on these bitsets.  No consumer depends on the
order edges were discovered in.

:func:`bank_interference` sweeps an MVE plan once and returns the graph
of every register bank; :func:`build_interference` is its one-bank
form.  The original cycle-by-cycle sweep over Lam's expanded windows
(``mve_windows``) is the parity-test oracle in ``tests/golden.py``.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

from repro.regalloc.liveness import row_pressure
from repro.regalloc.mve import MVEPlan

Name = tuple[int, int]  # (rid, replica)


@dataclass
class InterferenceGraph:
    """Undirected interference graph over (rid, replica) names.

    ``nodes`` is kept sorted and ``adj[i]`` is the neighbour bitset of
    ``nodes[i]``.  ``max_pressure`` is the most names live at once on the
    cyclic timeline, set by the builders (0 for a hand-built graph).
    """

    nodes: list[Name] = field(default_factory=list)
    adj: list[int] = field(default_factory=list)
    max_pressure: int = 0

    @cached_property
    def index(self) -> dict[Name, int]:
        """name -> position, for the name-level queries below only."""
        return {name: i for i, name in enumerate(self.nodes)}

    def degree(self, name: Name) -> int:
        return self.adj[self.index[name]].bit_count()

    def neighbors(self, name: Name) -> set[Name]:
        return {self.nodes[j] for j in set_bits(self.adj[self.index[name]])}

    def interferes(self, a: Name, b: Name) -> bool:
        ia, ib = self.index.get(a), self.index.get(b)
        return ia is not None and ib is not None and bool(self.adj[ia] >> ib & 1)

    def __len__(self) -> int:
        return len(self.nodes)

    def max_clique_lower_bound(self) -> int:
        """Max simultaneous liveness observed during construction."""
        return self.max_pressure


def set_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bank_interference(
    plan: MVEPlan, bank_of: Mapping[int, int]
) -> dict[int, InterferenceGraph]:
    """One sweep of ``plan``: the interference graph of every bank that
    holds a name, in ascending bank order.  ``bank_of`` maps rid -> bank;
    names of other rids are left out."""
    ii = plan.ii
    timeline = plan.timeline
    full = (1 << timeline) - 1
    # comb[q]: one bit at the start of every q*II period of the timeline
    comb: dict[int, int] = {}
    # bank -> (names, misses, candidates, spans); see _bank_graph
    sweeps: dict[int, tuple[list, list, list, list]] = {}
    invariants: dict[int, int] = {}
    for rid, start, lifetime, q, invariant in zip(
        plan.rids, plan.starts, plan.lifetimes, plan.replicas, plan.invariant
    ):
        bank = bank_of.get(rid)
        if bank is None:
            continue
        sweep = sweeps.get(bank)
        if sweep is None:
            sweep = sweeps[bank] = ([], [], [], [])
            invariants[bank] = 0
        names, misses, candidates, spans = sweep
        if invariant:
            masks = (full,)
            invariants[bank] += 1
        else:
            spans.append((start, lifetime))
            # Name r holds iterations r, r+q, r+2q, ...: a window of
            # ``lifetime`` cycles every q*II, rotated to its first birth.
            # The blocks cannot carry into each other: lifetime <= q*II.
            c = comb.get(q)
            if c is None:
                c = comb[q] = full // ((1 << (q * ii)) - 1)
            pattern = ((1 << lifetime) - 1) * c
            masks = []
            for r in range(q):
                k = (start + r * ii) % timeline
                masks.append(((pattern << k) | (pattern >> (timeline - k))) & full)
        # Every mask is non-empty (lifetimes are at least one cycle), so
        # a full mask meets them all; only the others are ever tested.
        # Plans list rids in ascending order, so names arrive sorted.
        for r, mask in enumerate(masks):
            bit = 1 << len(names)
            miss = 0
            if mask != full:
                for other, other_bit in candidates:
                    if not mask & other:
                        miss |= other_bit
                candidates.append((mask, bit))
            names.append((rid, r))
            misses.append(miss)
    # Coverage is periodic in II (a shift by II maps iteration j to j+1
    # mod unroll), so the busiest cycle of the timeline is the busiest
    # kernel row.  Counting windows per row equals counting *names* per
    # cycle (what the reference's per-cycle sets measure) because two
    # windows of one name never overlap.
    return {
        bank: _bank_graph(
            sweeps[bank][0], sweeps[bank][1],
            max(row_pressure(ii, sweeps[bank][3], invariants[bank])),
        )
        for bank in sorted(sweeps)
    }


def _bank_graph(
    names: list[Name], misses: list[int], max_pressure: int
) -> InterferenceGraph:
    """The graph whose ``misses[i]`` holds the earlier names that name
    ``i`` does *not* interfere with.  MVE graphs are dense (nine in ten
    pairs interfere on the paper corpus), so the sweep records the rare
    non-edges below the diagonal and this mirrors them above it."""
    # Distinct replicas of the same register DO interfere: when a lifetime
    # exceeds II, consecutive iterations' instances coexist and MVE gave
    # them different names precisely so they can get different colors.
    above = [0] * len(names)
    bit = 1
    for miss in misses:
        while miss:
            low = miss & -miss
            above[low.bit_length() - 1] |= bit
            miss ^= low
        bit <<= 1
    everyone = (1 << len(names)) - 1
    adj = [
        everyone & ~(below | over | (1 << i))
        for i, (below, over) in enumerate(zip(misses, above))
    ]
    return InterferenceGraph(nodes=names, adj=adj, max_pressure=max_pressure)


def build_interference(plan: MVEPlan, rids: set[int] | None = None) -> InterferenceGraph:
    """Interference among the plan's names, optionally restricted to the
    registers of one bank (``rids``)."""
    bank_of = dict.fromkeys(plan.rids if rids is None else rids, 0)
    graphs = bank_interference(plan, bank_of)
    return graphs[0] if graphs else InterferenceGraph()
