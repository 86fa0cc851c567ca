"""Interference graphs over MVE names, on bank-local int bitsets.

Two names interfere when their occupancy windows overlap anywhere on the
cyclic timeline.  Each name's cyclic occupancy is packed into one Python
int (bit ``c`` set = live at cycle ``c``), so a pair interferes iff the
AND of their masks is nonzero.  A graph numbers its names densely in
sorted order and keeps each name's neighbours as one int (bit ``j`` set
= interferes with ``nodes[j]``): degree is a popcount, and the colourer
(:mod:`repro.regalloc.coloring`) simplifies and selects on these
bitsets.  No consumer depends on the order edges were discovered in.

:func:`bank_interference` sweeps an MVE plan once and returns the graph
of every register bank; :func:`build_interference` is its one-bank
form.  The original cycle-by-cycle sweep is the parity-test oracle in
``tests/golden.py``.
"""

from __future__ import annotations

import bisect
from collections.abc import Mapping
from dataclasses import dataclass, field

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
    index: dict[Name, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.index = {name: i for i, name in enumerate(self.nodes)}

    def add_node(self, name: Name) -> None:
        if name in self.index:
            return
        pos = bisect.bisect(self.nodes, name)
        self.nodes.insert(pos, name)
        if pos < len(self.adj):
            # open a zero bit at ``pos`` in every row
            low = (1 << pos) - 1
            self.adj = [(row & low) | ((row >> pos) << (pos + 1)) for row in self.adj]
            for i in range(pos, len(self.nodes)):
                self.index[self.nodes[i]] = i
        else:
            self.index[name] = pos
        self.adj.insert(pos, 0)

    def add_edge(self, a: Name, b: Name) -> None:
        if a == b:
            return
        self.add_node(a)
        self.add_node(b)
        ia, ib = self.index[a], self.index[b]
        self.adj[ia] |= 1 << ib
        self.adj[ib] |= 1 << ia

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
    timeline = plan.timeline
    # Per-name cyclic occupancy masks: each window is one or two
    # contiguous bit runs (two when it wraps); a name with several windows
    # (replica count below the unroll factor) ORs them together.
    masks: dict[int, dict[Name, int]] = {}
    # Max pressure via a difference array over window endpoints.  Counting
    # windows per cycle equals counting *names* per cycle (what the
    # reference's per-cycle sets measured) because two windows of one name
    # never overlap: they sit q*II >= lifetime cycles apart by MVE
    # construction.
    diffs: dict[int, list[int]] = {}
    for w in plan.windows:
        bank = bank_of.get(w.rid)
        if bank is None:
            continue
        bank_masks = masks.get(bank)
        if bank_masks is None:
            bank_masks = masks[bank] = {}
            diff = diffs[bank] = [0] * (timeline + 1)
        else:
            diff = diffs[bank]
        length = min(w.length, timeline)
        s = w.start % timeline
        e = s + length
        if e <= timeline:
            seg = ((1 << length) - 1) << s
            diff[s] += 1
            diff[e] -= 1
        else:
            head = timeline - s
            seg = (((1 << head) - 1) << s) | ((1 << (e - timeline)) - 1)
            diff[s] += 1
            diff[timeline] -= 1
            diff[0] += 1
            diff[e - timeline] -= 1
        name = (w.rid, w.replica)
        bank_masks[name] = bank_masks.get(name, 0) | seg
    return {
        bank: _bank_graph(masks[bank], diffs[bank], timeline)
        for bank in sorted(masks)
    }


def _bank_graph(
    masks: dict[Name, int], diff: list[int], timeline: int
) -> InterferenceGraph:
    # Distinct replicas of the same register DO interfere: when a lifetime
    # exceeds II, consecutive iterations' instances coexist and MVE gave
    # them different names precisely so they can get different colors.
    names = sorted(masks)
    occupancy = [masks[name] for name in names]
    adj = [0] * len(names)
    for i, mi in enumerate(occupancy):
        bit_i = 1 << i
        row = adj[i]
        for j in range(i + 1, len(occupancy)):
            if mi & occupancy[j]:
                row |= 1 << j
                adj[j] |= bit_i
        adj[i] = row

    max_pressure = 0
    acc = 0
    for c in range(timeline):
        acc += diff[c]
        if acc > max_pressure:
            max_pressure = acc
    return InterferenceGraph(nodes=names, adj=adj, max_pressure=max_pressure)


def build_interference(plan: MVEPlan, rids: set[int] | None = None) -> InterferenceGraph:
    """Interference among the plan's names, optionally restricted to the
    registers of one bank (``rids``)."""
    bank_of = dict.fromkeys(plan.replicas if rids is None else rids, 0)
    graphs = bank_interference(plan, bank_of)
    return graphs[0] if graphs else InterferenceGraph()
