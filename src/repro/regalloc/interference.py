"""Interference among MVE names, on cyclic occupancy masks.

Two names interfere when their occupancy windows overlap anywhere on the
cyclic timeline.  Each name's cyclic occupancy is packed into one Python
int (bit ``c`` set = live at cycle ``c``), so a pair interferes iff the
AND of their masks is nonzero.  The mask comes straight from the live
range: a name with ``q`` replicas is live for ``lifetime`` cycles once
every ``q * II``, a periodic bit pattern rotated to the replica's first
birth, so the per-iteration windows are never expanded.  A bank's peak
pressure is read off its II kernel rows
(:func:`repro.regalloc.liveness.row_pressure`).

A graph numbers its names densely in sorted order and keeps one mask per
name; the colourer (:mod:`repro.regalloc.coloring`) selects on them
directly.  The neighbour bitsets (``adj[i]``, bit ``j`` set = interferes
with ``nodes[j]``) are derived from the masks on first read, which only
a bank with more names than registers needs (simplify reads degrees).
A hand-built graph is the other way round: its ``adj`` is as written and
its masks are derived from it (one bit per edge, one private bit per
node), so the same colourer runs on arbitrary graphs.

:func:`bank_interference` sweeps an MVE plan once and returns the graph
of every register bank; :func:`build_interference` is its one-bank
form.  The original cycle-by-cycle sweep over Lam's expanded windows
(``mve_windows``) is the parity-test oracle in ``tests/golden.py``.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

from repro.regalloc.liveness import row_pressure
from repro.regalloc.mve import MVEPlan

Name = tuple[int, int]  # (rid, replica)


class InterferenceGraph:
    """Undirected interference graph over (rid, replica) names.

    ``nodes`` is kept sorted; ``masks[i]`` is the occupancy mask of
    ``nodes[i]`` and ``adj[i]`` its neighbour bitset.  A graph built
    without masks starts empty and its ``adj`` is written by hand; either
    list is derived from the other on first read.  ``max_pressure`` is
    the most names live at once on the cyclic timeline, set by the
    builders (0 for a hand-built graph).
    """

    def __init__(
        self,
        nodes: list[Name] | None = None,
        masks: list[int] | None = None,
        max_pressure: int = 0,
    ) -> None:
        self.nodes = [] if nodes is None else nodes
        if masks is None:
            self.adj = []
        else:
            self.masks = masks
        self.max_pressure = max_pressure

    @cached_property
    def adj(self) -> list[int]:
        """Neighbour bitsets: names interfere iff their masks meet.
        Distinct replicas of one register do interfere: MVE gave
        coexisting iterations' instances different names precisely so
        they can get different colours."""
        masks = self.masks
        adj = [0] * len(masks)
        for i, mask in enumerate(masks):
            bit = 1 << i
            for j in range(i):
                if mask & masks[j]:
                    adj[i] |= 1 << j
                    adj[j] |= bit
        return adj

    @cached_property
    def masks(self) -> list[int]:
        """Masks of a hand-built graph: node ``i`` owns bit ``i`` and each
        edge one further bit shared by its ends, so masks meet exactly
        along edges and never vanish."""
        masks = [1 << i for i in range(len(self.adj))]
        bit = len(masks)
        for i, row in enumerate(self.adj):
            for j in set_bits(row >> (i + 1)):
                masks[i] |= 1 << bit
                masks[i + 1 + j] |= 1 << bit
                bit += 1
        return masks

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


def set_bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bank_interference(
    plan: MVEPlan, bank_of: Mapping[int, int]
) -> dict[int, InterferenceGraph]:
    """One sweep of ``plan``: the graph of every bank that holds a name,
    in ascending bank order.  ``bank_of`` maps rid -> bank; names of
    other rids are left out."""
    ii = plan.ii
    timeline = plan.timeline
    full = (1 << timeline) - 1
    # comb[q]: one bit at the start of every q*II period of the timeline
    comb: dict[int, int] = {}
    sweeps: dict[int, tuple[list, list, list]] = {}  # bank -> names, masks, spans
    invariants: dict[int, int] = {}
    for rid, start, lifetime, q, invariant in zip(
        plan.rids, plan.starts, plan.lifetimes, plan.replicas, plan.invariant
    ):
        bank = bank_of.get(rid)
        if bank is None:
            continue
        sweep = sweeps.get(bank)
        if sweep is None:
            sweep = sweeps[bank] = ([], [], [])
            invariants[bank] = 0
        names, masks, spans = sweep
        # Plans list rids in ascending order, so names arrive sorted.
        if invariant:
            names.append((rid, 0))
            masks.append(full)
            invariants[bank] += 1
            continue
        spans.append((start, lifetime))
        # Name r holds iterations r, r+q, r+2q, ...: a window of
        # ``lifetime`` cycles every q*II, rotated to its first birth.
        # The blocks cannot carry into each other: lifetime <= q*II.
        c = comb.get(q)
        if c is None:
            c = comb[q] = full // ((1 << (q * ii)) - 1)
        pattern = ((1 << lifetime) - 1) * c
        for r in range(q):
            k = (start + r * ii) % timeline
            names.append((rid, r))
            masks.append(((pattern << k) | (pattern >> (timeline - k))) & full)
    # Coverage is periodic in II (a shift by II maps iteration j to j+1
    # mod unroll), so the busiest cycle of the timeline is the busiest
    # kernel row.  Counting windows per row equals counting *names* per
    # cycle (what the reference's per-cycle sets measure) because two
    # windows of one name never overlap.
    return {
        bank: InterferenceGraph(
            nodes=names, masks=masks,
            max_pressure=max(row_pressure(ii, spans, invariants[bank])),
        )
        for bank, (names, masks, spans) in sorted(sweeps.items())
    }


def build_interference(plan: MVEPlan, rids: set[int] | None = None) -> InterferenceGraph:
    """Interference among the plan's names, optionally restricted to the
    registers of one bank (``rids``)."""
    bank_of = dict.fromkeys(plan.rids if rids is None else rids, 0)
    graphs = bank_interference(plan, bank_of)
    return graphs[0] if graphs else InterferenceGraph()
