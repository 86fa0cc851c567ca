"""Chaitin/Briggs graph-coloring register assignment.

The classic discipline the paper cites ([9] Chaitin, [6] Briggs et al.):

* **simplify** — repeatedly remove a node of degree < k and push it on a
  stack; when only high-degree nodes remain, push the cheapest spill
  candidate anyway (Briggs' *optimistic* coloring: it may still color if
  its neighbors end up sharing colors);
* **select** — pop the stack, giving each node the lowest color unused by
  its already-colored neighbors; optimistic nodes that find no color
  become *actual spills*.

Costs follow Chaitin: ``spill_cost(v) / degree(v)``, with the cost
supplied by the caller (use counts weighted by loop depth).

Select runs on the names' occupancy masks (:mod:`repro.regalloc.interference`):
each colour keeps the union of its names' masks, and a colour is free for
a name iff that union misses the name's mask.  A graph of at most ``k``
names has every degree below ``k``, so simplify removes them in ascending
order and no neighbour bitset is built; a larger graph is simplified on
its neighbour bitsets over sorted node indices (degree is a popcount, the
lowest set bit of "remaining and degree < k" is the smallest such name).
The original set-based colourer is the parity-test oracle in
``tests/golden.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

from repro.regalloc.interference import InterferenceGraph, Name, set_bits


@dataclass
class ColoringResult:
    """Outcome of one coloring attempt."""

    k: int
    colors: dict[Name, int] = field(default_factory=dict)
    spilled: list[Name] = field(default_factory=list)
    optimistic_saves: int = 0

    @property
    def success(self) -> bool:
        return not self.spilled

    def verify(self, graph: InterferenceGraph) -> None:
        """Assert the colored and spilled names partition the graph's
        nodes and the coloring is proper over the non-spilled subgraph:
        the names of a colour have disjoint masks, so the union's
        popcount is the sum of theirs (checked by position:
        ``graph.nodes`` is sorted)."""
        nodes = graph.nodes
        if sorted([*self.colors, *self.spilled]) != nodes:
            raise AssertionError(
                "colored and spilled names do not partition the graph's nodes"
            )
        masks = graph.masks
        color_at = list(map(self.colors.get, nodes))  # None: spilled
        unions: dict[int, int] = {}
        total = 0
        for mask, color in zip(masks, color_at):
            if color is not None:
                if not (0 <= color < self.k):
                    raise AssertionError(f"color {color} out of range for k={self.k}")
                unions[color] = unions.get(color, 0) | mask
                total += mask.bit_count()
        # no union counts more bits than its members, so the totals are
        # equal iff every colour's are
        if sum(map(int.bit_count, unions.values())) != total:
            for a, b in combinations(range(len(nodes)), 2):
                if color_at[a] is not None and color_at[a] == color_at[b] \
                        and masks[a] & masks[b]:
                    raise AssertionError(
                        f"improper coloring: {nodes[a]} and {nodes[b]} "
                        f"share color {color_at[a]}"
                    )


def chaitin_briggs_color(
    graph: InterferenceGraph,
    k: int,
    spill_cost: Callable[[Name], float] | None = None,
) -> ColoringResult:
    """Color ``graph`` with at most ``k`` colors; see module docs.

    ``spill_cost`` maps a name to the cost of spilling it (higher = keep
    in a register); defaults to uniform cost, so the highest-degree node
    is preferred for spilling.
    """
    if k < 1:
        raise ValueError("k must be positive")
    nodes = graph.nodes
    if len(nodes) <= k:
        # every degree is below k: simplify pushes the names in order
        stack, optimistic_picks = range(len(nodes)), 0
    else:
        stack, optimistic_picks = _simplify(graph, k, spill_cost)

    result = ColoringResult(k=k)
    masks = graph.masks
    classes: list[int] = []  # color -> union of its names' masks
    for i in reversed(stack):
        mask = masks[i]
        for color, occupied in enumerate(classes):
            if not occupied & mask:
                classes[color] = occupied | mask
                break
        else:
            color = len(classes)
            if color == k:
                result.spilled.append(nodes[i])
                continue
            classes.append(mask)
        result.colors[nodes[i]] = color
        if optimistic_picks >> i & 1:
            result.optimistic_saves += 1
    return result


def _simplify(
    graph: InterferenceGraph,
    k: int,
    spill_cost: Callable[[Name], float] | None,
) -> tuple[list[int], int]:
    """The simplify stack of node positions, and the bitset of the nodes
    pushed optimistically."""
    nodes = graph.nodes
    adj = graph.adj
    degrees = [row.bit_count() for row in adj]
    remaining = (1 << len(nodes)) - 1
    below_k = 0  # nodes whose current degree is < k
    for i, d in enumerate(degrees):
        if d < k:
            below_k |= 1 << i
    costs: list[float] | None = None
    stack: list[int] = []
    optimistic_picks = 0

    while remaining:
        candidates = remaining & below_k
        if candidates == remaining:
            # degrees only fall, so every later pick is the lowest
            # remaining node and no degree needs tracking any more
            stack.extend(set_bits(remaining))
            break
        optimistic = not candidates
        if optimistic:
            # Briggs: pick the cheapest spill candidate but keep going;
            # ascending scan with a strict < keeps the smallest name on ties
            if costs is None:
                costs = (
                    [spill_cost(name) for name in nodes]
                    if spill_cost is not None
                    else [1.0] * len(nodes)
                )
            best_key = 0.0
            pick = -1
            for j in set_bits(remaining):
                key = costs[j] / max(1, degrees[j])
                if pick < 0 or key < best_key:
                    best_key, pick = key, j
        else:
            pick = (candidates & -candidates).bit_length() - 1
        remaining ^= 1 << pick
        for j in set_bits(adj[pick] & remaining):
            degrees[j] -= 1
            if degrees[j] == k - 1:
                below_k |= 1 << j
        stack.append(pick)
        if optimistic:
            optimistic_picks |= 1 << pick
    return stack, optimistic_picks
