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

Both phases run on the graph's neighbour bitsets over sorted node
indices: degree is a popcount, simplify takes the lowest set bit of
"remaining and degree < k" (the smallest such name), and select takes
the lowest color whose class bitset misses the node's colored
neighbours.  The original set-based colourer is the parity-test oracle
in ``tests/golden.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
        nodes and the coloring is proper over the non-spilled subgraph
        (checked by position: ``graph.nodes`` is sorted)."""
        nodes = graph.nodes
        if sorted([*self.colors, *self.spilled]) != nodes:
            raise AssertionError(
                "colored and spilled names do not partition the graph's nodes"
            )
        color_at = list(map(self.colors.get, nodes))  # None: spilled
        classes = [0] * self.k
        for i, color in enumerate(color_at):
            if color is not None:
                if not (0 <= color < self.k):
                    raise AssertionError(f"color {color} out of range for k={self.k}")
                classes[color] |= 1 << i
        for i, color in enumerate(color_at):
            clash = color is not None and graph.adj[i] & classes[color]
            if clash:
                nb = nodes[(clash & -clash).bit_length() - 1]
                raise AssertionError(
                    f"improper coloring: {nodes[i]} and {nb} share color {color}"
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
    adj = graph.adj
    degrees = [row.bit_count() for row in adj]
    remaining = (1 << len(nodes)) - 1
    below_k = 0  # nodes whose current degree is < k
    for i, d in enumerate(degrees):
        if d < k:
            below_k |= 1 << i
    costs: list[float] | None = None
    stack: list[int] = []
    optimistic_picks = 0  # bitset of the nodes pushed optimistically

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

    result = ColoringResult(k=k)
    # Colours open lowest first and never empty, so a colour in use is
    # free for a node iff its class holds only non-neighbours: only the
    # classes of coloured non-neighbours are probed (few, as MVE graphs
    # are dense), and failing those the node opens the next colour.
    classes: list[int] = []  # color -> bitset of nodes holding it
    color_of = [0] * len(nodes)
    colored = 0
    for i in reversed(stack):
        blocked = adj[i] & colored
        color = len(classes)
        probe = colored & ~blocked
        while probe:
            c = color_of[(probe & -probe).bit_length() - 1]
            members = classes[c]
            if c < color and not members & blocked:
                color = c
            probe &= ~members
        if color == k:
            result.spilled.append(nodes[i])
            continue
        bit = 1 << i
        if color == len(classes):
            classes.append(bit)
        else:
            classes[color] |= bit
        colored |= bit
        color_of[i] = color
        result.colors[nodes[i]] = color
        if optimistic_picks & bit:
            result.optimistic_saves += 1
    return result
