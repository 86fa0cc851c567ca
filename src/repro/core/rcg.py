"""The register component graph (RCG).

Nodes are symbolic registers; an undirected weighted edge connects two
registers that the weighting pass wants in the same bank (positive weight)
or in different banks (negative weight).  "The major advantage of the
register component graph is that it abstracts away machine-dependent
details into costs associated with the nodes and edges of the graph"
(Section 4.1) — nothing in this structure knows about clusters, latencies
or schedules; those are encoded entirely by the weighting pass.

There is one graph that partitioners read, :class:`FrozenRCG`: read-only,
array-backed, and carrying the derivations every partitioner needs (CSR
adjacency, greedy placement order, balance-penalty weight scale,
positive-edge component count).  :class:`RegisterComponentGraph` is the
write-only builder the weighting pass (and the whole-function path)
accumulates into; it answers no queries, and its ``freeze`` packs it
into a :class:`FrozenRCG`.

Because the RCG is built from the machine-independent ideal schedule
(Section 4, step 3), the frozen graph of a loop is the same for every
cluster configuration; :class:`~repro.core.cache.ArtifactCache` keeps it
next to the DDG and ideal schedule and shares it across configurations.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain
from operator import attrgetter
from typing import Iterator

from repro.ir.registers import SymbolicRegister


_rid = attrgetter("rid")


def _index_array(values: list[int], bound: int) -> array:
    """``values`` (each below ``bound``) in the narrowest unsigned array
    type: a typical loop's indices fit in a byte."""
    code = "B" if bound <= 1 << 8 else "H" if bound <= 1 << 16 else "Q"
    return array(code, values)


def csr_components(offsets, nbr, wgt, positive_only: bool) -> list[list[int]]:
    """Connected components of a CSR adjacency, as lists of node indices
    in discovery order.  With ``positive_only`` non-positive edges are
    not traversed."""
    n = len(offsets) - 1
    seen = bytearray(n)
    components: list[list[int]] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [root]
        comp: list[int] = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for k in range(offsets[i], offsets[i + 1]):
                if positive_only and wgt[k] <= 0:
                    continue
                j = nbr[k]
                if not seen[j]:
                    seen[j] = 1
                    stack.append(j)
        components.append(comp)
    return components


@dataclass
class RegisterComponentGraph:
    """Weighted undirected graph over symbolic registers, under
    construction: it takes writes only, and :meth:`freeze` packs it into
    the :class:`FrozenRCG` every reader takes."""

    _nodes: dict[int, SymbolicRegister] = field(default_factory=dict)
    _node_weight: dict[int, float] = field(default_factory=dict)
    _edges: dict[tuple[int, int], float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, reg: SymbolicRegister) -> None:
        if reg.rid not in self._nodes:
            self._nodes[reg.rid] = reg
            self._node_weight[reg.rid] = 0.0

    def add_node_weight(self, reg: SymbolicRegister, weight: float) -> None:
        rid = reg.rid
        weights = self._node_weight
        if rid not in self._nodes:
            self._nodes[rid] = reg
            weights[rid] = 0.0
        weights[rid] += weight

    def add_edge_weight(self, a: SymbolicRegister, b: SymbolicRegister, weight: float) -> None:
        """Add ``weight`` to edge (a, b), creating it at 0 if absent.

        Self-edges are meaningless for partitioning (a register is always
        in its own bank) and are rejected.
        """
        arid, brid = a.rid, b.rid
        if arid == brid:
            raise ValueError(f"RCG self-edge on {a}")
        nodes = self._nodes
        if arid not in nodes:
            nodes[arid] = a
            self._node_weight[arid] = 0.0
        if brid not in nodes:
            nodes[brid] = b
            self._node_weight[brid] = 0.0
        key = (arid, brid) if arid <= brid else (brid, arid)
        edges = self._edges
        edges[key] = edges.get(key, 0.0) + weight

    def ingest_tables(self):
        """Direct references to the node/weight/edge tables, for the
        in-package bulk writer (:mod:`repro.core.weights`).

        The caller must perform exactly the per-edge write sequence
        :meth:`add_edge_weight`/:meth:`add_node_weight` would — dict
        insertion orders feed order-dependent float accumulations
        downstream (the greedy weight scale, ``cut_weight``) — but skips
        per-call method dispatch.
        """
        return self._nodes, self._node_weight, self._edges

    def flat_adjacency(self) -> tuple[
        dict[int, int], list[int], list[int], list[int], list[float]
    ]:
        """Build the CSR adjacency over dense node indices:
        ``(index_of, rids, offsets, neighbor_index, neighbor_weight)``.

        ``rids`` lists every node rid ascending; node ``i``'s neighbors
        occupy ``neighbor_index[offsets[i]:offsets[i+1]]`` (as indices
        into ``rids``) in ascending-rid order with matching weights, so
        per-node benefit sums accumulate in a fixed order.  This is the
        construction :meth:`freeze` packs into arrays.
        """
        rids = sorted(self._nodes)
        index_of = {rid: i for i, rid in enumerate(rids)}
        # One pass over the edge keys sorted by (low rid, high rid) fills
        # every node's list already ascending: a node's lower neighbors
        # all arrive (in order) before its higher ones, because every key
        # led by a smaller rid sorts first.
        edges = self._edges
        nbr_of: list[list[int]] = [[] for _ in rids]
        wgt_of: list[list[float]] = [[] for _ in rids]
        for key in sorted(edges):
            w = edges[key]
            ia = index_of[key[0]]
            ib = index_of[key[1]]
            nbr_of[ia].append(ib)
            wgt_of[ia].append(w)
            nbr_of[ib].append(ia)
            wgt_of[ib].append(w)
        offsets = [0, *accumulate(map(len, nbr_of))]
        nbr = list(chain.from_iterable(nbr_of))
        wgt = list(chain.from_iterable(wgt_of))
        return index_of, rids, offsets, nbr, wgt

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def freeze(self) -> "FrozenRCG":
        """The read-only, array-backed form of this graph, packed anew on
        every call."""
        index_of, rids, offsets, nbr, wgt = self.flat_adjacency()
        node_weight = self._node_weight
        weights = [node_weight[rid] for rid in rids]
        # each edge, in insertion order, as its entry in the lower
        # endpoint's CSR slice: replays insertion-order float sums
        edge_pos = [
            bisect_left(nbr, index_of[b], offsets[index_of[a]], offsets[index_of[a] + 1])
            for a, b in self._edges
        ]
        # the greedy balance penalty's scale: the mean positive edge
        # weight, else the mean absolute weight, summed in insertion order
        pos_sum = 0.0
        pos_n = 0
        abs_sum = 0.0
        abs_n = 0
        for w in self._edges.values():
            if w > 0:
                pos_sum += w
                pos_n += 1
            abs_sum += abs(w)
            abs_n += 1
        if pos_n:
            weight_scale = pos_sum / pos_n
        elif abs_n:
            weight_scale = abs_sum / abs_n
        else:
            weight_scale = 1.0
        n = len(rids)
        order = sorted(range(n), key=lambda i: (-weights[i], rids[i]))
        return FrozenRCG(
            regs=tuple(self._nodes[rid] for rid in rids),
            weights=array("d", weights),
            offsets=_index_array(offsets, len(nbr) + 1),
            nbr=_index_array(nbr, n),
            wgt=array("d", wgt),
            edge_pos=_index_array(edge_pos, len(nbr)),
            placement_order=_index_array(order, n),
            weight_scale=weight_scale,
            n_positive_components=len(csr_components(offsets, nbr, wgt, True)),
        )


class FrozenRCG:
    """Read-only register component graph over dense node indices.

    Node ``i`` is the ``i``-th register in ascending rid order.  The
    adjacency is CSR: node ``i``'s neighbors are ``nbr[offsets[i]:
    offsets[i+1]]`` in ascending index (hence rid) order, with the
    matching weights in ``wgt``.  ``edge_pos`` lists every edge in the
    builder's insertion order as its position in the lower endpoint's
    slice, so order-dependent float sums (``cut_weight``) replay the
    builder's order exactly.  All tables are arrays or tuples; attribute
    assignment is rejected.

    Precomputed at freeze time:

    * ``placement_order`` — node indices by decreasing weight, rid
      breaking ties (the Figure-4 greedy placement order);
    * ``weight_scale`` — the greedy balance penalty's scale;
    * ``n_positive_components`` — connected components over positive
      (affinity) edges, as reported in ``LoopMetrics.n_components``.
    """

    __slots__ = (
        "_regs", "_weights", "_offsets", "_nbr", "_wgt", "_edge_pos",
        "placement_order", "weight_scale", "n_positive_components",
    )

    def __init__(self, *, regs, weights, offsets, nbr, wgt, edge_pos,
                 placement_order, weight_scale, n_positive_components):
        values = (regs, weights, offsets, nbr, wgt, edge_pos,
                  placement_order, weight_scale, n_positive_components)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"FrozenRCG is read-only (cannot set {name!r})")

    def __delattr__(self, name):
        raise AttributeError(f"FrozenRCG is read-only (cannot delete {name!r})")

    def index_of(self, rid: int) -> int:
        """Dense index of ``rid``, or -1 if it is not a node."""
        regs = self._regs
        i = bisect_left(regs, rid, key=_rid)
        return i if i < len(regs) and regs[i].rid == rid else -1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._regs)

    def __contains__(self, reg: SymbolicRegister) -> bool:
        return self.index_of(reg.rid) >= 0

    def nodes(self) -> list[SymbolicRegister]:
        """Registers in deterministic (rid) order."""
        return list(self._regs)

    def node_weight(self, reg: SymbolicRegister) -> float:
        i = self.index_of(reg.rid)
        if i < 0:
            raise KeyError(reg.rid)
        return self._weights[i]

    def edge_weight(self, a: SymbolicRegister, b: SymbolicRegister) -> float:
        ia, ib = self.index_of(a.rid), self.index_of(b.rid)
        if ia < 0 or ib < 0:
            return 0.0
        hi = self._offsets[ia + 1]
        k = bisect_left(self._nbr, ib, self._offsets[ia], hi)
        return self._wgt[k] if k < hi and self._nbr[k] == ib else 0.0

    def csr(self) -> tuple[array, array, array]:
        """The CSR adjacency as ``(offsets, nbr, wgt)`` over the dense
        indices of :meth:`nodes`.  The arrays are shared and must not be
        written; :meth:`index_of` maps a rid to its index."""
        return self._offsets, self._nbr, self._wgt

    def neighbors(self, reg: SymbolicRegister) -> Iterator[tuple[SymbolicRegister, float]]:
        """(neighbor, edge weight) pairs in deterministic order."""
        i = self.index_of(reg.rid)
        if i < 0:
            return
        regs, nbr, wgt = self._regs, self._nbr, self._wgt
        for k in range(self._offsets[i], self._offsets[i + 1]):
            yield regs[nbr[k]], wgt[k]

    def edges(self) -> Iterator[tuple[SymbolicRegister, SymbolicRegister, float]]:
        """Every edge once, ordered by (low rid, high rid)."""
        regs, offsets, nbr, wgt = self._regs, self._offsets, self._nbr, self._wgt
        for i in range(len(regs)):
            for k in range(offsets[i], offsets[i + 1]):
                j = nbr[k]
                if j > i:
                    yield regs[i], regs[j], wgt[k]

    @property
    def n_edges(self) -> int:
        return len(self._edge_pos)

    def nodes_by_weight(self) -> list[SymbolicRegister]:
        """Nodes in decreasing weight order (the greedy placement order of
        Figure 4); rid breaks ties for determinism."""
        regs = self._regs
        return [regs[i] for i in self.placement_order]

    # ------------------------------------------------------------------
    # partition-quality accounting (used by reports and tests)
    # ------------------------------------------------------------------
    def cut_weight(self, assignment: dict[int, int]) -> float:
        """Sum of weights of edges whose endpoints land in different banks
        under ``assignment`` (rid -> bank), in the builder's insertion
        order.  A good partition cuts little positive weight and much
        negative weight."""
        regs, offsets, nbr, wgt = self._regs, self._offsets, self._nbr, self._wgt
        total = 0.0
        for k in self._edge_pos:
            ra = regs[bisect_right(offsets, k) - 1].rid
            if assignment.get(ra) != assignment.get(regs[nbr[k]].rid):
                total += wgt[k]
        return total
