"""The DDG container: one edge store, and the analysis index built from it.

Operations are nodes (by position in ``ops``).  Edges are stored once, as
insertion-ordered int rows ``(src index, dst index, kind, delay,
distance, reg)``.  Everything else is derived from the rows on first use
and cached per graph version (a counter every mutation bumps):

* the :class:`AnalysisIndex` — the edges as int arrays in ``edges()``
  order with CSR out-edge ranges, the distance-0 topological order and
  the SCC condensation — which the analyses, the modulo scheduler and
  the schedule validator read;
* the :class:`~repro.ddg.dependence.Dependence` lists behind
  :meth:`DDG.successors`, :meth:`DDG.predecessors` and :meth:`DDG.edges`,
  built only for the consumers that ask for edge objects (Swing, the
  list scheduler, the simulator and the check oracles).

No graph of the paper grid builds one: the source DDG is scheduled,
weighted into the RCG (its slack comes from the index) and measured, and
the partitioned DDG derived by
:func:`repro.ddg.builder.derive_partitioned_ddg` is scheduled, validated,
measured and register-allocated, all from the int rows.  The coalescing map behind
:meth:`DDG.add_row` is dropped once a builder is done and rebuilt only
if an edge is added later.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator

from repro.ddg.dependence import Dependence, DepKind
from repro.ir.operations import Operation
from repro.ir.registers import SymbolicRegister

#: one stored edge: (src index, dst index, kind, delay, distance, reg)
Row = tuple[int, int, DepKind, int, int, "SymbolicRegister | None"]


class DDG:
    """Data dependence graph over a fixed operation list."""

    def __init__(self, ops: list[Operation]) -> None:
        self.ops = ops
        self._index = {op.op_id: i for i, op in enumerate(ops)}
        if len(self._index) != len(ops):
            raise ValueError("duplicate operations in DDG")
        #: the edge store, in insertion order
        self.rows: list[Row] = []
        #: (src, dst, kind, distance) -> row, for coalescing; None until
        #: first needed on a graph whose rows were written in bulk
        self._keys: dict[tuple[int, int, DepKind, int], int] | None = {}
        #: bumped on every mutation; every cache below is keyed by it
        self._version = 0
        self._analysis_index: tuple[int, AnalysisIndex] | None = None
        self._deps: tuple[int, list, list, list] | None = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __contains__(self, op: Operation) -> bool:
        return op.op_id in self._index

    def index_of(self, op: Operation) -> int:
        return self._index[op.op_id]

    def add_edge(self, dep: Dependence) -> Dependence | None:
        """Insert ``dep``; duplicate (src, dst, kind, distance) edges are
        coalesced by keeping the larger delay.  Returns ``dep`` if it was
        stored (``None`` if an existing edge subsumed it)."""
        s = self._index.get(dep.src.op_id)
        d = self._index.get(dep.dst.op_id)
        if s is None or d is None:
            raise ValueError("dependence endpoints must be DDG operations")
        stored = self.add_row(s, d, dep.kind, dep.delay, dep.distance, dep.reg)
        return dep if stored else None

    def add_row(
        self, s: int, d: int, kind: DepKind, delay: int, distance: int,
        reg: SymbolicRegister | None,
    ) -> bool:
        """:meth:`add_edge` on op indices; False if an existing row with
        the same (src, dst, kind, distance) key has at least this delay."""
        keys = self._key_rows()
        key = (s, d, kind, distance)
        k = keys.get(key)
        if k is None:
            keys[key] = len(self.rows)
            self.rows.append((s, d, kind, delay, distance, reg))
        elif delay > self.rows[k][3]:
            self.rows[k] = (s, d, kind, delay, distance, reg)
        else:
            return False
        self._version += 1
        return True

    def _key_rows(self) -> dict[tuple[int, int, DepKind, int], int]:
        """The coalescing map: (src, dst, kind, distance) -> row."""
        if self._keys is None:
            self._keys = {
                (r[0], r[1], r[2], r[4]): k for k, r in enumerate(self.rows)
            }
        return self._keys

    @property
    def n_edges(self) -> int:
        return len(self.rows)

    def index(self) -> "AnalysisIndex":
        """The cached :class:`AnalysisIndex` of the current graph state."""
        cached = self._analysis_index
        if cached is None or cached[0] != self._version:
            cached = self._analysis_index = (self._version, AnalysisIndex(self))
        return cached[1]

    # ------------------------------------------------------------------
    # Dependence objects, on demand
    # ------------------------------------------------------------------
    def dependence(self, row: int) -> Dependence:
        """A fresh :class:`Dependence` for stored row ``row``."""
        s, d, kind, delay, distance, reg = self.rows[row]
        return Dependence(self.ops[s], self.ops[d], kind, delay, distance, reg)

    def _dependences(self) -> tuple[int, list, list, list]:
        cached = self._deps
        if cached is not None and cached[0] == self._version:
            return cached
        ops = self.ops
        succs: list[list[Dependence]] = [[] for _ in ops]
        preds: list[list[Dependence]] = [[] for _ in ops]
        for s, d, kind, delay, distance, reg in self.rows:
            dep = Dependence(ops[s], ops[d], kind, delay, distance, reg)
            succs[s].append(dep)
            preds[d].append(dep)
        edges = [dep for out in succs for dep in out]
        self._deps = (self._version, succs, preds, edges)
        return self._deps

    def successors(self, op: Operation) -> list[Dependence]:
        """Out-edges of ``op`` in insertion order."""
        return self._dependences()[1][self._index[op.op_id]]

    def predecessors(self, op: Operation) -> list[Dependence]:
        """In-edges of ``op`` in insertion order."""
        return self._dependences()[2][self._index[op.op_id]]

    def edges(self) -> Iterator[Dependence]:
        """Every edge, by source operation and then insertion order."""
        return iter(self._dependences()[3])

    def loop_carried_edges(self) -> list[Dependence]:
        return [e for e in self.edges() if e.is_loop_carried]

    def intra_iteration_edges(self) -> list[Dependence]:
        return [e for e in self.edges() if not e.is_loop_carried]

    # ------------------------------------------------------------------
    def verify_acyclic_at_distance_zero(self) -> None:
        """Check that distance-0 edges form a DAG (a well-formed loop body
        cannot require a value before it is produced within the same
        iteration).  Raises ``ValueError`` otherwise."""
        if self.index().rev_topo0 is None:
            raise ValueError("distance-0 dependence cycle: loop body is malformed")

    def topological_order(self) -> list[Operation]:
        """Topological order of the distance-0 subgraph."""
        self.verify_acyclic_at_distance_zero()
        return [self.ops[v] for v in reversed(self.index().rev_topo0)]

    def subgraph_view(self, keep: Iterable[Operation]) -> "DDG":
        """A new DDG over ``keep`` with the induced edges (used by tests)."""
        keep_ids = {op.op_id for op in keep}
        g = DDG(ops=[op for op in self.ops if op.op_id in keep_ids])
        for e in self.edges():
            if e.src.op_id in keep_ids and e.dst.op_id in keep_ids:
                g.add_edge(e)
        return g


# ----------------------------------------------------------------------
# Analysis index: int edge arrays, distance-0 order, SCC condensation
# ----------------------------------------------------------------------
class SCC:
    """One cyclic strongly connected component, in local index space."""

    __slots__ = ("nodes", "esrc", "edst", "edelay", "edist", "delay_sum",
                 "self_lo", "zero_distance_cycle")

    def __init__(self, nodes: list[int]) -> None:
        self.nodes = nodes            # global node indices, for diagnostics
        self.esrc: list[int] = []     # internal edges, local endpoints,
        self.edst: list[int] = []     # in global edges() order
        self.edelay: list[int] = []
        self.edist: list[int] = []
        self.delay_sum = 0
        self.self_lo = 1              # ceil(delay/distance) over self-edges
        self.zero_distance_cycle = False

    @property
    def trivial(self) -> bool:
        """A single node whose only cycles are its own self-edges; RecII
        resolves arithmetically (mediant inequality: composite self-loop
        ratios never exceed the max single-edge ratio)."""
        return len(self.nodes) == 1


class AnalysisIndex:
    """The edge rows of one DDG state as int arrays, plus what every
    analysis derives from them once.

    Edge ``k`` is the ``k``-th edge of ``ddg.edges()`` (row
    ``edge_row[k]``); ``out_edges[v]`` is the range of ``v``'s out-edges
    (CSR).  ``rev_topo0`` is the one distance-0 topological sort (sinks
    first; ``None`` if distance-0 edges form a cycle).  ``scc_of`` (an
    SCC id per node) is Tarjan's unless the caller already knows the
    membership (:func:`repro.ddg.builder.derive_partitioned_ddg`); the ids
    only group nodes, and ``cyclic_sccs`` lists the cyclic components by
    smallest member, so any labelling of the same partition yields the
    same index.  ``rec_ii`` and ``res_ii`` (per machine shape) memoise
    :func:`repro.ddg.analysis.recurrence_ii` (once it has succeeded) and
    :func:`~repro.ddg.analysis.resource_ii`, and ``derive_rows`` the rows
    :func:`repro.ddg.builder.derive_partitioned_ddg` reads.
    """

    __slots__ = ("n", "m", "op_ids", "edge_row", "src", "dst", "delay", "dist",
                 "out_edges", "rev_topo0", "scc_of", "cyclic_sccs", "rec_ii", "res_ii",
                 "derive_rows")

    def __init__(self, ddg: DDG, scc_of: list[int] | None = None) -> None:
        self.n = n = len(ddg.ops)
        self.op_ids = [op.op_id for op in ddg.ops]
        rows = ddg.rows
        self.m = len(rows)
        esrc = [r[0] for r in rows]
        order = sorted(range(self.m), key=esrc.__getitem__)  # stable
        self.edge_row = order
        self.src = src = [esrc[k] for k in order]
        self.dst = [rows[k][1] for k in order]
        self.delay = [rows[k][3] for k in order]
        self.dist = [rows[k][4] for k in order]
        bounds = [bisect_left(src, v) for v in range(n + 1)]
        self.out_edges = [range(bounds[v], bounds[v + 1]) for v in range(n)]
        self.rev_topo0 = self._reverse_topo_distance0()
        self.scc_of = self._tarjan() if scc_of is None else scc_of
        self.cyclic_sccs = self._condense()
        self.rec_ii: int | None = None
        self.res_ii: dict[tuple, int] = {}
        self.derive_rows: tuple | None = None

    # ------------------------------------------------------------------
    def _reverse_topo_distance0(self) -> list[int] | None:
        """Kahn's algorithm on distance-0 edges: a stack seeded in op
        order, successors followed in insertion order; sinks first."""
        dst, dist, out_edges = self.dst, self.dist, self.out_edges
        indeg = [0] * self.n
        for k in range(self.m):
            if dist[k] == 0:
                indeg[dst[k]] += 1
        ready = [v for v in range(self.n) if indeg[v] == 0]
        order: list[int] = []
        while ready:
            v = ready.pop()
            order.append(v)
            for k in out_edges[v]:
                if dist[k] == 0:
                    w = dst[k]
                    indeg[w] -= 1
                    if indeg[w] == 0:
                        ready.append(w)
        if len(order) != self.n:
            return None  # distance-0 cycle: malformed body
        order.reverse()
        return order

    # ------------------------------------------------------------------
    def _condense(self) -> list[SCC]:
        """Cyclic SCCs ordered by smallest member index, whatever the ids."""
        scc_of, src, dst = self.scc_of, self.src, self.dst
        n_sccs = max(scc_of, default=-1) + 1
        members: list[list[int]] = [[] for _ in range(n_sccs)]
        for v in range(self.n):
            members[scc_of[v]].append(v)
        has_self = [False] * n_sccs
        for k in range(self.m):
            if src[k] == dst[k]:
                has_self[scc_of[src[k]]] = True

        cyclic: dict[int, SCC] = {}
        local_pos: dict[int, int] = {}
        for sid in range(n_sccs):
            if len(members[sid]) > 1 or has_self[sid]:
                scc = SCC(members[sid])
                cyclic[sid] = scc
                for pos, v in enumerate(members[sid]):
                    local_pos[v] = pos
        if not cyclic:
            return []

        for k in range(self.m):  # global order keeps probes deterministic
            sid = scc_of[src[k]]
            if sid != scc_of[dst[k]] or sid not in cyclic:
                continue
            scc = cyclic[sid]
            delay, dist = self.delay[k], self.dist[k]
            scc.esrc.append(local_pos[src[k]])
            scc.edst.append(local_pos[dst[k]])
            scc.edelay.append(delay)
            scc.edist.append(dist)
            scc.delay_sum += delay
            if src[k] == dst[k]:
                if dist > 0:
                    scc.self_lo = max(scc.self_lo, -(-delay // dist))
                elif delay > 0:
                    scc.zero_distance_cycle = True
        return sorted(cyclic.values(), key=lambda scc: scc.nodes[0])

    # ------------------------------------------------------------------
    def _tarjan(self) -> list[int]:
        """Iterative Tarjan; returns the SCC id of every node."""
        UNSEEN = -1
        index = [UNSEEN] * self.n
        low = [0] * self.n
        onstack = [False] * self.n
        stack: list[int] = []
        scc_of = [UNSEEN] * self.n
        counter = 0
        n_sccs = 0
        # successor node lists, self-loops are harmless
        succ = [self.dst[r.start:r.stop] for r in self.out_edges]
        for root in range(self.n):
            if index[root] != UNSEEN:
                continue
            work: list[tuple[int, int]] = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    onstack[v] = True
                descended = False
                adj = succ[v]
                for i in range(pi, len(adj)):
                    w = adj[i]
                    if index[w] == UNSEEN:
                        work[-1] = (v, i + 1)
                        work.append((w, 0))
                        descended = True
                        break
                    if onstack[w] and index[w] < low[v]:
                        low[v] = index[w]
                if descended:
                    continue
                work.pop()
                if low[v] == index[v]:
                    while True:
                        x = stack.pop()
                        onstack[x] = False
                        scc_of[x] = n_sccs
                        if x == v:
                            break
                    n_sccs += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
        return scc_of
