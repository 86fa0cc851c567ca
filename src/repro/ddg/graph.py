"""The DDG container: one edge store, and the analysis index built from it.

Operations are nodes (by position in ``ops``).  Edges are stored once, as
insertion-ordered int rows ``(src index, dst index, kind, delay,
distance, reg)``.  For a row ``src -> dst`` with delay ``d`` and
iteration distance ``k`` every modulo schedule satisfies

    time(dst) >= time(src) + d - k * II.

Register edges are flow (true) dependences only: loop bodies are
single-assignment per iteration, so register anti/output hazards are a
register-allocation concern (modulo variable expansion,
:mod:`repro.regalloc.mve`), as in Rau's formulation.  A flow row names
its register; memory rows (all three kinds, distances derived from the
symbolic array references) carry ``None``.

The rows are the only edge view.  Everything else is derived from them on
first use and cached per graph version (a counter every mutation bumps):
the :class:`AnalysisIndex` holds the edges as int arrays sorted by source
(stable, so each node's out-edges keep insertion order) with CSR
out-edge ranges, the distance-0 topological order and the SCC
condensation.  Every analysis, scheduler, partitioner, validator,
simulator and the register allocator reads an edge ``k`` off those
arrays, and its kind and register off ``rows[edge_row[k]]``.  The
coalescing map behind :meth:`DDG.add_row` is dropped once a builder is
done and rebuilt only if an edge is added later.
"""

from __future__ import annotations

import enum
from bisect import bisect_left

from repro.ir.operations import Operation
from repro.ir.registers import SymbolicRegister


class DepKind(enum.Enum):
    FLOW = "flow"            # register true dependence
    MEM_FLOW = "mem_flow"    # store -> load, same location
    MEM_ANTI = "mem_anti"    # load -> store, same location
    MEM_OUTPUT = "mem_out"   # store -> store, same location

    @property
    def is_memory(self) -> bool:
        return self is not DepKind.FLOW


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

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __contains__(self, op: Operation) -> bool:
        return op.op_id in self._index

    def index_of(self, op: Operation) -> int:
        return self._index[op.op_id]

    def add_row(
        self, s: int, d: int, kind: DepKind, delay: int, distance: int,
        reg: SymbolicRegister | None,
    ) -> bool:
        """Store an edge on op indices.  Duplicate (src, dst, kind,
        distance) edges are coalesced by keeping the larger delay: False
        if an existing row with the same key has at least this delay."""
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
    def verify_acyclic_at_distance_zero(self) -> None:
        """Check that distance-0 edges form a DAG (a well-formed loop body
        cannot require a value before it is produced within the same
        iteration).  Raises ``ValueError`` otherwise."""
        if self.index().rev_topo0 is None:
            raise ValueError("distance-0 dependence cycle: loop body is malformed")


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
        self.edst: list[int] = []     # in global edge order
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

    Edge ``k`` is row ``edge_row[k]``, edges sorted stably by source;
    ``out_edges[v]`` is the range of ``v``'s out-edges (CSR), in
    insertion order, and :meth:`in_edges` lists each node's in-edges on
    first use.  ``rev_topo0`` is the one distance-0 topological sort (sinks
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
                 "derive_rows", "_in_edges")

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
        self._in_edges: list[list[int]] | None = None

    def in_edges(self) -> list[list[int]]:
        """Each node's in-edge ids, ascending; built once, on first use."""
        if self._in_edges is None:
            ins: list[list[int]] = [[] for _ in range(self.n)]
            for k, d in enumerate(self.dst):
                ins[d].append(k)
            self._in_edges = ins
        return self._in_edges

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
