"""DDG construction from loop bodies and straight-line blocks.

Register dependences follow the standard modulo-scheduling convention for
single-assignment bodies: a use that textually precedes (or coincides
with) its definition reads the *previous* iteration's value, giving a
loop-carried flow edge of distance 1; a use after its definition is a
same-iteration edge of distance 0.  Memory dependences are derived from
the symbolic array references: ``arr[i+a]`` in iteration ``k`` and
``arr[i+b]`` in iteration ``k+d`` collide exactly when ``d == a - b``.

Edges go straight into the graph's int rows (:meth:`DDG.add_row`, by op
index); no edge object is built here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ddg.graph import DDG, AnalysisIndex, DepKind, Row
from repro.ir.block import BasicBlock, Loop
from repro.ir.operations import Operation
from repro.machine.latency import LatencyTable, PAPER_LATENCIES

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.copies import PartitionedLoop

#: issue-separation required by memory ordering (anti/output) edges; the
#: memory system is assumed to retire same-cycle accesses in program
#: order is *not* assumed, so one cycle of separation is enforced.
MEM_ORDER_DELAY = 1
FLOW = DepKind.FLOW


def build_loop_ddg(loop: Loop, latencies: LatencyTable = PAPER_LATENCIES) -> DDG:
    """Build the cyclic DDG for a single-block innermost loop."""
    ddg = DDG(ops=list(loop.ops))
    _add_register_flow_edges(ddg, loop.ops, latencies, cyclic=True)
    _add_memory_edges(ddg, loop.ops, latencies, cyclic=True)
    ddg._keys = None  # the coalescing map is only rebuilt if an edge is added
    ddg.verify_acyclic_at_distance_zero()
    return ddg


def derive_partitioned_ddg(
    source: DDG,
    partitioned: "PartitionedLoop",
    latencies: LatencyTable = PAPER_LATENCIES,
) -> DDG:
    """The DDG of ``partitioned.loop``, derived from ``source`` instead of
    rebuilt.

    ``source`` is the DDG of the loop ``partitioned`` was rewritten from,
    built with the same ``latencies``.  Copy insertion (Section 4, step
    4) renames every operation and splits some register flow edges with
    a copy placed right after the value's definition; it never touches
    memory.  So, walking the rewritten body in order, a body copy gets
    one flow edge from its def; a cloned operation takes its source's
    flow predecessors in stored order, each read through a copy now
    coming from that copy at the same distance (the copy sits where its
    def does relative to the use); memory edges follow, remapped in
    source edge (index) order.  The rows equal those of
    ``build_loop_ddg(partitioned.loop, latencies)`` in insertion order,
    without the pairwise memory search and without one edge object.

    Its analysis index is built with ``source``'s SCC membership, so
    Tarjan does not run: a clone keeps its source's SCC, and a copy joins
    its def's SCC if one of its consumers is in it (the split edge lies on
    a cycle), else it is a singleton.  ``source``'s per-op flow
    predecessors and its memory rows are split out once per graph
    version and memoised on its index, since every cluster count derives
    from the same source.
    """
    origin = partitioned.origin
    src_index = source.index()
    if len(origin) - partitioned.n_body_copies != src_index.n:
        raise ValueError("source DDG is not the DDG of the partitioned loop's source")
    ddg = DDG(ops=list(partitioned.loop.ops))
    n = len(origin)
    new_of = [0] * src_index.n  # source index -> derived index
    scc_of = [-1] * n
    src_scc = src_index.scc_of
    for j, i in enumerate(origin):
        if i >= 0:
            new_of[i] = j
            scc_of[j] = src_scc[i]
    # per-op flow rows in insertion order, and the other rows in index
    # edge order: the same for every partition of this source graph version
    if src_index.derive_rows is None:
        src_rows = source.rows
        flow_in: list[list[Row]] = [[] for _ in range(src_index.n)]
        for row in src_rows:
            if row[2] is FLOW:
                flow_in[row[1]].append(row)
        src_index.derive_rows = (flow_in, [
            src_rows[r][:5] for r in src_index.edge_row if src_rows[r][2] is not FLOW
        ])
    flow_in, mem_rows = src_index.derive_rows

    ops = ddg.ops
    rows = ddg.rows
    append = rows.append
    copy_at = partitioned.copy_at
    def_of: dict[int, int] = {}  # copy -> its def
    copy_uses: list[tuple[int, int]] = []  # (copy, consumer)
    owner = -1  # the last clone: a copy's def
    for j, i in enumerate(origin):
        if i < 0:
            def_of[j] = owner
            append((owner, j, FLOW, latencies.of(ops[owner]), 0, ops[j].sources[0]))
            continue
        owner = j
        rows_in = flow_in[i]
        if not rows_in:
            continue
        cluster = ops[j].cluster
        for s, _, _, delay, distance, reg in rows_in:
            c = copy_at.get((reg.rid, cluster))
            if c is None:
                append((new_of[s], j, FLOW, delay, distance, reg))
            else:
                copy_uses.append((c, j))
                cp = ops[c]
                append((c, j, FLOW, latencies.of(cp), distance, cp.dest))
    for s, d, kind, delay, distance in mem_rows:
        append((new_of[s], new_of[d], kind, delay, distance, None))
    ddg._keys = None  # built from the rows if an edge is ever added

    joined = {c for c, j in copy_uses if scc_of[j] == scc_of[def_of[c]]}
    fresh = max(src_scc, default=-1) + 1
    for c, def_idx in def_of.items():
        if c in joined:
            scc_of[c] = scc_of[def_idx]
        else:
            scc_of[c], fresh = fresh, fresh + 1
    ddg._analysis_index = (ddg._version, AnalysisIndex(ddg, scc_of))
    ddg.verify_acyclic_at_distance_zero()
    return ddg


def build_block_ddg(block: BasicBlock, latencies: LatencyTable = PAPER_LATENCIES) -> DDG:
    """Build the acyclic DDG for straight-line code (whole-function path).

    Uses must follow their definitions in a basic block; loop-carried
    conventions do not apply, so a use with no earlier definition is
    simply an external input with no edge.
    """
    ddg = DDG(ops=list(block.ops))
    _add_register_flow_edges(ddg, block.ops, latencies, cyclic=False)
    _add_memory_edges(ddg, block.ops, latencies, cyclic=False)
    ddg.verify_acyclic_at_distance_zero()
    return ddg


# ----------------------------------------------------------------------
def _add_register_flow_edges(
    ddg: DDG, ops: list[Operation], latencies: LatencyTable, cyclic: bool
) -> None:
    def_index: dict[int, tuple[int, Operation]] = {}
    for i, op in enumerate(ops):
        if op.dest is not None:
            def_index[op.dest.rid] = (i, op)

    for j, use_op in enumerate(ops):
        for reg in use_op.used():
            entry = def_index.get(reg.rid)
            if entry is None:
                continue  # live-in: produced outside the loop
            i, def_op = entry
            if i < j:
                distance = 0
            else:
                if not cyclic:
                    # In straight-line code a use cannot precede its def;
                    # the verifier catches this for loops, but blocks built
                    # directly may legitimately read an external input that
                    # is *re*defined later -- that is an anti-dependence-free
                    # pattern under single assignment, so no edge is due.
                    continue
                distance = 1
            ddg.add_row(i, j, FLOW, latencies.of(def_op), distance, reg)


def _add_memory_edges(
    ddg: DDG, ops: list[Operation], latencies: LatencyTable, cyclic: bool
) -> None:
    mem_ops = [(i, op) for i, op in enumerate(ops) if op.mem is not None]
    for ai in range(len(mem_ops)):
        i, a = mem_ops[ai]
        for bi in range(len(mem_ops)):
            if ai == bi:
                # self memory dependence: a store to a scalar collides with
                # itself across iterations (output dep, distance 1)
                if cyclic and a.writes_mem and a.mem is not None and a.mem.scalar:
                    ddg.add_row(i, i, DepKind.MEM_OUTPUT, MEM_ORDER_DELAY, 1, None)
                continue
            j, b = mem_ops[bi]
            if not (a.writes_mem or b.writes_mem):
                continue  # read-read
            dep = _memory_dependence(i, a, j, b, latencies, cyclic)
            if dep is not None:
                ddg.add_row(i, j, *dep, None)


def _memory_dependence(
    i: int,
    a: Operation,
    j: int,
    b: Operation,
    latencies: LatencyTable,
    cyclic: bool,
) -> tuple[DepKind, int, int] | None:
    """(kind, delay, distance) of the dependence a -> b if some dynamic
    instance of ``a`` precedes and conflicts with an instance of ``b``, at
    the minimal distance."""
    assert a.mem is not None and b.mem is not None
    if a.mem.array != b.mem.array:
        return None

    if a.mem.scalar or b.mem.scalar:
        if not (a.mem.scalar and b.mem.scalar):
            return None  # scalar and array spaces are disjoint by construction
        distance = 0 if i < j else 1
    else:
        d = a.mem.same_location_distance(b.mem)
        if d is None:
            return None
        if d == 0 and i >= j:
            return None
        distance = d

    if not cyclic:
        if distance > 0 or i >= j:
            return None
        distance = 0

    return (*_mem_kind_and_delay(a, b, latencies), distance)


def _mem_kind_and_delay(
    a: Operation, b: Operation, latencies: LatencyTable
) -> tuple[DepKind, int]:
    if a.writes_mem and b.reads_mem:
        return DepKind.MEM_FLOW, latencies.of(a)
    if a.reads_mem and b.writes_mem:
        return DepKind.MEM_ANTI, MEM_ORDER_DELAY
    return DepKind.MEM_OUTPUT, MEM_ORDER_DELAY
