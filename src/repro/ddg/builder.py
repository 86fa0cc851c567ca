"""DDG construction from loop bodies and straight-line blocks.

Register dependences follow the standard modulo-scheduling convention for
single-assignment bodies: a use that textually precedes (or coincides
with) its definition reads the *previous* iteration's value, giving a
loop-carried flow edge of distance 1; a use after its definition is a
same-iteration edge of distance 0.  Memory dependences are derived from
the symbolic array references: ``arr[i+a]`` in iteration ``k`` and
``arr[i+b]`` in iteration ``k+d`` collide exactly when ``d == a - b``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ddg.analysis import install_index, scc_membership
from repro.ddg.dependence import DepKind, Dependence
from repro.ddg.graph import DDG
from repro.ir.block import BasicBlock, Loop
from repro.ir.operations import Operation
from repro.machine.latency import LatencyTable, PAPER_LATENCIES

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.copies import PartitionedLoop

#: issue-separation required by memory ordering (anti/output) edges; the
#: memory system is assumed to retire same-cycle accesses in program
#: order is *not* assumed, so one cycle of separation is enforced.
MEM_ORDER_DELAY = 1


def build_loop_ddg(loop: Loop, latencies: LatencyTable = PAPER_LATENCIES) -> DDG:
    """Build the cyclic DDG for a single-block innermost loop."""
    ddg = DDG(ops=list(loop.ops))
    _add_register_flow_edges(ddg, loop.ops, latencies, cyclic=True)
    _add_memory_edges(ddg, loop.ops, latencies, cyclic=True)
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
    source order.  The result equals ``build_loop_ddg(partitioned.loop,
    latencies)`` edge for edge, in insertion order, without the pairwise
    memory search.

    Its analysis index is installed from ``source``'s SCC membership, so
    Tarjan does not run: a clone keeps its source's SCC, and a copy joins
    its def's SCC if one of its consumers is in it (the split edge lies on
    a cycle), else it is a singleton.
    """
    op_map = partitioned.op_map
    if len(op_map) != len(source.ops):
        raise ValueError("source DDG is not the DDG of the partitioned loop's source")
    src_scc = scc_membership(source)
    origin: dict[int, Operation] = {}
    scc_by_id: dict[int, int] = {}
    for i, op in enumerate(source.ops):
        clone = op_map[op.op_id]
        origin[clone.op_id] = op
        scc_by_id[clone.op_id] = src_scc[i]

    ddg = DDG(ops=list(partitioned.loop.ops))
    succs, preds, keys = ddg._succs, ddg._preds, ddg._edge_keys
    flow = DepKind.FLOW
    copy_for = partitioned.copy_for
    copies: list[tuple[Operation, Operation]] = []  # (copy, its def)
    owner: Operation | None = None  # the last clone: a copy's def
    for op in ddg.ops:
        oid = op.op_id
        src_op = origin.get(oid)
        if src_op is None:
            copies.append((op, owner))
            dep = Dependence(owner, op, flow, latencies.of(owner), 0, op.sources[0])
            succs[owner.op_id].append(dep)
            preds[oid].append(dep)
            keys.add((owner.op_id, oid, flow, 0))
            continue
        owner = op
        for e in source.predecessors(src_op):
            if e.kind is not flow:
                continue
            cp = copy_for.get((e.reg.rid, op.cluster))
            if cp is None:
                dep = Dependence(op_map[e.src.op_id], op, flow, e.delay, e.distance, e.reg)
            else:
                dep = Dependence(cp, op, flow, latencies.of(cp), e.distance, cp.dest)
            sid = dep.src.op_id
            succs[sid].append(dep)
            preds[oid].append(dep)
            keys.add((sid, oid, flow, dep.distance))
    for src_op in source.ops:
        a = op_map[src_op.op_id]
        for e in source.successors(src_op):
            if e.kind is not flow:
                b = op_map[e.dst.op_id]
                dep = Dependence(a, b, e.kind, e.delay, e.distance)
                succs[a.op_id].append(dep)
                preds[b.op_id].append(dep)
                keys.add((a.op_id, b.op_id, e.kind, e.distance))
    ddg._version += 1
    ddg.verify_acyclic_at_distance_zero()

    fresh = max(src_scc, default=-1) + 1
    for cp, def_op in copies:
        sid = scc_by_id[def_op.op_id]
        if not any(scc_by_id[e.dst.op_id] == sid for e in succs[cp.op_id]):
            sid, fresh = fresh, fresh + 1
        scc_by_id[cp.op_id] = sid
    install_index(ddg, [scc_by_id[op.op_id] for op in ddg.ops])
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
            ddg.add_edge(
                Dependence(
                    src=def_op,
                    dst=use_op,
                    kind=DepKind.FLOW,
                    delay=latencies.of(def_op),
                    distance=distance,
                    reg=reg,
                )
            )


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
                    ddg.add_edge(
                        Dependence(a, a, DepKind.MEM_OUTPUT, MEM_ORDER_DELAY, 1)
                    )
                continue
            j, b = mem_ops[bi]
            if not (a.writes_mem or b.writes_mem):
                continue  # read-read
            dep = _memory_dependence(i, a, j, b, latencies, cyclic)
            if dep is not None:
                ddg.add_edge(dep)


def _memory_dependence(
    i: int,
    a: Operation,
    j: int,
    b: Operation,
    latencies: LatencyTable,
    cyclic: bool,
) -> Dependence | None:
    """Dependence a -> b if some dynamic instance of ``a`` precedes and
    conflicts with an instance of ``b``, at the minimal distance."""
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

    kind, delay = _mem_kind_and_delay(a, b, latencies)
    return Dependence(a, b, kind, delay, distance)


def _mem_kind_and_delay(
    a: Operation, b: Operation, latencies: LatencyTable
) -> tuple[DepKind, int]:
    if a.writes_mem and b.reads_mem:
        return DepKind.MEM_FLOW, latencies.of(a)
    if a.reads_mem and b.writes_mem:
        return DepKind.MEM_ANTI, MEM_ORDER_DELAY
    return DepKind.MEM_OUTPUT, MEM_ORDER_DELAY
