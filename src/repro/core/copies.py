"""Copy insertion and cluster pinning (paper Section 4, step 4).

Once registers are partitioned into banks, each operation is pinned to
the cluster that owns its result's bank (a functional unit writes only
its own cluster's bank); stores run where their stored value lives.  Any
source operand living in a different bank then needs an explicit copy:

* values **defined in the body** get a copy operation inserted directly
  after their definition, executing on the destination cluster (and, in
  the copy-unit model, occupying a copy port and a bus instead of an FU
  slot); one copy per (value, destination cluster) is shared by all
  consumers there;
* **loop-invariant live-ins** are copied once in the loop preheader — the
  copy costs nothing per iteration and does not constrain the kernel, so
  it is recorded but not materialized as a body operation.

Copy placement interacts with modulo scheduling exactly as the paper
warns: a copy inserted on a recurrence cycle lengthens that recurrence and
can raise the achievable II (this is the phenomenon Nystrom and
Eichenberger's iterative method tries to avoid, Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.greedy import Partition
from repro.ir.block import BasicBlock, Loop
from repro.ir.operations import Operation, make_copy
from repro.ir.registers import RegisterFactory, SymbolicRegister
from repro.machine.machine import MachineDescription


@dataclass
class PartitionedLoop:
    """A loop rewritten for a clustered machine.

    ``loop`` is a fresh Loop (cloned operations, fresh factory) with every
    operation's ``cluster`` set and all cross-bank reads rewritten through
    copy registers.  ``partition`` extends the input partition with the
    copy destinations.  ``op_map`` links original op_ids to their clones
    so metrics can correlate ideal and partitioned schedules.
    """

    loop: Loop
    partition: Partition
    body_copies: list[Operation] = field(default_factory=list)
    preheader_copies: list[tuple[SymbolicRegister, SymbolicRegister]] = field(
        default_factory=list
    )
    op_map: dict[int, Operation] = field(default_factory=dict)
    #: rid of a copy-destination register -> the original register it
    #: shadows (used e.g. to translate spill candidates back to the
    #: pre-partition loop)
    copy_origin: dict[int, SymbolicRegister] = field(default_factory=dict)
    #: (source register rid, consuming cluster) -> the body copy serving
    #: it; :func:`repro.ddg.builder.derive_partitioned_ddg` splits flow
    #: edges with it.  Preheader copies have no entry.
    copy_for: dict[tuple[int, int], Operation] = field(default_factory=dict)

    @property
    def n_body_copies(self) -> int:
        return len(self.body_copies)

    @property
    def n_preheader_copies(self) -> int:
        return len(self.preheader_copies)


def insert_copies(
    loop: Loop, partition: Partition, machine: MachineDescription,
    tracer: "object | None" = None,
) -> PartitionedLoop:
    """Pin operations to clusters and insert the required copies.

    The input ``loop`` and ``partition`` are not modified; the result
    carries extended copies of both.  ``tracer`` (an opt-in
    :mod:`repro.obs` hook, None = disabled) records one span with the
    copy counts; it never affects the rewrite.
    """
    if tracer is not None:
        with tracer.span("insert_copies", cat="substep") as sp:
            result = insert_copies(loop, partition, machine)
            sp.set(body_copies=result.n_body_copies,
                   preheader_copies=result.n_preheader_copies)
            return result
    if machine.n_clusters != partition.n_banks:
        raise ValueError(
            f"partition has {partition.n_banks} banks but machine "
            f"{machine.name!r} has {machine.n_clusters} clusters"
        )

    part = partition.copy()
    factory = RegisterFactory()

    # 1. clone operations and pin clusters
    new_ops: list[Operation] = []
    op_map: dict[int, Operation] = {}
    for op in loop.ops:
        clone = op.clone()
        clone.cluster = _home_cluster(clone, part)
        op_map[op.op_id] = clone
        new_ops.append(clone)

    # 2. collect cross-bank reads: (source register, consuming cluster)
    needed: dict[tuple[int, int], list[Operation]] = {}
    reg_by_rid: dict[int, SymbolicRegister] = {}
    for op in new_ops:
        for src in op.used():
            reg_by_rid[src.rid] = src
            if part.bank_of(src) != op.cluster:
                needed.setdefault((src.rid, op.cluster), []).append(op)

    defined_at: dict[int, int] = {
        op.dest.rid: idx for idx, op in enumerate(new_ops) if op.dest is not None
    }

    # 3. mint copy registers, create copies, rewrite consumers
    body_copies: list[Operation] = []
    preheader_copies: list[tuple[SymbolicRegister, SymbolicRegister]] = []
    insertions: dict[int, list[Operation]] = {}
    new_live_in = set(loop.live_in)

    copy_origin: dict[int, SymbolicRegister] = {}
    copy_for: dict[tuple[int, int], Operation] = {}
    for (src_rid, cluster), consumers in sorted(needed.items()):
        src = reg_by_rid[src_rid]
        copy_reg = factory.new(src.dtype, name=f"{src.name}.c{cluster}")
        part.assign(copy_reg, cluster)
        copy_origin[copy_reg.rid] = src
        if src_rid in defined_at:
            cp = make_copy(copy_reg, src, cluster=cluster)
            insertions.setdefault(defined_at[src_rid], []).append(cp)
            body_copies.append(cp)
            copy_for[(src_rid, cluster)] = cp
        else:
            # loop-invariant live-in: one preheader copy, no kernel cost
            preheader_copies.append((src, copy_reg))
            new_live_in.add(copy_reg)
        for consumer in consumers:
            consumer.sources = tuple(
                copy_reg
                if isinstance(s, SymbolicRegister) and s.rid == src_rid
                else s
                for s in consumer.sources
            )

    # 4. assemble the rewritten body (copies right after their def)
    body: list[Operation] = []
    for idx, op in enumerate(new_ops):
        body.append(op)
        for cp in sorted(insertions.get(idx, ()), key=lambda c: c.dest.rid):
            body.append(cp)

    new_loop = Loop(
        name=loop.name,
        body=BasicBlock(name=f"{loop.name}.body", ops=body, depth=loop.depth),
        depth=loop.depth,
        factory=factory,
        live_in=new_live_in,
        live_out=set(loop.live_out),
        trip_count_hint=loop.trip_count_hint,
    )
    return PartitionedLoop(
        loop=new_loop,
        partition=part,
        body_copies=body_copies,
        preheader_copies=preheader_copies,
        op_map=op_map,
        copy_origin=copy_origin,
        copy_for=copy_for,
    )


def _home_cluster(op: Operation, partition: Partition) -> int:
    """The cluster an operation executes on: its destination's bank, or —
    for stores — the bank of the stored value; operations touching no
    registers at all (store-immediate) default to cluster 0."""
    if op.dest is not None:
        return partition.bank_of(op.dest)
    for s in op.sources:
        if isinstance(s, SymbolicRegister):
            return partition.bank_of(s)
    return 0


def count_cross_bank_reads(loop: Loop, partition: Partition) -> int:
    """Number of (use, cluster) pairs that would need copies, before any
    are inserted — the raw communication demand of a partition, used by
    baselines and reports to compare partition quality cheaply."""
    demands: set[tuple[int, int]] = set()
    for op in loop.ops:
        home = _home_cluster(op, partition)
        for src in op.used():
            if partition.bank_of(src) != home:
                demands.add((src.rid, home))
    return len(demands)
