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
    copy destinations.  Body positions link the rewrite to its source:
    ``origin[j]`` is the position in the source loop of the operation
    body op ``j`` clones (-1 for a body copy), and ``copy_at`` maps
    (source register rid, consuming cluster) to the body position of the
    copy serving it (preheader copies have no entry);
    :func:`repro.ddg.builder.derive_partitioned_ddg` reads both.
    """

    loop: Loop
    partition: Partition
    body_copies: list[Operation] = field(default_factory=list)
    preheader_copies: list[tuple[SymbolicRegister, SymbolicRegister]] = field(
        default_factory=list
    )
    #: rid of a copy-destination register -> the original register it
    #: shadows (used e.g. to translate spill candidates back to the
    #: pre-partition loop)
    copy_origin: dict[int, SymbolicRegister] = field(default_factory=dict)
    origin: list[int] = field(default_factory=list)
    copy_at: dict[tuple[int, int], int] = field(default_factory=dict)

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
    carries extended copies of both.  A copy register is named
    ``<value>.c<cluster>``, with ``_`` appended until the name is free in
    the loop.  ``tracer`` (an opt-in :mod:`repro.obs` hook, None =
    disabled) records one span with the copy counts; it never affects
    the rewrite.
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

    # 1. one pass: clone each op pinned to its home cluster (its
    #    destination's bank, else its first register source's, else 0)
    #    and collect the cross-bank reads (source register, cluster)
    assignment = partition.assignment
    new_ops: list[Operation] = []
    defined_at: dict[int, int] = {}
    needed: dict[tuple[int, int], SymbolicRegister] = {}
    crossing: list[int] = []  # positions of ops reading across banks
    try:
        for idx, op in enumerate(loop.ops):
            dest = op.dest
            if dest is not None:
                home = assignment[dest.rid]
                defined_at[dest.rid] = idx
            else:
                home = 0
                for s in op.sources:
                    if type(s) is SymbolicRegister:
                        home = assignment[s.rid]
                        break
            crosses = False
            for s in op.sources:
                if type(s) is SymbolicRegister and assignment[s.rid] != home:
                    needed[(s.rid, home)] = s
                    crosses = True
            if crosses:
                crossing.append(idx)
            new_ops.append(op.pinned_clone(home))
    except KeyError as exc:
        raise KeyError(f"register rid {exc.args[0]} has no bank assignment") from None

    # 2. mint copy registers and create the copies, in (rid, cluster) order
    part = partition.copy()
    factory = RegisterFactory()
    body_copies: list[Operation] = []
    preheader_copies: list[tuple[SymbolicRegister, SymbolicRegister]] = []
    insertions: dict[int, list[tuple[tuple[int, int], Operation]]] = {}
    new_live_in = set(loop.live_in)
    copy_origin: dict[int, SymbolicRegister] = {}
    copy_reg_for: dict[tuple[int, int], SymbolicRegister] = {}
    taken = _register_names(loop) if needed else None
    for key in sorted(needed):
        src_rid, cluster = key
        src = needed[key]
        name = f"{src.name}.c{cluster}"
        while name in taken:
            name += "_"
        taken.add(name)
        copy_reg = factory.new(src.dtype, name=name)
        part.assign(copy_reg, cluster)
        copy_origin[copy_reg.rid] = src
        copy_reg_for[key] = copy_reg
        if src_rid in defined_at:
            cp = make_copy(copy_reg, src, cluster=cluster)
            insertions.setdefault(defined_at[src_rid], []).append((key, cp))
            body_copies.append(cp)
        else:
            # loop-invariant live-in: one preheader copy, no kernel cost
            preheader_copies.append((src, copy_reg))
            new_live_in.add(copy_reg)

    # 3. rewrite the sources of the ops that read across banks
    for idx in crossing:
        op = new_ops[idx]
        cluster = op.cluster
        op.sources = tuple(
            copy_reg_for.get((s.rid, cluster), s) if type(s) is SymbolicRegister else s
            for s in op.sources
        )

    # 4. assemble the body, each def's copies right after it (in cluster
    #    order, which is also their register order)
    copy_at: dict[tuple[int, int], int] = {}
    if insertions:
        body: list[Operation] = []
        origin: list[int] = []
        for idx, op in enumerate(new_ops):
            body.append(op)
            origin.append(idx)
            for key, cp in insertions.get(idx, ()):
                copy_at[key] = len(body)
                body.append(cp)
                origin.append(-1)
    else:
        body = new_ops
        origin = list(range(len(new_ops)))

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
        copy_origin=copy_origin,
        origin=origin,
        copy_at=copy_at,
    )


def _register_names(loop: Loop) -> set[str]:
    """Every register name the loop uses, live-ins and live-outs included."""
    names = {reg.name for reg in loop.live_in}
    names.update(reg.name for reg in loop.live_out)
    for op in loop.ops:
        if op.dest is not None:
            names.add(op.dest.name)
        for s in op.sources:
            if type(s) is SymbolicRegister:
                names.add(s.name)
    return names


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
