"""Baseline partitioners.

The paper positions RCG partitioning against Ellis' BUG ("bottom-up
greedy", the first published solution, Section 3) and implicitly against
naive placements.  These baselines all produce the same
:class:`~repro.core.greedy.Partition` interface, so every downstream stage
(copy insertion, cluster-constrained rescheduling, register assignment)
is identical — only the placement policy differs, which is what the
comparison benches isolate.

* :func:`bug_partition` — an operation-DAG bottom-up greedy in the spirit
  of Ellis: operations are assigned to clusters in dependence order,
  choosing the cluster that minimizes estimated completion time given
  operand locations (copy latencies) and cluster load; registers inherit
  the bank of their producing cluster.
* :func:`round_robin_partition` — registers cycled across banks.
* :func:`random_partition` — seeded uniform placement.
* :func:`single_bank_partition` — everything in bank 0 (serializes a
  clustered machine; a sanity lower bound).
"""

from __future__ import annotations

import random

from repro.core.greedy import Partition
from repro.ddg.graph import DDG
from repro.ir.block import Loop
from repro.machine.machine import MachineDescription


def single_bank_partition(loop: Loop, n_banks: int) -> Partition:
    part = Partition(n_banks=n_banks)
    for reg in sorted(loop.registers(), key=lambda r: r.rid):
        part.assign(reg, 0)
    return part


def round_robin_partition(loop: Loop, n_banks: int) -> Partition:
    part = Partition(n_banks=n_banks)
    for i, reg in enumerate(sorted(loop.registers(), key=lambda r: r.rid)):
        part.assign(reg, i % n_banks)
    return part


def random_partition(loop: Loop, n_banks: int, seed: int = 0) -> Partition:
    rng = random.Random(seed)
    part = Partition(n_banks=n_banks)
    for reg in sorted(loop.registers(), key=lambda r: r.rid):
        part.assign(reg, rng.randrange(n_banks))
    return part


def bug_partition(
    loop: Loop, ddg: DDG, machine: MachineDescription
) -> Partition:
    """Bottom-up-greedy cluster assignment over the operation DAG.

    Ellis' BUG is "intimately intertwined with instruction scheduling and
    utilizes machine-dependent details within the partitioning algorithm"
    (Section 3); this reconstruction keeps that character: it walks
    operations in dependence order, estimating for each candidate cluster
    the completion time as

        max(operand ready times + copy latency if the operand lives
            elsewhere) + a load term for work already placed there,

    and commits the operation — and its result register — to the argmin
    cluster.  Loop-invariant live-ins are placed afterward on the cluster
    holding the plurality of their consumers.
    """
    n = machine.n_clusters
    part = Partition(n_banks=n)
    lat = machine.latencies

    cluster_load = [0.0] * n
    reg_bank: dict[int, int] = {}

    copy_latency = lat.copy_latencies()

    # each op's distance-0 operands: (source position, the copy latency
    # the edge adds when the source sits in another cluster)
    ddg.verify_acyclic_at_distance_zero()
    idx = ddg.index()
    operands: list[list[tuple[int, float]]] = [[] for _ in range(idx.n)]
    for k, r in enumerate(idx.edge_row):
        if idx.dist[k] == 0:
            reg = ddg.rows[r][5]
            penalty = 0.0 if reg is None else copy_latency[reg.dtype]
            operands[idx.dst[k]].append((idx.src[k], penalty))
    cluster_of = [0] * idx.n
    done_time = [0.0] * idx.n

    for v in reversed(idx.rev_topo0):
        op = ddg.ops[v]
        best_cluster, best_cost = 0, float("inf")
        for c in range(n):
            ready = 0.0
            for u, penalty in operands[v]:
                ready = max(ready, done_time[u] + (penalty if cluster_of[u] != c else 0.0))
            # operand registers produced outside the DAG (live-ins) that
            # already have a bank also pay the copy penalty
            for src in op.used():
                bank = reg_bank.get(src.rid)
                if bank is not None and bank != c:
                    ready = max(ready, copy_latency[src.dtype])
            cost = ready + cluster_load[c] / machine.fus_per_cluster
            if cost < best_cost:
                best_cost, best_cluster = cost, c
        cluster_of[v] = best_cluster
        cluster_load[best_cluster] += 1.0
        done_time[v] = best_cost + lat.of(op)
        if op.dest is not None:
            part.assign(op.dest, best_cluster)
            reg_bank[op.dest.rid] = best_cluster

    _place_live_ins(loop, part, dict(zip(idx.op_ids, cluster_of)))
    return part


def _place_live_ins(loop: Loop, part: Partition, op_cluster: dict[int, int]) -> None:
    """Put each unassigned register where most of its consumers ended up."""
    for reg in sorted(loop.registers(), key=lambda r: r.rid):
        if reg in part:
            continue
        votes = [0] * part.n_banks
        for op in loop.ops:
            if reg in op.used() and op.op_id in op_cluster:
                votes[op_cluster[op.op_id]] += 1
        part.assign(reg, max(range(part.n_banks), key=lambda c: votes[c]))
