"""UAS — unified assign-and-schedule (Ozer, Banerjia, Conte; MICRO-31).

The paper's Section 3 discusses UAS as the strongest contemporary
alternative: "an algorithm ... for performing partitioning and scheduling
in the same pass", whose advantage over BUG is "schedule-time resource
checking while partitioning".  This module reconstructs UAS inside our
modulo-scheduling framework so it can be compared head-to-head with RCG
partitioning under identical machine models:

* operations are placed by the iterative modulo scheduler, but each
  placement chooses a **(time, cluster) pair jointly**;
* the earliest start is computed *per candidate cluster* — an operand
  produced in another cluster adds the inter-cluster copy latency to the
  dependence delay;
* among feasible placements the earliest issue time wins, ties broken
  toward the least-loaded cluster (Ozer's load-balance heuristic);
* the resulting operation-to-cluster map induces the register partition
  (a value lives where it is produced), which then flows through the
  same copy-insertion and rescheduling pipeline as every other
  partitioner, keeping the comparison apples-to-apples.

Reconstruction scope: Ozer's bus occupancy checking is approximated by
the copy-latency-extended dependences plus the downstream reschedule's
exact bus model; their original also interleaves copy *operations* into
the same pass, which the shared pipeline performs immediately afterward.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.core.baselines import _place_live_ins
from repro.core.greedy import Partition
from repro.ddg.analysis import longest_path_heights, recurrence_ii
from repro.ddg.graph import DDG
from repro.ir.block import Loop
from repro.ir.operations import OpClass
from repro.ir.types import DataType
from repro.machine.machine import MachineDescription


@dataclass
class _ClusterMRT:
    """Per-cluster FU occupancy, modulo II."""

    n_clusters: int
    fus_per_cluster: int
    ii: int

    def __post_init__(self) -> None:
        self.rows = [[0] * self.n_clusters for _ in range(self.ii)]

    def fits(self, time: int, cluster: int) -> bool:
        return self.rows[time % self.ii][cluster] < self.fus_per_cluster

    def place(self, time: int, cluster: int) -> None:
        self.rows[time % self.ii][cluster] += 1

    def remove(self, time: int, cluster: int) -> None:
        self.rows[time % self.ii][cluster] -= 1

    def load(self, cluster: int) -> int:
        return sum(row[cluster] for row in self.rows)


def uas_partition(
    loop: Loop,
    ddg: DDG,
    machine: MachineDescription,
    budget_ratio: int = 12,
) -> Partition:
    """Run the UAS joint pass and return the induced register partition."""
    n = machine.n_clusters
    lat = machine.latencies
    copy_latency = {
        DataType.INT: lat.of_class(OpClass.COPY_INT),
        DataType.FLOAT: lat.of_class(OpClass.COPY_FLOAT),
    }

    rec_ii = recurrence_ii(ddg)
    start_ii = max(rec_ii, -(-len(ddg.ops) // machine.width))
    cap = max(start_ii, sum(lat.of(op) for op in ddg.ops) + len(ddg.ops))

    for ii in range(start_ii, cap + 1):
        assignment = _try_uas_ii(loop, ddg, machine, ii, budget_ratio, copy_latency)
        if assignment is not None:
            break
    else:  # pragma: no cover - sequential fallback always succeeds
        raise RuntimeError(f"UAS failed to schedule {loop.name!r}")

    part = Partition(n_banks=n)
    for op in loop.ops:
        if op.dest is not None:
            part.assign(op.dest, assignment[op.op_id])
    _place_live_ins(loop, part, assignment)
    return part


def _try_uas_ii(loop, ddg, machine, ii, budget_ratio, copy_latency):
    try:
        heights = longest_path_heights(ddg, ii=ii)
    except ValueError:
        return None

    order_index = {op.op_id: i for i, op in enumerate(ddg.ops)}
    by_id = {op.op_id: op for op in ddg.ops}
    mrt = _ClusterMRT(machine.n_clusters, machine.fus_per_cluster, ii)
    times: dict[int, int] = {}
    clusters: dict[int, int] = {}
    prev_time: dict[int, int] = {}
    budget = budget_ratio * len(ddg.ops)

    def push(heap, op):
        i = order_index[op.op_id]
        heapq.heappush(heap, (-heights[i], i, op.op_id))

    heap: list = []
    for op in ddg.ops:
        push(heap, op)

    while heap and budget > 0:
        _, _, oid = heapq.heappop(heap)
        if oid in times:
            continue
        op = by_id[oid]
        budget -= 1

        # per-cluster earliest start: cross-cluster operands pay copy latency
        best: tuple[int, int, int] | None = None  # (time, load, cluster)
        for c in range(machine.n_clusters):
            estart = 0
            for dep in ddg.predecessors(op):
                src_t = times.get(dep.src.op_id)
                if src_t is None:
                    continue
                delay = dep.delay
                if (
                    dep.reg is not None
                    and clusters.get(dep.src.op_id, c) != c
                ):
                    delay += copy_latency[dep.reg.dtype]
                estart = max(estart, src_t + delay - ii * dep.distance)
            for t in range(max(0, estart), max(0, estart) + ii):
                if mrt.fits(t, c):
                    cand = (t, mrt.load(c), c)
                    if best is None or cand < best:
                        best = cand
                    break

        if best is None:
            # forced placement on the least-loaded cluster, evicting the
            # occupants of that row (Rau-style restart pressure)
            c = min(range(machine.n_clusters), key=mrt.load)
            prev = prev_time.get(oid)
            slot = 0 if prev is None else prev + 1
            victims = [
                vid
                for vid, vt in times.items()
                if vt % ii == slot % ii and clusters[vid] == c
            ]
            for vid in victims:
                mrt.remove(times[vid], clusters[vid])
                del times[vid]
                del clusters[vid]
                push(heap, by_id[vid])
            best = (slot, mrt.load(c), c)

        t, _, c = best
        mrt.place(t, c)
        times[oid] = t
        clusters[oid] = c
        prev_time[oid] = t

        # evict violated successors (cluster-dependent delays rechecked)
        for dep in ddg.successors(op):
            dst_t = times.get(dep.dst.op_id)
            if dst_t is None or dep.dst.op_id == oid:
                continue
            delay = dep.delay
            if dep.reg is not None and clusters[dep.dst.op_id] != c:
                delay += copy_latency[dep.reg.dtype]
            if dst_t < t + delay - ii * dep.distance:
                mrt.remove(dst_t, clusters[dep.dst.op_id])
                del times[dep.dst.op_id]
                del clusters[dep.dst.op_id]
                push(heap, dep.dst)

    if len(times) == len(ddg.ops):
        return clusters
    return None
