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
    copy_latency = lat.copy_latencies()

    rec_ii = recurrence_ii(ddg)
    start_ii = max(rec_ii, -(-len(ddg.ops) // machine.width))
    cap = max(start_ii, sum(lat.of(op) for op in ddg.ops) + len(ddg.ops))

    for ii in range(start_ii, cap + 1):
        assignment = _try_uas_ii(ddg, machine, ii, budget_ratio, copy_latency)
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


def _try_uas_ii(ddg, machine, ii, budget_ratio, copy_latency):
    """One joint attempt at ``ii`` on op positions and index edge ids;
    returns op id -> cluster, or None."""
    try:
        heights = longest_path_heights(ddg, ii=ii)
    except ValueError:
        return None

    idx = ddg.index()
    n, src, dst, in_edges = idx.n, idx.src, idx.dst, idx.in_edges()
    lag = [delay - ii * dist for delay, dist in zip(idx.delay, idx.dist)]
    # the copy latency a register edge adds when it crosses clusters
    cross = [
        0 if reg is None else copy_latency[reg.dtype]
        for reg in (ddg.rows[r][5] for r in idx.edge_row)
    ]
    mrt = _ClusterMRT(machine.n_clusters, machine.fus_per_cluster, ii)
    times: dict[int, int] = {}
    clusters: dict[int, int] = {}
    prev_time: dict[int, int] = {}
    budget = budget_ratio * n

    # max-heap by (height, earlier body order); entries are distinct
    entries = [(-h, v) for v, h in enumerate(heights)]
    heap = entries[:]
    heapq.heapify(heap)

    while heap and budget > 0:
        v = heapq.heappop(heap)[1]
        if v in times:
            continue
        budget -= 1

        # per-cluster earliest start: cross-cluster operands pay copy latency
        best: tuple[int, int, int] | None = None  # (time, load, cluster)
        for c in range(machine.n_clusters):
            estart = 0
            for k in in_edges[v]:
                src_t = times.get(src[k])
                if src_t is None:
                    continue
                delay = lag[k] + (cross[k] if clusters.get(src[k], c) != c else 0)
                estart = max(estart, src_t + delay)
            for t in range(estart, estart + ii):
                if mrt.fits(t, c):
                    cand = (t, mrt.load(c), c)
                    if best is None or cand < best:
                        best = cand
                    break

        if best is None:
            # forced placement on the least-loaded cluster, evicting the
            # occupants of that row (Rau-style restart pressure)
            c = min(range(machine.n_clusters), key=mrt.load)
            prev = prev_time.get(v)
            slot = 0 if prev is None else prev + 1
            victims = [
                u for u, t in times.items() if t % ii == slot % ii and clusters[u] == c
            ]
            for u in victims:
                mrt.remove(times.pop(u), clusters.pop(u))
                heapq.heappush(heap, entries[u])
            best = (slot, mrt.load(c), c)

        t, _, c = best
        mrt.place(t, c)
        times[v] = t
        clusters[v] = c
        prev_time[v] = t

        # evict violated successors (cluster-dependent delays rechecked)
        for k in idx.out_edges[v]:
            w = dst[k]
            dst_t = times.get(w)
            if dst_t is None or w == v:
                continue
            delay = lag[k] + (cross[k] if clusters[w] != c else 0)
            if dst_t < t + delay:
                mrt.remove(dst_t, clusters.pop(w))
                del times[w]
                heapq.heappush(heap, entries[w])

    if len(times) == n:
        return {idx.op_ids[v]: c for v, c in clusters.items()}
    return None
