"""Cycle-driven list scheduling for acyclic code.

Used for (a) the whole-function path — the paper notes its framework
applies to entire programs with "any scheduling method" — and (b) the
straight-line Section 4.2 example.  Priority is critical-path height;
ties break toward earlier body order for determinism.
"""

from __future__ import annotations

from repro.ddg.analysis import longest_path_heights
from repro.ddg.graph import DDG
from repro.machine.machine import MachineDescription
from repro.sched.resources import demand_words, resource_geometry
from repro.sched.schedule import LinearSchedule


def list_schedule(ddg: DDG, machine: MachineDescription) -> LinearSchedule:
    """Schedule an acyclic DDG onto ``machine``.

    Every edge must have distance 0; loop DDGs go through the modulo
    scheduler instead.  Each cycle, the ops whose predecessors were all
    placed in earlier cycles and whose operands are ready are tried in
    priority order against the cycle's occupancy word.  The result is
    dependence- and resource-legal by construction and re-checked by the
    test suite's validator.
    """
    idx = ddg.index()
    if any(idx.dist):
        raise ValueError("list_schedule requires an acyclic (distance-0) DDG")

    heights = longest_path_heights(ddg, ii=0)
    n, op_ids, dst, delay = idx.n, idx.op_ids, idx.dst, idx.delay
    words = demand_words(ddg.ops, machine)
    geom = resource_geometry(machine)
    bias, guard = geom.bias, geom.guard
    pending = [0] * n  # unplaced predecessor edges; -1 once placed
    for d in dst:
        pending[d] += 1
    earliest = [0] * n

    times: dict[int, int] = {}
    cycle = 0
    # each placed op holds the schedule back by at most its longest wait:
    # its latency, or a longer out-edge delay
    span = [machine.latency(op) for op in ddg.ops]
    for s, d in zip(idx.src, delay):
        if d > span[s]:
            span[s] = d
    max_cycles = sum(span) + n + 1

    while len(times) < n:
        if cycle > max_cycles:
            raise RuntimeError("list scheduler failed to converge (resource model bug?)")
        ready = [v for v in range(n) if pending[v] == 0 and earliest[v] <= cycle]
        ready.sort(key=lambda v: (-heights[v], v))
        occ = 0
        for v in ready:
            if (occ + words[v] + bias) & guard:
                continue
            occ += words[v]
            times[op_ids[v]] = cycle
            pending[v] = -1
            for k in idx.out_edges[v]:
                w = dst[k]
                pending[w] -= 1
                if cycle + delay[k] > earliest[w]:
                    earliest[w] = cycle + delay[k]
        cycle += 1

    return LinearSchedule(machine=machine, ops=list(ddg.ops), times=times)
