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
from repro.sched.resources import ReservationTable
from repro.sched.schedule import LinearSchedule


def list_schedule(ddg: DDG, machine: MachineDescription) -> LinearSchedule:
    """Schedule an acyclic DDG onto ``machine``.

    Every edge must have distance 0; loop DDGs go through the modulo
    scheduler instead.  The result is dependence- and resource-legal by
    construction and re-checked by the test suite's validator.
    """
    for e in ddg.edges():
        if e.distance != 0:
            raise ValueError("list_schedule requires an acyclic (distance-0) DDG")

    heights = longest_path_heights(ddg, ii=0)
    order_index = {op.op_id: i for i, op in enumerate(ddg.ops)}

    times: dict[int, int] = {}
    table = ReservationTable(machine)
    cycle = 0
    max_cycles = sum(machine.latency(op) for op in ddg.ops) + len(ddg.ops) + 1

    while len(times) < len(ddg.ops):
        if cycle > max_cycles:
            raise RuntimeError("list scheduler failed to converge (resource model bug?)")
        ready = []
        for op in ddg.ops:
            if op.op_id in times:
                continue
            preds = ddg.predecessors(op)
            if any(dep.src.op_id not in times for dep in preds):
                continue
            earliest = max(
                (times[dep.src.op_id] + dep.delay for dep in preds), default=0
            )
            if earliest <= cycle:
                ready.append(op)
        ready.sort(key=lambda op: (-heights[order_index[op.op_id]], order_index[op.op_id]))
        for op in ready:
            if table.fits(op, cycle):
                table.place(op, cycle)
                times[op.op_id] = cycle
        cycle += 1

    return LinearSchedule(machine=machine, ops=list(ddg.ops), times=times)
