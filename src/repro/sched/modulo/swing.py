"""Swing modulo scheduling (Llosa, Gonzalez, Ayguade, Valero; PACT '96).

The paper's Section 6.3 notes that Nystrom and Eichenberger "use Swing
Scheduling that attempts to reduce register requirements" where this work
uses Rau's standard IMS, and flags that difference as a confound in the
comparison.  This module provides SMS so both schedulers are available
under identical machine models and the register-pressure difference can
be measured directly (``benchmarks/bench_swing.py``).

The reconstruction keeps SMS's two defining ideas:

1. **ordering** — nodes are ordered so that each (after the first) is
   adjacent to an already-ordered node wherever the dependence graph
   allows, most-critical (lowest mobility) first, so placement always has
   a nearby anchor;
2. **bidirectional placement** — a node whose *scheduled neighbors are
   all successors* is placed as **late** as possible (just before its
   earliest consumer) and one whose scheduled neighbors are all
   predecessors as **early** as possible, shrinking the producer-consumer
   gap and hence value lifetimes.  There is no backtracking: if any node
   fails to place, II is bumped and the pass restarts.

Times may go negative during backward placement; the final schedule is
shifted to start at zero (a uniform shift preserves every modulo
constraint and permutes reservation rows consistently).
"""

from __future__ import annotations

from repro.ddg.analysis import longest_path_heights, min_ii
from repro.ddg.graph import DDG
from repro.ir.block import Loop
from repro.machine.machine import MachineDescription
from repro.sched.modulo.scheduler import SchedulingError
from repro.sched.resources import ModuloReservationTable
from repro.sched.schedule import KernelSchedule


def swing_modulo_schedule(
    loop: Loop,
    ddg: DDG,
    machine: MachineDescription,
    max_ii: int | None = None,
) -> KernelSchedule:
    """Software-pipeline ``loop`` with SMS; see module docs."""
    if len(ddg.ops) == 0:
        raise ValueError("cannot pipeline an empty loop")
    start_ii = min_ii(ddg, machine)
    guaranteed = max(start_ii, sum(machine.latency(op) for op in ddg.ops))
    cap = max_ii if max_ii is not None else guaranteed
    if cap < start_ii:
        raise SchedulingError(f"{loop.name!r}: max_ii={cap} below MinII={start_ii}")

    demand_cache: dict = {}
    for ii in range(start_ii, cap + 1):
        times = _try_ii(ddg, machine, ii, demand_cache)
        if times is not None:
            shift = min(times.values())
            times = {oid: t - shift for oid, t in times.items()}
            return KernelSchedule(machine=machine, loop=loop, ii=ii, times=times)
    raise SchedulingError(
        f"no swing schedule for {loop.name!r} up to II={cap} (MinII={start_ii})"
    )


# ----------------------------------------------------------------------
def _mobility(ddg: DDG, ii: int) -> dict[int, int]:
    """ALAP - ASAP at this II (forward and backward height differences)."""
    try:
        # height to sinks
        backward = dict(zip(ddg.index().op_ids, longest_path_heights(ddg, ii=ii)))
    except ValueError:
        return {}
    # forward depth: longest path from sources, computed on reversed edges
    depth = {op.op_id: 0 for op in ddg.ops}
    edges = list(ddg.edges())
    for _ in range(len(ddg.ops) + 1):
        changed = False
        for e in edges:
            cand = depth[e.src.op_id] + e.delay - ii * e.distance
            if cand > depth[e.dst.op_id]:
                depth[e.dst.op_id] = cand
                changed = True
        if not changed:
            break
    else:
        return {}
    span = max((depth[o] + backward[o]) for o in depth) if depth else 0
    return {
        oid: max(0, span - depth[oid] - backward[oid]) for oid in depth
    }


def _order_nodes(ddg: DDG, ii: int) -> list | None:
    mobility = _mobility(ddg, ii)
    if not mobility and len(ddg.ops) > 0:
        return None
    index = {op.op_id: i for i, op in enumerate(ddg.ops)}
    neighbors: dict[int, set[int]] = {op.op_id: set() for op in ddg.ops}
    for e in ddg.edges():
        if e.src.op_id != e.dst.op_id:
            neighbors[e.src.op_id].add(e.dst.op_id)
            neighbors[e.dst.op_id].add(e.src.op_id)

    ordered: list[int] = []
    placed: set[int] = set()
    remaining = {op.op_id for op in ddg.ops}
    by_id = {op.op_id: op for op in ddg.ops}

    while remaining:
        # most-connected-to-ordered first, then most critical, then stable
        def key(oid: int):
            return (
                -len(neighbors[oid] & placed),
                mobility[oid],
                index[oid],
            )

        chosen = min(remaining, key=key)
        ordered.append(chosen)
        placed.add(chosen)
        remaining.discard(chosen)
    return [by_id[oid] for oid in ordered]


def _try_ii(
    ddg: DDG,
    machine: MachineDescription,
    ii: int,
    demand_cache: dict | None = None,
) -> dict[int, int] | None:
    order = _order_nodes(ddg, ii)
    if order is None:
        return None
    mrt = ModuloReservationTable(machine, ii, demands=demand_cache)
    times: dict[int, int] = {}
    by_id = {op.op_id: op for op in ddg.ops}

    # worklist preserves the swing order; nodes evicted by the fallback
    # re-enter at the back (bounded by the budget)
    from collections import deque

    work = deque(order)
    budget = 8 * len(ddg.ops)

    while work and budget > 0:
        op = work.popleft()
        if op.op_id in times:
            continue
        budget -= 1

        early: int | None = None
        late: int | None = None
        for dep in ddg.predecessors(op):
            t = times.get(dep.src.op_id)
            if t is not None and dep.src.op_id != op.op_id:
                cand = t + dep.delay - ii * dep.distance
                early = cand if early is None else max(early, cand)
        for dep in ddg.successors(op):
            t = times.get(dep.dst.op_id)
            if t is not None and dep.dst.op_id != op.op_id:
                cand = t - dep.delay + ii * dep.distance
                late = cand if late is None else min(late, cand)

        slot = _place(mrt, op, early, late, ii)
        if slot is None:
            # empty/blocked window: evict the scheduled successors that
            # impose `late` (IMS-style pressure valve; rare, so lifetime
            # sensitivity is preserved in the common case), then retry the
            # node with its predecessors-only window
            evicted_any = False
            for dep in ddg.successors(op):
                if dep.dst.op_id in times and dep.dst.op_id != op.op_id:
                    mrt.remove(by_id[dep.dst.op_id])
                    del times[dep.dst.op_id]
                    work.append(dep.dst)
                    evicted_any = True
            if not evicted_any:
                return None  # pure resource exhaustion: need a larger II
            work.appendleft(op)
            continue
        mrt.place(op, slot + _OFFSET)
        times[op.op_id] = slot

    if len(times) == len(ddg.ops):
        return times
    return None


#: placement offset so ModuloReservationTable sees non-negative times;
#: a multiple of every II is impossible, so we shift per-op at place time
#: by a large multiple of the row period instead
_OFFSET = 1 << 20


def _place(mrt, op, early, late, ii) -> int | None:
    if early is not None and late is not None:
        if late < early:
            return None
        for t in range(early, min(late, early + ii - 1) + 1):
            if mrt.fits(op, t + _OFFSET):
                return t
        return None
    if early is not None:
        for t in range(early, early + ii):
            if mrt.fits(op, t + _OFFSET):
                return t
        return None
    if late is not None:
        for t in range(late, late - ii, -1):
            if mrt.fits(op, t + _OFFSET):
                return t
        return None
    for t in range(0, ii):
        if mrt.fits(op, t + _OFFSET):
            return t
    return None
