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
constraint and permutes reservation rows consistently).  An attempt
reads edges off the DDG's analysis index and keeps one packed occupancy
word per kernel row (:mod:`repro.sched.resources`), like the iterative
scheduler.
"""

from __future__ import annotations

from collections import deque

from repro.ddg.analysis import longest_path_heights, min_ii
from repro.ddg.graph import DDG
from repro.ir.block import Loop
from repro.machine.machine import MachineDescription
from repro.sched.modulo.scheduler import SchedulingError
from repro.sched.resources import demand_words, resource_geometry
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

    words = demand_words(ddg.ops, machine)
    op_ids = ddg.index().op_ids
    for ii in range(start_ii, cap + 1):
        times = _try_ii(ddg, machine, ii, words)
        if times is not None:
            shift = min(times.values())
            times = {op_ids[v]: t - shift for v, t in times.items()}
            return KernelSchedule(machine=machine, loop=loop, ii=ii, times=times)
    raise SchedulingError(
        f"no swing schedule for {loop.name!r} up to II={cap} (MinII={start_ii})"
    )


# ----------------------------------------------------------------------
# Every helper works on op positions and the DDG's index edge ids.
def _mobility(ddg: DDG, ii: int, lag: list[int]) -> list[int] | None:
    """ALAP - ASAP at this II (forward and backward height differences);
    ``lag[k]`` is edge ``k``'s ``delay - II * distance``."""
    try:
        backward = longest_path_heights(ddg, ii=ii)  # height to sinks
    except ValueError:
        return None
    # forward depth: longest path from sources, relaxed in edge order
    idx = ddg.index()
    src, dst = idx.src, idx.dst
    depth = [0] * idx.n
    for _ in range(idx.n + 1):
        changed = False
        for k in range(idx.m):
            cand = depth[src[k]] + lag[k]
            if cand > depth[dst[k]]:
                depth[dst[k]] = cand
                changed = True
        if not changed:
            break
    else:
        return None
    span = max(map(sum, zip(depth, backward)))
    return [max(0, span - d - b) for d, b in zip(depth, backward)]


def _order_nodes(ddg: DDG, ii: int, lag: list[int]) -> list[int] | None:
    mobility = _mobility(ddg, ii, lag)
    if mobility is None:
        return None
    idx = ddg.index()
    neighbors: list[set[int]] = [set() for _ in range(idx.n)]
    for s, d in zip(idx.src, idx.dst):
        if s != d:
            neighbors[s].add(d)
            neighbors[d].add(s)

    ordered: list[int] = []
    placed: set[int] = set()
    remaining = set(range(idx.n))
    while remaining:
        # most-connected-to-ordered first, then most critical, then stable
        chosen = min(
            remaining, key=lambda v: (-len(neighbors[v] & placed), mobility[v], v)
        )
        ordered.append(chosen)
        placed.add(chosen)
        remaining.discard(chosen)
    return ordered


def _try_ii(
    ddg: DDG, machine: MachineDescription, ii: int, words: list[int]
) -> dict[int, int] | None:
    """One attempt at ``ii``: position -> issue time in placement order,
    on one packed occupancy word per kernel row (``words[v]`` is the
    demand word of position ``v``)."""
    idx = ddg.index()
    lag = [delay - ii * dist for delay, dist in zip(idx.delay, idx.dist)]
    order = _order_nodes(ddg, ii, lag)
    if order is None:
        return None
    src, dst, in_edges, out_edges = idx.src, idx.dst, idx.in_edges(), idx.out_edges
    geom = resource_geometry(machine)
    bias, guard = geom.bias, geom.guard
    occ = [0] * ii
    times: dict[int, int] = {}

    # worklist preserves the swing order; nodes evicted by the fallback
    # re-enter at the back (bounded by the budget)
    work = deque(order)
    budget = 8 * idx.n

    while work and budget > 0:
        v = work.popleft()
        if v in times:
            continue
        budget -= 1

        early: int | None = None
        late: int | None = None
        for k in in_edges[v]:
            t = times.get(src[k])
            if t is not None and src[k] != v:
                cand = t + lag[k]
                early = cand if early is None else max(early, cand)
        for k in out_edges[v]:
            t = times.get(dst[k])
            if t is not None and dst[k] != v:
                cand = t - lag[k]
                late = cand if late is None else min(late, cand)

        slot = _place(occ, words[v] + bias, guard, early, late, ii)
        if slot is None:
            # empty/blocked window: evict the scheduled successors that
            # impose `late` (IMS-style pressure valve; rare, so lifetime
            # sensitivity is preserved in the common case), then retry the
            # node with its predecessors-only window
            evicted_any = False
            for k in out_edges[v]:
                w = dst[k]
                if w in times and w != v:
                    occ[times.pop(w) % ii] -= words[w]
                    work.append(w)
                    evicted_any = True
            if not evicted_any:
                return None  # pure resource exhaustion: need a larger II
            work.appendleft(v)
            continue
        occ[slot % ii] += words[v]
        times[v] = slot

    if len(times) == idx.n:
        return times
    return None


def _place(occ, probe, guard, early, late, ii) -> int | None:
    """The first time of the placement window whose row fits ``probe``
    (demand word plus bias): upward from ``early``, downward from
    ``late``, at most II candidates.  A time may be negative; its row is
    ``t % ii``."""
    if early is not None and late is not None:
        if late < early:
            return None
        window = range(early, min(late, early + ii - 1) + 1)
    elif early is not None:
        window = range(early, early + ii)
    elif late is not None:
        window = range(late, late - ii, -1)
    else:
        window = range(ii)
    for t in window:
        if not ((occ[t % ii] + probe) & guard):
            return t
    return None
