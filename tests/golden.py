"""Golden oracles for the parity tests.

Every optimised kernel in ``repro`` was rewritten from a direct
transcription of its algorithm.  Those transcriptions live here, outside
the shipped package, so the parity tests (``test_perf_equivalence.py``,
``test_regalloc_bitset_parity.py``) can compare the fast path against
them value for value.  Each oracle uses only public ``repro`` APIs,
except :func:`ddg_rows`, which also reads the edge-key map it compares,
and :func:`_reference_submit_admitted`, the compile service's reply path
with one write per line, which runs on a service's own state.

The package keeps one edge view (the DDG's int rows and analysis index)
and one resource model (packed demand words).  The object views they
replaced live here: :class:`Dependence` edges, built from a graph's rows
by :func:`dependences` (successor, predecessor and edge lists in the old
orders) and stored by :func:`add_dependence`; and the per-op
:class:`ResourceDemand` of :func:`op_resource_demand`, counted by
:class:`SlotPool` rows in :class:`ReservationTable` (acyclic) and
:class:`ReferenceModuloReservationTable` (modulo, with the eviction
query the packed encoding does without).  On them run the op-keyed
oracles: :func:`reference_try_ii` (one IMS attempt),
:func:`_reference_swing_modulo_schedule`,
:func:`_reference_list_schedule`, :func:`_reference_uas_partition` and
:func:`_reference_bug_partition`.  :func:`use_reference_mrt` injects the
first two: ``ModuloScheduler._try_ii`` becomes the golden attempt, and
Swing the golden Swing.  :func:`add_node` and :func:`add_edge` build
interference graphs by hand, for the interference oracle and the
colouring tests.  :func:`_reference_build_rcg_from_kernel` weights the
RCG through its method calls and :func:`_reference_insert_copies`
inserts copies over op objects; :func:`frozen_tables` and
:func:`partitioned_listing` turn their results into comparable plain
values.  :func:`brute_force_cost` enumerates every bank assignment of a
small ``repro.exact`` problem, the oracle of the branch-and-bound
solver.

The module name matches neither ``test_*.py`` nor ``bench_*.py``, so
pytest does not collect it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

from repro.core.baselines import _place_live_ins
from repro.core.copies import PartitionedLoop, _home_cluster
from repro.core.greedy import Partition
from repro.core.rcg import FrozenRCG, RegisterComponentGraph
from repro.core.uas import _ClusterMRT
from repro.core.weights import DEFAULT_HEURISTIC, HeuristicConfig
from repro.ddg.analysis import longest_path_heights, min_ii, recurrence_ii, schedule_slack
from repro.ddg.graph import DDG, DepKind
from repro.exact.cost import ExactProblem, assignment_cost
from repro.ir.block import BasicBlock, Loop
from repro.ir.operations import OpClass, Operation, make_copy
from repro.ir.printer import format_loop
from repro.ir.registers import RegisterFactory, SymbolicRegister
from repro.ir.types import DataType
from repro.machine.machine import CopyModel, MachineDescription
from repro.regalloc.coloring import ColoringResult
from repro.regalloc.interference import InterferenceGraph, Name
from repro.regalloc.liveness import CyclicLiveness, LiveRange
from repro.regalloc.mve import MVEPlan
from repro.sched.modulo.scheduler import ModuloScheduler, SchedulingError
from repro.sched.schedule import KernelSchedule, LinearSchedule


# ----------------------------------------------------------------------
# Dependence objects (the DDG's old object view)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class Dependence:
    """One DDG edge as an object.

    ``delay`` is the minimum issue-cycle separation (source latency for
    flow edges, 1 for memory ordering edges), ``distance`` the number of
    iterations the dependence spans (0 = same iteration).  ``reg`` records
    the register a flow edge carries.
    """

    src: Operation
    dst: Operation
    kind: DepKind
    delay: int
    distance: int = 0
    reg: SymbolicRegister | None = None

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError("dependence delay must be non-negative")
        if self.distance < 0:
            raise ValueError("dependence distance must be non-negative")
        if self.kind is DepKind.FLOW and self.reg is None:
            raise ValueError("register flow dependences must name their register")

    @property
    def is_loop_carried(self) -> bool:
        return self.distance > 0

    def __repr__(self) -> str:
        tag = f"[{self.reg}]" if self.reg is not None else ""
        return (
            f"<dep {self.kind.value}{tag} op#{self.src.op_id}->op#{self.dst.op_id} "
            f"delay={self.delay} dist={self.distance}>"
        )


class Dependences(NamedTuple):
    """A graph's edges as objects: ``succs[v]``/``preds[v]`` are position
    ``v``'s out-/in-edges in insertion order, ``edges`` every edge by
    source op and then insertion order (the index's edge order)."""

    succs: list[list[Dependence]]
    preds: list[list[Dependence]]
    edges: list[Dependence]


def dependences(ddg: DDG) -> Dependences:
    """Fresh :class:`Dependence` lists for the current rows of ``ddg``."""
    ops = ddg.ops
    succs: list[list[Dependence]] = [[] for _ in ops]
    preds: list[list[Dependence]] = [[] for _ in ops]
    for s, d, kind, delay, distance, reg in ddg.rows:
        dep = Dependence(ops[s], ops[d], kind, delay, distance, reg)
        succs[s].append(dep)
        preds[d].append(dep)
    return Dependences(succs, preds, [dep for out in succs for dep in out])


def add_dependence(ddg: DDG, dep: Dependence) -> Dependence | None:
    """Insert ``dep`` (duplicate keys keep the larger delay); ``dep`` if
    it was stored, ``None`` if an existing edge subsumed it."""
    if dep.src not in ddg or dep.dst not in ddg:
        raise ValueError("dependence endpoints must be DDG operations")
    stored = ddg.add_row(ddg.index_of(dep.src), ddg.index_of(dep.dst), dep.kind,
                         dep.delay, dep.distance, dep.reg)
    return dep if stored else None


# ----------------------------------------------------------------------
# Per-op resource demands (the old object resource model)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ResourceDemand:
    """What one operation consumes in its issue cycle."""

    fu_cluster: int | None = None     # one FU slot in this cluster
    copy_cluster: int | None = None   # one copy port in this cluster
    bus: bool = False                 # one machine-wide bus


def op_resource_demand(op: Operation, machine: MachineDescription) -> ResourceDemand:
    """Map an operation to its issue-cycle resource demand: copy-unit
    copies take a port in their cluster and a bus, everything else an FU
    (cluster 0 if the op has none)."""
    cluster = op.cluster if op.cluster is not None else 0
    machine.validate_cluster(cluster if machine.is_clustered else None)
    if op.is_copy and machine.copy_model is CopyModel.COPY_UNIT:
        return ResourceDemand(copy_cluster=cluster, bus=True)
    return ResourceDemand(fu_cluster=cluster)


@dataclass
class SlotPool:
    """Free-slot counters for a single cycle.

    ``bus_free`` defaults to ``None`` (= take the machine's bus count) so
    that an explicitly-passed exhausted bus count of ``0`` is honored
    rather than silently reset.
    """

    machine: MachineDescription
    fu_free: list[int] = field(default_factory=list)
    copy_free: list[int] = field(default_factory=list)
    bus_free: int | None = None

    def __post_init__(self) -> None:
        if not self.fu_free:
            self.fu_free = [self.machine.fus_per_cluster] * self.machine.n_clusters
        if not self.copy_free:
            ports = (
                self.machine.copy_ports_per_cluster
                if self.machine.copy_model is CopyModel.COPY_UNIT
                else 0
            )
            self.copy_free = [ports] * self.machine.n_clusters
        if self.bus_free is None:
            self.bus_free = self.machine.n_buses

    def fits(self, demand: ResourceDemand) -> bool:
        if demand.fu_cluster is not None and self.fu_free[demand.fu_cluster] < 1:
            return False
        if demand.copy_cluster is not None and self.copy_free[demand.copy_cluster] < 1:
            return False
        if demand.bus and self.bus_free < 1:
            return False
        return True

    def take(self, demand: ResourceDemand) -> None:
        if not self.fits(demand):
            raise ValueError("resource over-subscription")
        if demand.fu_cluster is not None:
            self.fu_free[demand.fu_cluster] -= 1
        if demand.copy_cluster is not None:
            self.copy_free[demand.copy_cluster] -= 1
        if demand.bus:
            self.bus_free -= 1

    def release(self, demand: ResourceDemand) -> None:
        if demand.fu_cluster is not None:
            self.fu_free[demand.fu_cluster] += 1
        if demand.copy_cluster is not None:
            self.copy_free[demand.copy_cluster] += 1
        if demand.bus:
            self.bus_free += 1


@dataclass
class ReservationTable:
    """Growable cycle-indexed reservation table for acyclic scheduling."""

    machine: MachineDescription
    rows: list[SlotPool] = field(default_factory=list)
    _placed: dict[int, tuple[int, ResourceDemand]] = field(default_factory=dict)

    def _row(self, cycle: int) -> SlotPool:
        while len(self.rows) <= cycle:
            self.rows.append(SlotPool(self.machine))
        return self.rows[cycle]

    def fits(self, op: Operation, cycle: int) -> bool:
        return self._row(cycle).fits(op_resource_demand(op, self.machine))

    def place(self, op: Operation, cycle: int) -> None:
        if op.op_id in self._placed:
            raise ValueError(f"operation already placed: {op!r}")
        demand = op_resource_demand(op, self.machine)
        self._row(cycle).take(demand)
        self._placed[op.op_id] = (cycle, demand)


# ----------------------------------------------------------------------
# Modulo reservation table
# ----------------------------------------------------------------------


@dataclass
class ReferenceModuloReservationTable:
    """Fixed-II modulo reservation table (Rau, Section 2) — the original
    dict-of-:class:`SlotPool` implementation, the golden oracle for the
    packed occupancy rows the modulo schedulers keep.

    Row ``t mod II`` must accommodate every operation issued at absolute
    time ``t``; placement and removal support the iterative scheduler's
    eviction mechanism.
    """

    machine: MachineDescription
    ii: int
    demands: dict[int, ResourceDemand] | None = None
    rows: list[SlotPool] = field(init=False)
    _placed: dict[int, tuple[int, ResourceDemand]] = field(default_factory=dict)
    #: per-row op_id -> demand occupancy index; insertion order mirrors
    #: placement order, so eviction-candidate order matches a linear scan
    #: of ``_placed``
    _row_ops: list[dict[int, ResourceDemand]] = field(init=False)
    #: per-op demand memo — the scheduler probes ``fits`` across a whole
    #: ``[estart, estart + II)`` window for the same op
    _demands: dict[int, ResourceDemand] = field(init=False)

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise ValueError("II must be positive")
        self.rows = [SlotPool(self.machine) for _ in range(self.ii)]
        self._row_ops = [{} for _ in range(self.ii)]
        self._demands = self.demands if self.demands is not None else {}

    def row_of(self, time: int) -> SlotPool:
        return self.rows[time % self.ii]

    def _demand(self, op: Operation) -> ResourceDemand:
        demand = self._demands.get(op.op_id)
        if demand is None:
            demand = self._demands[op.op_id] = op_resource_demand(op, self.machine)
        return demand

    def fits(self, op: Operation, time: int) -> bool:
        return self.rows[time % self.ii].fits(self._demand(op))

    def first_free(self, op: Operation, estart: int) -> int | None:
        """First ``t`` in ``[estart, estart + II)`` where ``op`` fits."""
        for t in range(estart, estart + self.ii):
            if self.fits(op, t):
                return t
        return None

    def place(self, op: Operation, time: int) -> None:
        if op.op_id in self._placed:
            raise ValueError(f"operation already placed: {op!r}")
        demand = self._demand(op)
        self.rows[time % self.ii].take(demand)
        self._placed[op.op_id] = (time, demand)
        self._row_ops[time % self.ii][op.op_id] = demand

    def remove(self, op: Operation) -> int:
        """Unplace ``op``; returns the time it had been scheduled at."""
        time, demand = self._placed.pop(op.op_id)
        self.row_of(time).release(demand)
        del self._row_ops[time % self.ii][op.op_id]
        return time

    def conflicting_ops(self, op: Operation, time: int) -> list[int]:
        """Op-ids currently occupying the resource ``op`` needs in row
        ``time mod II`` — candidates for eviction when placement is forced.
        O(row occupancy) via the per-row index, not O(all placed)."""
        demand = self._demand(op)
        out: list[int] = []
        for oid, d in self._row_ops[time % self.ii].items():
            same_fu = (
                demand.fu_cluster is not None and d.fu_cluster == demand.fu_cluster
            )
            same_copy = (
                demand.copy_cluster is not None and d.copy_cluster == demand.copy_cluster
            )
            same_bus = demand.bus and d.bus
            if same_fu or same_copy or same_bus:
                out.append(oid)
        return out


def reference_try_ii(
    ddg: DDG,
    machine: MachineDescription,
    ii: int,
    budget_ratio: int,
) -> tuple[dict[int, int] | None, int]:
    """One iterative-scheduling attempt at ``ii`` on ``Operation`` objects
    and the golden modulo reservation table: the golden oracle for
    :meth:`repro.sched.modulo.scheduler.ModuloScheduler._try_ii`.
    Returns (times in final placement order, evictions)."""
    evictions = 0
    try:
        h = longest_path_heights(ddg, ii=ii)
    except ValueError:
        return None, evictions

    ops = ddg.ops
    by_id = {op.op_id: op for op in ops}
    entries = {op.op_id: (-h[i], i, op.op_id) for i, op in enumerate(ops)}
    idx = ddg.index()
    op_ids = idx.op_ids
    preds: dict[int, list[tuple[int, int]]] = {oid: [] for oid in op_ids}
    succs: dict[int, list[tuple[int, int]]] = {}
    for oid, out in zip(op_ids, idx.out_edges):
        succs[oid] = [
            (op_ids[idx.dst[k]], idx.delay[k] - ii * idx.dist[k]) for k in out
        ]
        for dst_oid, lag in succs[oid]:
            preds[dst_oid].append((oid, lag))

    mrt = ReferenceModuloReservationTable(machine, ii)
    times: dict[int, int] = {}
    prev_time: dict[int, int] = {}
    budget = budget_ratio * len(ops)
    heap = [entries[op.op_id] for op in ops]
    heapq.heapify(heap)

    while heap and budget > 0:
        _, _, oid = heapq.heappop(heap)
        if oid in times:
            continue  # stale entry
        op = by_id[oid]
        budget -= 1

        estart = 0
        for src_oid, lag in preds[oid]:
            if src_oid in times:
                estart = max(estart, times[src_oid] + lag)

        slot = mrt.first_free(op, estart)
        if slot is None:
            prev = prev_time.get(oid)
            slot = estart if prev is None or prev + 1 < estart else prev + 1
            for victim_id in mrt.conflicting_ops(op, slot):
                mrt.remove(by_id[victim_id])
                del times[victim_id]
                heapq.heappush(heap, entries[victim_id])
                evictions += 1
                if mrt.fits(op, slot):
                    break

        mrt.place(op, slot)
        times[oid] = slot
        prev_time[oid] = slot

        # evict scheduled successors whose dependence is now violated
        for dst_oid, lag in succs[oid]:
            if dst_oid == oid or dst_oid not in times:
                continue
            if times[dst_oid] < slot + lag:
                mrt.remove(by_id[dst_oid])
                del times[dst_oid]
                heapq.heappush(heap, entries[dst_oid])
                evictions += 1

    if len(times) == len(ops):
        return times, evictions
    return None, evictions


def _reference_attempt(self, ddg: DDG, ii: int, words: list[int]):
    """``ModuloScheduler._try_ii`` replaced by the golden attempt on the
    golden table (the demand words are recomputed by the table)."""
    return reference_try_ii(ddg, self.machine, ii, self.budget_ratio)


def use_reference_mrt(monkeypatch) -> None:
    """Make both modulo schedulers run on :class:`ReferenceModuloReservationTable`
    for the rest of the test (undone by pytest's ``monkeypatch``): IMS
    attempts go through :func:`reference_try_ii`, and the pipeline's
    Swing (which imports it at call time) is
    :func:`_reference_swing_modulo_schedule`."""
    monkeypatch.setattr(ModuloScheduler, "_try_ii", _reference_attempt)
    monkeypatch.setattr("repro.sched.modulo.swing.swing_modulo_schedule",
                        _reference_swing_modulo_schedule)


# ----------------------------------------------------------------------
# Swing modulo scheduling (repro.sched.modulo.swing)
# ----------------------------------------------------------------------
def _reference_swing_modulo_schedule(
    loop: Loop, ddg: DDG, machine: MachineDescription, max_ii: int | None = None,
) -> KernelSchedule:
    """SMS over :class:`Dependence` objects and the golden table: the
    oracle for :func:`~repro.sched.modulo.swing.swing_modulo_schedule`."""
    if len(ddg.ops) == 0:
        raise ValueError("cannot pipeline an empty loop")
    start_ii = min_ii(ddg, machine)
    guaranteed = max(start_ii, sum(machine.latency(op) for op in ddg.ops))
    cap = max_ii if max_ii is not None else guaranteed
    if cap < start_ii:
        raise SchedulingError(f"{loop.name!r}: max_ii={cap} below MinII={start_ii}")

    demand_cache: dict = {}
    deps = dependences(ddg)
    for ii in range(start_ii, cap + 1):
        times = _reference_swing_try_ii(ddg, deps, machine, ii, demand_cache)
        if times is not None:
            shift = min(times.values())
            times = {oid: t - shift for oid, t in times.items()}
            return KernelSchedule(machine=machine, loop=loop, ii=ii, times=times)
    raise SchedulingError(
        f"no swing schedule for {loop.name!r} up to II={cap} (MinII={start_ii})"
    )


def _reference_swing_mobility(ddg: DDG, deps: Dependences, ii: int) -> dict[int, int]:
    """ALAP - ASAP at this II (forward and backward height differences)."""
    try:
        backward = dict(zip(ddg.index().op_ids, longest_path_heights(ddg, ii=ii)))
    except ValueError:
        return {}
    depth = {op.op_id: 0 for op in ddg.ops}
    for _ in range(len(ddg.ops) + 1):
        changed = False
        for e in deps.edges:
            cand = depth[e.src.op_id] + e.delay - ii * e.distance
            if cand > depth[e.dst.op_id]:
                depth[e.dst.op_id] = cand
                changed = True
        if not changed:
            break
    else:
        return {}
    span = max((depth[o] + backward[o]) for o in depth) if depth else 0
    return {oid: max(0, span - depth[oid] - backward[oid]) for oid in depth}


def _reference_swing_order(ddg: DDG, deps: Dependences, ii: int) -> list | None:
    mobility = _reference_swing_mobility(ddg, deps, ii)
    if not mobility and len(ddg.ops) > 0:
        return None
    index = {op.op_id: i for i, op in enumerate(ddg.ops)}
    neighbors: dict[int, set[int]] = {op.op_id: set() for op in ddg.ops}
    for e in deps.edges:
        if e.src.op_id != e.dst.op_id:
            neighbors[e.src.op_id].add(e.dst.op_id)
            neighbors[e.dst.op_id].add(e.src.op_id)

    ordered: list[int] = []
    placed: set[int] = set()
    remaining = {op.op_id for op in ddg.ops}
    by_id = {op.op_id: op for op in ddg.ops}
    while remaining:
        chosen = min(remaining, key=lambda oid: (
            -len(neighbors[oid] & placed), mobility[oid], index[oid]))
        ordered.append(chosen)
        placed.add(chosen)
        remaining.discard(chosen)
    return [by_id[oid] for oid in ordered]


#: placement offset so the golden table sees non-negative times (every
#: row rotates by the same amount)
_SWING_OFFSET = 1 << 20


def _reference_swing_try_ii(ddg, deps, machine, ii, demand_cache):
    order = _reference_swing_order(ddg, deps, ii)
    if order is None:
        return None
    mrt = ReferenceModuloReservationTable(machine, ii, demands=demand_cache)
    times: dict[int, int] = {}
    by_id = {op.op_id: op for op in ddg.ops}
    pos = {op.op_id: i for i, op in enumerate(ddg.ops)}
    work = deque(order)
    budget = 8 * len(ddg.ops)

    while work and budget > 0:
        op = work.popleft()
        if op.op_id in times:
            continue
        budget -= 1

        early: int | None = None
        late: int | None = None
        for dep in deps.preds[pos[op.op_id]]:
            t = times.get(dep.src.op_id)
            if t is not None and dep.src.op_id != op.op_id:
                cand = t + dep.delay - ii * dep.distance
                early = cand if early is None else max(early, cand)
        for dep in deps.succs[pos[op.op_id]]:
            t = times.get(dep.dst.op_id)
            if t is not None and dep.dst.op_id != op.op_id:
                cand = t - dep.delay + ii * dep.distance
                late = cand if late is None else min(late, cand)

        slot = _reference_swing_place(mrt, op, early, late, ii)
        if slot is None:
            evicted_any = False
            for dep in deps.succs[pos[op.op_id]]:
                if dep.dst.op_id in times and dep.dst.op_id != op.op_id:
                    mrt.remove(by_id[dep.dst.op_id])
                    del times[dep.dst.op_id]
                    work.append(dep.dst)
                    evicted_any = True
            if not evicted_any:
                return None
            work.appendleft(op)
            continue
        mrt.place(op, slot + _SWING_OFFSET)
        times[op.op_id] = slot

    if len(times) == len(ddg.ops):
        return times
    return None


def _reference_swing_place(mrt, op, early, late, ii) -> int | None:
    if early is not None and late is not None:
        if late < early:
            return None
        for t in range(early, min(late, early + ii - 1) + 1):
            if mrt.fits(op, t + _SWING_OFFSET):
                return t
        return None
    if early is not None:
        for t in range(early, early + ii):
            if mrt.fits(op, t + _SWING_OFFSET):
                return t
        return None
    if late is not None:
        for t in range(late, late - ii, -1):
            if mrt.fits(op, t + _SWING_OFFSET):
                return t
        return None
    for t in range(0, ii):
        if mrt.fits(op, t + _SWING_OFFSET):
            return t
    return None


# ----------------------------------------------------------------------
# List scheduling (repro.sched.list_scheduler)
# ----------------------------------------------------------------------
def _reference_list_schedule(ddg: DDG, machine: MachineDescription) -> LinearSchedule:
    """Cycle-driven list scheduling over predecessor objects and a
    :class:`ReservationTable`: the oracle for
    :func:`~repro.sched.list_scheduler.list_schedule`."""
    deps = dependences(ddg)
    for e in deps.edges:
        if e.distance != 0:
            raise ValueError("list_schedule requires an acyclic (distance-0) DDG")

    heights = longest_path_heights(ddg, ii=0)
    order_index = {op.op_id: i for i, op in enumerate(ddg.ops)}
    times: dict[int, int] = {}
    table = ReservationTable(machine)
    cycle = 0
    max_cycles = sum(
        max([machine.latency(op)] + [dep.delay for dep in deps.succs[i]])
        for i, op in enumerate(ddg.ops)
    ) + len(ddg.ops) + 1

    while len(times) < len(ddg.ops):
        if cycle > max_cycles:
            raise RuntimeError("list scheduler failed to converge (resource model bug?)")
        ready = []
        for i, op in enumerate(ddg.ops):
            if op.op_id in times:
                continue
            preds = deps.preds[i]
            if any(dep.src.op_id not in times for dep in preds):
                continue
            earliest = max((times[dep.src.op_id] + dep.delay for dep in preds), default=0)
            if earliest <= cycle:
                ready.append(op)
        ready.sort(key=lambda op: (-heights[order_index[op.op_id]], order_index[op.op_id]))
        for op in ready:
            if table.fits(op, cycle):
                table.place(op, cycle)
                times[op.op_id] = cycle
        cycle += 1
    return LinearSchedule(machine=machine, ops=list(ddg.ops), times=times)


# ----------------------------------------------------------------------
# UAS and BUG partitioners (repro.core.uas, repro.core.baselines)
# ----------------------------------------------------------------------
def _copy_latencies(machine: MachineDescription) -> dict[DataType, int]:
    lat = machine.latencies
    return {DataType.INT: lat.of_class(OpClass.COPY_INT),
            DataType.FLOAT: lat.of_class(OpClass.COPY_FLOAT)}


def _reference_uas_partition(
    loop: Loop, ddg: DDG, machine: MachineDescription, budget_ratio: int = 12,
) -> Partition:
    """The UAS joint pass over :class:`Dependence` objects and op-keyed
    dicts: the oracle for :func:`~repro.core.uas.uas_partition`."""
    copy_latency = _copy_latencies(machine)
    start_ii = max(recurrence_ii(ddg), -(-len(ddg.ops) // machine.width))
    cap = max(start_ii, sum(machine.latencies.of(op) for op in ddg.ops) + len(ddg.ops))
    deps = dependences(ddg)
    for ii in range(start_ii, cap + 1):
        assignment = _reference_uas_try_ii(ddg, deps, machine, ii, budget_ratio,
                                           copy_latency)
        if assignment is not None:
            break
    else:
        raise RuntimeError(f"UAS failed to schedule {loop.name!r}")
    part = Partition(n_banks=machine.n_clusters)
    for op in loop.ops:
        if op.dest is not None:
            part.assign(op.dest, assignment[op.op_id])
    _place_live_ins(loop, part, assignment)
    return part


def _reference_uas_try_ii(ddg, deps, machine, ii, budget_ratio, copy_latency):
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
        _, i, oid = heapq.heappop(heap)
        if oid in times:
            continue
        op = by_id[oid]
        budget -= 1

        best: tuple[int, int, int] | None = None  # (time, load, cluster)
        for c in range(machine.n_clusters):
            estart = 0
            for dep in deps.preds[i]:
                src_t = times.get(dep.src.op_id)
                if src_t is None:
                    continue
                delay = dep.delay
                if dep.reg is not None and clusters.get(dep.src.op_id, c) != c:
                    delay += copy_latency[dep.reg.dtype]
                estart = max(estart, src_t + delay - ii * dep.distance)
            for t in range(max(0, estart), max(0, estart) + ii):
                if mrt.fits(t, c):
                    cand = (t, mrt.load(c), c)
                    if best is None or cand < best:
                        best = cand
                    break

        if best is None:
            c = min(range(machine.n_clusters), key=mrt.load)
            prev = prev_time.get(oid)
            slot = 0 if prev is None else prev + 1
            victims = [vid for vid, vt in times.items()
                       if vt % ii == slot % ii and clusters[vid] == c]
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

        for dep in deps.succs[i]:
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


def _reference_bug_partition(loop: Loop, ddg: DDG, machine: MachineDescription) -> Partition:
    """Bottom-up greedy over the distance-0 topological order and
    predecessor objects: the oracle for
    :func:`~repro.core.baselines.bug_partition`."""
    n = machine.n_clusters
    part = Partition(n_banks=n)
    lat = machine.latencies
    cluster_load = [0.0] * n
    op_cluster: dict[int, int] = {}
    reg_bank: dict[int, int] = {}
    done_time: dict[int, float] = {}
    copy_latency = _copy_latencies(machine)
    deps = dependences(ddg)

    ddg.verify_acyclic_at_distance_zero()
    for v in reversed(ddg.index().rev_topo0):
        op = ddg.ops[v]
        best_cluster, best_cost = 0, float("inf")
        for c in range(n):
            ready = 0.0
            for dep in deps.preds[v]:
                if dep.distance != 0:
                    continue
                src_c = op_cluster.get(dep.src.op_id, c)
                penalty = 0.0
                if src_c != c and dep.reg is not None:
                    penalty = copy_latency[dep.reg.dtype]
                ready = max(ready, done_time.get(dep.src.op_id, 0.0) + penalty)
            for src in op.used():
                bank = reg_bank.get(src.rid)
                if bank is not None and bank != c:
                    ready = max(ready, copy_latency[src.dtype])
            cost = ready + cluster_load[c] / machine.fus_per_cluster
            if cost < best_cost:
                best_cost, best_cluster = cost, c
        op_cluster[op.op_id] = best_cluster
        cluster_load[best_cluster] += 1.0
        done_time[op.op_id] = best_cost + lat.of(op)
        if op.dest is not None:
            part.assign(op.dest, best_cluster)
            reg_bank[op.dest.rid] = best_cluster
    _place_live_ins(loop, part, op_cluster)
    return part


# ----------------------------------------------------------------------
# Partitioned DDG (repro.ddg.builder.derive_partitioned_ddg)
# ----------------------------------------------------------------------
def ddg_rows(ddg: DDG) -> dict[str, object]:
    """Everything the compiler reads of ``ddg`` and its analysis index,
    as plain values: the stored rows, the :func:`dependences` edge list
    and every predecessor list in insertion order, each edge as ``(src
    index, dst index, kind, delay, distance, reg rid)``; the edge-key
    map; and the index's arrays
    (whose ``out_edges`` split that edge list into successor lists),
    distance-0 order and cyclic SCCs in list order.  SCC ids are
    relabelled by first occurrence, so two labellings of the same
    components compare equal."""
    pos = {op.op_id: i for i, op in enumerate(ddg.ops)}

    def row(e):
        rid = e.reg.rid if e.reg is not None else None
        return (pos[e.src.op_id], pos[e.dst.op_id], e.kind, e.delay, e.distance, rid)

    idx = ddg.index()
    deps = dependences(ddg)
    relabel: dict[int, int] = {}
    for sid in idx.scc_of:
        relabel.setdefault(sid, len(relabel))
    return {
        "rows": [(*r[:5], r[5].rid if r[5] is not None else None) for r in ddg.rows],
        "edges": [row(e) for e in deps.edges],
        "preds": [[row(e) for e in preds] for preds in deps.preds],
        "edge_keys": ddg._key_rows(),
        "arrays": (idx.n, idx.m, idx.op_ids, idx.edge_row, idx.src, idx.dst,
                   idx.delay, idx.dist, [list(out) for out in idx.out_edges]),
        "rev_topo0": idx.rev_topo0,
        "scc_of": [relabel[sid] for sid in idx.scc_of],
        "cyclic_sccs": [
            (s.nodes, s.esrc, s.edst, s.edelay, s.edist, s.delay_sum,
             s.self_lo, s.zero_distance_cycle)
            for s in idx.cyclic_sccs
        ],
    }


def rebuilt_ddg_rows(loop, latencies) -> dict[str, object]:
    """:func:`ddg_rows` of ``build_loop_ddg(loop)`` with a fresh index —
    the oracle a derived partitioned DDG must equal."""
    from repro.ddg.builder import build_loop_ddg

    return ddg_rows(build_loop_ddg(loop, latencies))


# ----------------------------------------------------------------------
# DDG analyses (repro.ddg.analysis)
# ----------------------------------------------------------------------
def _reference_resource_ii(ddg: DDG, machine: MachineDescription) -> int:
    """The original per-op ResII count (no memo): one
    ``machine.validate_cluster`` call and one copy classification per op.
    The parity-test oracle for :func:`~repro.ddg.analysis.resource_ii`,
    which counts the distinct demand words instead."""
    if len(ddg) == 0:
        return 1
    unassigned = sum(1 for op in ddg.ops if op.cluster is None)
    if unassigned == len(ddg.ops) or not machine.is_clustered:
        return max(1, math.ceil(len(ddg.ops) / machine.width))

    fu_demand = [0] * machine.n_clusters
    copy_port_demand = [0] * machine.n_clusters
    total_copies = 0
    for op in ddg.ops:
        cluster = op.cluster if op.cluster is not None else 0
        machine.validate_cluster(cluster)
        if op.is_copy and machine.copy_model is CopyModel.COPY_UNIT:
            copy_port_demand[cluster] += 1
            total_copies += 1
        else:
            fu_demand[cluster] += 1

    bounds = [math.ceil(d / machine.fus_per_cluster) for d in fu_demand]
    if machine.copy_model is CopyModel.COPY_UNIT:
        bounds.extend(
            math.ceil(d / machine.copy_ports_per_cluster) for d in copy_port_demand
        )
        if machine.n_buses:
            bounds.append(math.ceil(total_copies / machine.n_buses))
    return max(1, *bounds)


def _has_positive_cycle(ddg: DDG, ii: int) -> bool:
    """Bellman-Ford-style longest-path relaxation on edge weights
    ``delay - ii * distance``; a relaxation still possible after |V|
    rounds witnesses a positive cycle.  Whole-graph form — the optimised
    path probes per-SCC edge arrays instead."""
    n = len(ddg)
    if n == 0:
        return False
    dist = {op.op_id: 0 for op in ddg.ops}
    edges = [
        (e.src.op_id, e.dst.op_id, e.delay - ii * e.distance)
        for e in dependences(ddg).edges
    ]
    for _ in range(n):
        changed = False
        for u, v, w in edges:
            cand = dist[u] + w
            if cand > dist[v]:
                dist[v] = cand
                changed = True
        if not changed:
            return False
    return True


def _reference_recurrence_ii(ddg: DDG) -> int:
    """The pre-condensation search (kept for golden-equivalence tests)."""
    if len(ddg) == 0 or ddg.n_edges == 0:
        return 1
    edges = dependences(ddg).edges
    hi = max(1, sum(e.delay for e in edges))
    lo = 1
    # tighten the lower bound with self-edges, which are common (accumulators)
    for e in edges:
        if e.src.op_id == e.dst.op_id and e.distance > 0:
            lo = max(lo, math.ceil(e.delay / e.distance))
    if _has_positive_cycle(ddg, hi):
        raise ValueError("DDG has a positive cycle at maximal II; zero-distance cycle?")
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_positive_cycle(ddg, mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _has_positive_cycle_real(ddg: DDG, ii: float) -> bool:
    n = len(ddg)
    dist = {op.op_id: 0.0 for op in ddg.ops}
    edges = [
        (e.src.op_id, e.dst.op_id, e.delay - ii * e.distance)
        for e in dependences(ddg).edges
    ]
    eps = 1e-9
    for _ in range(n):
        changed = False
        for u, v, w in edges:
            cand = dist[u] + w
            if cand > dist[v] + eps:
                dist[v] = cand
                changed = True
        if not changed:
            return False
    return True


def _reference_critical_cycle_ratio(ddg: DDG, tolerance: float = 1e-6) -> float:
    """Whole-graph bisection (kept for golden-equivalence tests)."""
    if len(ddg) == 0 or ddg.n_edges == 0:
        return 0.0
    if not _has_positive_cycle_real(ddg, 0.0):
        return 0.0
    lo, hi = 0.0, float(max(1, sum(e.delay for e in dependences(ddg).edges)))
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if _has_positive_cycle_real(ddg, mid):
            lo = mid
        else:
            hi = mid
    return hi


def _reference_longest_path_heights(ddg: DDG, ii: int = 0) -> list[int]:
    """Arbitrary-order fixpoint iteration over edge objects, one height
    per op position: the
    golden-equivalence oracle for
    :func:`repro.ddg.analysis.longest_path_heights`."""
    height = {op.op_id: 0 for op in ddg.ops}
    edges = dependences(ddg).edges
    for _round_no in range(len(ddg.ops) + 1):
        changed = False
        for e in edges:
            cand = height[e.dst.op_id] + e.delay - ii * e.distance
            if cand > height[e.src.op_id]:
                height[e.src.op_id] = cand
                changed = True
        if not changed:
            return [height[op.op_id] for op in ddg.ops]
    raise ValueError(f"heights diverge at ii={ii}: positive cycle present")


def _reference_estart_lstart(ddg: DDG, times, length: int, latencies=None):
    """Per-op walk over predecessor/successor edge objects: the
    golden-equivalence oracle for :func:`repro.ddg.analysis.estart_lstart`."""
    estart: dict[int, int] = {}
    lstart: dict[int, int] = {}
    deps = dependences(ddg)
    for v, op in enumerate(ddg.ops):
        e = 0
        for dep in deps.preds[v]:
            if dep.distance == 0:
                e = max(e, times[dep.src.op_id] + dep.delay)
        estart[op.op_id] = e
        latest = length - (latencies.of(op) if latencies is not None else 1)
        for dep in deps.succs[v]:
            if dep.distance == 0:
                latest = min(latest, times[dep.dst.op_id] - dep.delay)
        lstart[op.op_id] = max(latest, e)
    return estart, lstart


# ----------------------------------------------------------------------
# Greedy partitioner (repro.core.greedy)
# ----------------------------------------------------------------------
def _reference_greedy_partition(
    rcg: FrozenRCG,
    n_banks: int,
    config: HeuristicConfig = DEFAULT_HEURISTIC,
    precolored: dict[SymbolicRegister, int] | None = None,
    slots_per_bank: int | None = None,
) -> Partition:
    """The direct Figure-4 transcription: per-(node, bank) neighbor
    rescans and full ``bank_sizes`` recomputation.  Value-identical to
    :func:`greedy_partition`; kept as the property-test oracle."""
    if n_banks < 1:
        raise ValueError("need at least one bank")
    partition = Partition(n_banks=n_banks)

    positives = [w for _a, _b, w in rcg.edges() if w > 0]
    if not positives:
        positives = [abs(w) for _a, _b, w in rcg.edges()] or [1.0]
    weight_scale = sum(positives) / len(positives)
    penalty = config.balance_penalty * weight_scale

    if precolored:
        for reg, bank in precolored.items():
            if reg not in rcg:
                raise ValueError(f"precolored register {reg} is not an RCG node")
            partition.assign(reg, bank)

    capacity: float | None = None
    if slots_per_bank is not None and config.capacity_alpha > 0:
        capacity = config.capacity_alpha * slots_per_bank

    for node in rcg.nodes_by_weight():
        if node in partition:
            continue
        bank = _reference_choose_best_bank(
            rcg, partition, node, n_banks, penalty, capacity, config
        )
        partition.assign(node, bank)
    return partition


def _reference_choose_best_bank(
    rcg: FrozenRCG,
    partition: Partition,
    node: SymbolicRegister,
    n_banks: int,
    penalty: float,
    capacity: float | None,
    config: HeuristicConfig = DEFAULT_HEURISTIC,
) -> int:
    sizes = partition.bank_sizes()
    average = sum(sizes) / n_banks
    benefits: list[float] = []
    for bank in range(n_banks):
        benefit = 0.0
        for neighbor, weight in rcg.neighbors(node):
            if neighbor in partition and partition.bank_of(neighbor) == bank:
                benefit += weight
        if capacity is not None:
            benefit -= penalty * max(0.0, sizes[bank] + 1 - capacity)
        else:
            benefit -= penalty * max(0.0, sizes[bank] - average)
        benefits.append(benefit)

    if config.literal_figure4:
        best_bank, best_benefit = 0, 0.0
        for bank, benefit in enumerate(benefits):
            if benefit > best_benefit:
                best_benefit = benefit
                best_bank = bank
        return best_bank

    best_bank = 0
    best_benefit = benefits[0]
    for bank in range(1, n_banks):
        if benefits[bank] > best_benefit:
            best_benefit = benefits[bank]
            best_bank = bank
    return best_bank


# ----------------------------------------------------------------------
# RCG weighting (repro.core.weights)
# ----------------------------------------------------------------------
def _reference_build_rcg_from_kernel(
    kernel: KernelSchedule,
    ddg: DDG,
    config: HeuristicConfig = DEFAULT_HEURISTIC,
) -> RegisterComponentGraph:
    """The Section-5 weighting through the graph's method calls: per
    kernel row, ``add_edge_weight`` and ``add_node_weight`` for every
    def-use pair, ``add_node`` for every register an op mentions, then
    ``add_edge_weight`` for every def-def pair of two distinct ops, and
    finally ``add_node`` over ``loop.registers()``.  The oracle for
    :func:`~repro.core.weights.build_rcg_from_kernel`, which writes the
    graph's tables directly."""
    rcg = RegisterComponentGraph()
    slack = schedule_slack(ddg, kernel.times, kernel.flat_length, kernel.machine.latencies)
    density = len(kernel.loop.ops) / kernel.ii
    scale = config.depth_base ** kernel.loop.depth * (density if config.use_density else 1.0)
    affinity = config.affinity_scale * scale
    antiaffinity = config.antiaffinity_scale * scale
    for instr in kernel.kernel_rows():
        per_op = []
        for op in instr:
            fw = config.flexibility_weight(slack[op.op_id])
            per_op.append((op.defined(), fw))
            for d in op.defined():
                for u in op.used():
                    if d.rid != u.rid:
                        rcg.add_edge_weight(d, u, affinity * fw)
                        rcg.add_node_weight(d, affinity * fw)
                        rcg.add_node_weight(u, affinity * fw)
            for reg in op.registers():
                rcg.add_node(reg)
        for (defs_a, fw_a), (defs_b, fw_b) in itertools.combinations(per_op, 2):
            for d1 in defs_a:
                for d2 in defs_b:
                    if d1.rid != d2.rid:
                        rcg.add_edge_weight(d1, d2, -antiaffinity * min(fw_a, fw_b))
    for reg in kernel.loop.registers():
        rcg.add_node(reg)
    return rcg


# ----------------------------------------------------------------------
# Copy insertion (repro.core.copies)
# ----------------------------------------------------------------------
def _reference_insert_copies(
    loop: Loop, partition: Partition, machine: MachineDescription,
) -> PartitionedLoop:
    """Copy insertion in four passes over op objects: clone every op
    (through the validating constructor) and pin it with
    :func:`~repro.core.copies._home_cluster`; collect the cross-bank
    reads per consumer; mint the copies in (rid, cluster) order and
    rewrite every consumer; assemble the body with each def's copies
    sorted by register.  The op-keyed maps it builds are turned into
    the result's positions at the end.  The oracle for
    :func:`~repro.core.copies.insert_copies`."""
    part = partition.copy()
    factory = RegisterFactory()
    taken = {r.name for r in loop.registers()}

    new_ops: list[Operation] = []
    op_map: dict[int, Operation] = {}
    for op in loop.ops:
        clone = Operation(opcode=op.opcode, dest=op.dest, sources=op.sources,
                          mem=op.mem, cluster=op.cluster)
        clone.cluster = _home_cluster(clone, part)
        op_map[op.op_id] = clone
        new_ops.append(clone)

    needed: dict[tuple[int, int], list[Operation]] = {}
    reg_by_rid: dict[int, SymbolicRegister] = {}
    for op in new_ops:
        for src in op.used():
            reg_by_rid[src.rid] = src
            if part.bank_of(src) != op.cluster:
                needed.setdefault((src.rid, op.cluster), []).append(op)
    defined_at = {op.dest.rid: i for i, op in enumerate(new_ops) if op.dest is not None}

    body_copies: list[Operation] = []
    preheader_copies: list[tuple[SymbolicRegister, SymbolicRegister]] = []
    insertions: dict[int, list[Operation]] = {}
    new_live_in = set(loop.live_in)
    copy_origin: dict[int, SymbolicRegister] = {}
    copy_for: dict[tuple[int, int], Operation] = {}
    for (src_rid, cluster), consumers in sorted(needed.items()):
        src = reg_by_rid[src_rid]
        name = f"{src.name}.c{cluster}"
        while name in taken:
            name += "_"
        taken.add(name)
        copy_reg = factory.new(src.dtype, name=name)
        part.assign(copy_reg, cluster)
        copy_origin[copy_reg.rid] = src
        if src_rid in defined_at:
            cp = make_copy(copy_reg, src, cluster=cluster)
            insertions.setdefault(defined_at[src_rid], []).append(cp)
            body_copies.append(cp)
            copy_for[(src_rid, cluster)] = cp
        else:
            preheader_copies.append((src, copy_reg))
            new_live_in.add(copy_reg)
        for consumer in consumers:
            consumer.sources = tuple(
                copy_reg if isinstance(s, SymbolicRegister) and s.rid == src_rid else s
                for s in consumer.sources
            )

    body: list[Operation] = []
    for i, op in enumerate(new_ops):
        body.append(op)
        body.extend(sorted(insertions.get(i, ()), key=lambda c: c.dest.rid))

    position = {op.op_id: j for j, op in enumerate(body)}
    source_of = {clone.op_id: i for i, clone in enumerate(op_map[op.op_id] for op in loop.ops)}
    return PartitionedLoop(
        loop=Loop(
            name=loop.name,
            body=BasicBlock(name=f"{loop.name}.body", ops=body, depth=loop.depth),
            depth=loop.depth,
            factory=factory,
            live_in=new_live_in,
            live_out=set(loop.live_out),
            trip_count_hint=loop.trip_count_hint,
        ),
        partition=part,
        body_copies=body_copies,
        preheader_copies=preheader_copies,
        copy_origin=copy_origin,
        origin=[source_of.get(op.op_id, -1) for op in body],
        copy_at={key: position[cp.op_id] for key, cp in copy_for.items()},
    )


def partitioned_listing(partitioned: PartitionedLoop) -> dict[str, object]:
    """Everything the compiler reads of a copy-inserted loop, as plain
    values that do not depend on how many ids the process minted before:
    the listing, each op's id rank and cluster, the partition by name in
    insertion order, the copies, live-ins and ``copy_origin`` by name,
    the copy registers' rid ranks, and the body positions."""
    loop = partitioned.loop
    ids = sorted(op.op_id for op in loop.ops)
    regs = partitioned.partition._registers
    copy_rids = sorted(partitioned.copy_origin)
    return {
        "listing": format_loop(loop),
        "op_id_rank": [ids.index(op.op_id) for op in loop.ops],
        "clusters": [op.cluster for op in loop.ops],
        "partition": [(regs[rid].name, bank)
                      for rid, bank in partitioned.partition.assignment.items()],
        "body_copies": [(cp.dest.name, cp.sources[0].name, cp.cluster)
                        for cp in partitioned.body_copies],
        "preheader_copies": [(src.name, dst.name)
                             for src, dst in partitioned.preheader_copies],
        "live_in": sorted(reg.name for reg in loop.live_in),
        "live_out": sorted(reg.name for reg in loop.live_out),
        "copy_origin": [(regs[rid].name, origin.name)
                        for rid, origin in partitioned.copy_origin.items()],
        "copy_rid_rank": [regs[rid].name for rid in copy_rids],
        "origin": partitioned.origin,
        "copy_at": partitioned.copy_at,
    }


def frozen_tables(builder: RegisterComponentGraph) -> dict[str, object]:
    """Every table of the :class:`~repro.core.rcg.FrozenRCG` that
    ``builder`` packs, as plain values (registers by rid)."""
    frozen = builder.freeze()
    return {
        "regs": [reg.rid for reg in frozen.nodes()],
        "weights": list(frozen._weights),
        "offsets": list(frozen._offsets),
        "nbr": list(frozen._nbr),
        "wgt": list(frozen._wgt),
        "edge_pos": list(frozen._edge_pos),
        "placement_order": list(frozen.placement_order),
        "weight_scale": frozen.weight_scale,
        "n_positive_components": frozen.n_positive_components,
    }


# ----------------------------------------------------------------------
# Register allocation (repro.regalloc)
# ----------------------------------------------------------------------
def _reference_cyclic_liveness(kernel: KernelSchedule, ddg: DDG) -> CyclicLiveness:
    """The original liveness walk over the DDG's ``Dependence`` objects:
    per defining op, its successor edges carrying that register push the
    last use to ``t(dst) + II * distance``.  The parity-test oracle for
    :func:`~repro.regalloc.liveness.cyclic_liveness`, which reads the int
    edge rows instead (identical ranges, in the same order: live-ins in
    rid order)."""
    loop = kernel.loop
    ii = kernel.ii
    flat_length = kernel.flat_length
    ranges: dict[int, LiveRange] = {}

    use_counts: dict[int, int] = {}
    for op in loop.ops:
        for r in op.used():
            use_counts[r.rid] = use_counts.get(r.rid, 0) + 1

    succs = dependences(ddg).succs
    for op in loop.ops:
        if op.dest is None:
            continue
        reg = op.dest
        t_def = kernel.time_of(op)
        last = t_def + kernel.machine.latency(op)  # a dead def still owns its slot
        for dep in succs[ddg.index_of(op)]:
            if dep.reg is not None and dep.reg.rid == reg.rid:
                last = max(last, kernel.time_of(dep.dst) + ii * dep.distance)
        if reg in loop.live_out:
            last = max(last, flat_length)
        ranges[reg.rid] = LiveRange(
            reg=reg,
            start=t_def,
            lifetime=max(1, last - t_def),
            invariant=False,
            n_uses=use_counts.get(reg.rid, 0),
        )

    for reg in sorted(loop.live_in, key=lambda r: r.rid):
        if reg.rid in ranges:
            continue
        ranges[reg.rid] = LiveRange(
            reg=reg,
            start=0,
            lifetime=flat_length,
            invariant=True,
            n_uses=use_counts.get(reg.rid, 0),
        )
    return CyclicLiveness(ii=ii, ranges=ranges)


@dataclass(frozen=True)
class ReplicaWindow:
    """One cyclic occupancy window of one register name."""

    rid: int
    replica: int
    start: int      # within [0, timeline)
    length: int     # <= timeline


def mve_windows(plan: MVEPlan) -> list[ReplicaWindow]:
    """Lam's expansion of ``plan``: one window per (value, iteration) of
    the unrolled kernel, and one timeline-long window per invariant.  The
    occupancy oracle behind :func:`_reference_build_interference`."""
    timeline = plan.timeline
    windows: list[ReplicaWindow] = []
    for rid, lr_start, lifetime, q, invariant in zip(
        plan.rids, plan.starts, plan.lifetimes, plan.replicas, plan.invariant
    ):
        if invariant:
            windows.append(ReplicaWindow(rid=rid, replica=0, start=0, length=timeline))
            continue
        # iteration j (0 <= j < unroll) writes name j mod q at cycle
        # (j * II + start) mod timeline for `lifetime` cycles
        for j in range(plan.unroll):
            start = (j * plan.ii + lr_start) % timeline
            length = min(lifetime, timeline)
            windows.append(
                ReplicaWindow(rid=rid, replica=j % q, start=start, length=length)
            )
    return windows


def add_node(graph: InterferenceGraph, name: Name) -> None:
    """Insert ``name`` into a hand-built graph, keeping ``nodes`` sorted
    (an open zero bit is spliced into every neighbour row; masks derived
    from the old rows are dropped)."""
    if name in graph.index:
        return
    vars(graph).pop("masks", None)
    pos = bisect.bisect(graph.nodes, name)
    graph.nodes.insert(pos, name)
    low = (1 << pos) - 1
    graph.adj = [(row & low) | ((row >> pos) << (pos + 1)) for row in graph.adj]
    graph.adj.insert(pos, 0)
    graph.index = {n: i for i, n in enumerate(graph.nodes)}


def add_edge(graph: InterferenceGraph, a: Name, b: Name) -> None:
    """Mark ``a`` and ``b`` as interfering, adding either if absent."""
    if a == b:
        return
    add_node(graph, a)
    add_node(graph, b)
    ia, ib = graph.index[a], graph.index[b]
    vars(graph).pop("masks", None)
    graph.adj[ia] |= 1 << ib
    graph.adj[ib] |= 1 << ia


def _reference_build_interference(
    plan: MVEPlan, rids: set[int] | None = None
) -> InterferenceGraph:
    """The original cycle-by-cycle sweep over :func:`mve_windows` —
    builds per-cycle live sets and marks every co-live pair.  The
    parity-test oracle for :func:`build_interference` and
    :func:`bank_interference` (identical nodes, adjacency and max
    pressure)."""
    graph = InterferenceGraph()
    windows = [
        w for w in mve_windows(plan) if rids is None or w.rid in rids
    ]
    for w in windows:
        add_node(graph, (w.rid, w.replica))

    timeline = plan.timeline
    live_at: list[set[Name]] = [set() for _ in range(timeline)]
    for w in windows:
        for off in range(min(w.length, timeline)):
            live_at[(w.start + off) % timeline].add((w.rid, w.replica))

    max_pressure = 0
    seen_pairs: set[tuple[Name, Name]] = set()
    for live in live_at:
        max_pressure = max(max_pressure, len(live))
        for a, b in itertools.combinations(sorted(live), 2):
            if (a, b) in seen_pairs:
                continue
            seen_pairs.add((a, b))
            add_edge(graph, a, b)
    graph.max_pressure = max_pressure
    return graph


def _reference_chaitin_briggs_color(
    graph: InterferenceGraph,
    k: int,
    spill_cost: Callable[[Name], float] | None = None,
) -> ColoringResult:
    """The original set-based colourer, through the graph's name-level
    API.  The parity-test oracle for :func:`chaitin_briggs_color`
    (identical colors, spill order and optimistic saves)."""
    if k < 1:
        raise ValueError("k must be positive")
    cost = spill_cost if spill_cost is not None else (lambda _name: 1.0)

    degrees: dict[Name, int] = {n: graph.degree(n) for n in graph.nodes}
    removed: set[Name] = set()
    stack: list[tuple[Name, bool]] = []  # (name, was_optimistic)
    remaining = set(graph.nodes)

    while remaining:
        # simplify: any node with degree < k
        candidate = None
        for name in sorted(remaining):
            if degrees[name] < k:
                candidate = name
                break
        optimistic = candidate is None
        if optimistic:
            # Briggs: pick the cheapest spill candidate but keep going
            candidate = min(
                sorted(remaining),
                key=lambda n: (cost(n) / max(1, degrees[n]), n),
            )
        remaining.discard(candidate)
        removed.add(candidate)
        for nb in graph.neighbors(candidate):
            if nb not in removed:
                degrees[nb] -= 1
        stack.append((candidate, optimistic))

    result = ColoringResult(k=k)
    for name, optimistic in reversed(stack):
        used = {
            result.colors[nb]
            for nb in graph.neighbors(name)
            if nb in result.colors
        }
        color = next((c for c in range(k) if c not in used), None)
        if color is None:
            result.spilled.append(name)
        else:
            result.colors[name] = color
            if optimistic:
                result.optimistic_saves += 1
    return result


def _reference_pressure_rows(liveness: CyclicLiveness) -> list[int]:
    """Cycle-by-cycle transcription of the steady-state live count of the
    non-invariant values — O(sum of lifetimes); the parity-test oracle for
    ``pressure_rows``."""
    window = [0] * liveness.ii
    for lr in liveness:
        if lr.invariant:
            continue
        for age in range(lr.lifetime):
            window[(lr.start + age) % liveness.ii] += 1
    return window


# ----------------------------------------------------------------------
# Store records (repro.store.entry)
# ----------------------------------------------------------------------
def _reference_record_bytes(key, result) -> bytes:
    """The store record of ``result`` under ``key``, encoded whole: the
    payload as one dict with every part built for this cell, each line
    and the header by ``json.dumps`` (sorted keys, no spaces).  The
    oracle for :class:`repro.store.entry.PayloadEncoder`, which
    assembles the payload from fragments it reuses across cells."""
    import hashlib
    import json

    from repro.store.entry import SCHEMA_VERSION

    def dumps(doc) -> bytes:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()

    loop, partitioned = result.loop, result.partitioned
    precopy = result.precopy_loop
    partition = result.partition
    names = dict(partition._registers)
    body = set(map(id, partitioned.body_copies))
    bank_of = partitioned.partition.assignment
    payload = {
        "ideal": {
            "ii": result.ideal.ii,
            "times": [result.ideal.times[op.op_id] for op in loop.ops],
        },
        "precopy": None if precopy is None or precopy is loop else format_loop(precopy),
        "partition": {
            "n_banks": partition.n_banks,
            "banks": sorted(
                [names[rid].name, bank] for rid, bank in partition.assignment.items()
            ),
        },
        "copies": [
            [op.sources[0].name, op.cluster]
            for op in partitioned.loop.ops if id(op) in body
        ] + sorted([src.name, bank_of[dst.rid]]
                   for src, dst in partitioned.preheader_copies),
        "kernel": {
            "ii": result.kernel.ii,
            "times": [result.kernel.times[op.op_id] for op in partitioned.loop.ops],
        },
        "bank_assignment": None,
    }
    ba = result.bank_assignment
    if ba is not None:
        regs = partitioned.partition._registers
        payload["bank_assignment"] = {
            "unroll": ba.unroll,
            "max_pressure": ba.max_pressure,
            "physical": sorted(
                [regs[rid].name, replica, bank, idx]
                for (rid, replica), (bank, idx) in ba.physical.items()
            ),
        }
    meta_line = dumps({"loop_name": loop.name, "metrics": result.metrics.to_dict()})
    payload_line = dumps(payload)
    header = dumps({
        "digest": key.digest,
        "key": json.loads(key.canonical_json),
        "magic": "repro-store",
        "meta_sha256": hashlib.sha256(meta_line).hexdigest(),
        "payload_sha256": hashlib.sha256(payload_line).hexdigest(),
        "schema": SCHEMA_VERSION,
    })
    return b"\n".join((header, meta_line, payload_line, b""))


# ----------------------------------------------------------------------
# Compile service replies (repro.serve.server)
# ----------------------------------------------------------------------
async def _reference_submit_admitted(
    service, req_id, loops, configs, labels, budget, writer, t0,
) -> None:
    """``CompileService._submit_admitted`` sending every reply line with
    its own ``write`` and ``drain`` (``service._send``): the oracle for
    the batched replies, whose joined bytes must equal these lines."""
    import asyncio

    from repro.core.fingerprint import store_key
    from repro.core.results import LoopFailure
    from repro.evalx.runner import chunk_cells
    from repro.store.entry import StoreEntryError

    n_cells = len(loops) * len(labels)
    await service._send(writer, {
        "type": "accepted", "id": req_id,
        "cells": n_cells, "configs": labels,
    })
    counts = {"store": 0, "inflight": 0, "compiled": 0, "failures": 0}

    async def stream_cell(loop_index, loop, label, source, metrics, failure):
        out = {
            "type": "cell", "id": req_id, "loop_index": loop_index,
            "loop": loop.name, "config": label, "source": source,
            "ok": failure is None,
        }
        if failure is None:
            counts[source] += 1
            service.metrics.counter(f"serve.cells.{source}").inc()
            out["metrics"] = metrics.to_dict()
        else:
            counts["failures"] += 1
            service.metrics.counter("serve.cells.failed").inc()
            out["failure"] = asdict(failure)
        service.metrics.counter("serve.cells").inc()
        await service._send(writer, out)

    waiting: dict = {}
    cold: list = []
    cold_digests: list[str] = []
    warm: list = []
    for loop_index, loop in enumerate(loops):
        for (n_clusters, model), label in zip(configs, labels):
            machine, prefix = service._machine_for(label, n_clusters, model)
            key = store_key(loop, machine, service.pipeline_config, prefix)
            entry = service.store.lookup(key)
            if entry is not None:
                try:
                    warm.append((loop_index, loop, label, entry.metrics()))
                    continue
                except StoreEntryError:
                    service.store.reject(key)
            fut = service._inflight.get(key.digest)
            if fut is not None:
                waiting.setdefault(fut, []).append((loop_index, loop, label, "inflight"))
                continue
            fut = asyncio.get_running_loop().create_future()
            service._inflight[key.digest] = fut
            cold.append((len(cold), loop, n_clusters, model.value))
            cold_digests.append(key.digest)
            waiting.setdefault(fut, []).append((loop_index, loop, label, "compiled"))
    service.metrics.gauge("serve.queue_depth").set(len(service._inflight))

    for loop_index, loop, label, metrics in warm:
        await stream_cell(loop_index, loop, label, "store", metrics, None)

    deadline_at = time.monotonic() + budget if budget is not None else None
    for chunk in chunk_cells(cold, service.jobs):
        task = asyncio.get_running_loop().create_task(
            service._run_chunk(chunk, cold_digests, deadline_at)
        )
        service._chunk_tasks.add(task)
        task.add_done_callback(service._chunk_tasks.discard)

    cutoff = t0 + budget + 0.5 if budget is not None else None
    plan_order = {fut: i for i, fut in enumerate(waiting)}
    pending = set(waiting)
    while pending:
        timeout = None if cutoff is None else max(cutoff - time.perf_counter(), 0.0)
        done, pending = await asyncio.wait(
            pending, return_when=asyncio.FIRST_COMPLETED, timeout=timeout,
        )
        if not done:
            break
        for fut in sorted(done, key=plan_order.__getitem__):
            cell = fut.result()
            for loop_index, loop, label, source in waiting[fut]:
                await stream_cell(
                    loop_index, loop, label, source,
                    cell.metrics, service._relabel(cell.failure, loop, label),
                )
    for fut in sorted(pending, key=plan_order.__getitem__):
        for loop_index, loop, label, _source in waiting[fut]:
            failure = LoopFailure(
                config=label, loop_name=loop.name,
                error=f"request deadline of {budget:g}s exceeded", kind="timeout",
            )
            await stream_cell(loop_index, loop, label, "", None, failure)

    elapsed_ms = (time.perf_counter() - t0) * 1e3
    service.metrics.histogram("serve.request_ms").observe(elapsed_ms)
    if counts["store"] == n_cells:
        service.metrics.histogram("serve.warm_request_ms").observe(elapsed_ms)
    await service._send(writer, {
        "type": "done", "id": req_id,
        "cells": n_cells,
        "store_hits": counts["store"],
        "inflight_hits": counts["inflight"],
        "compiled": counts["compiled"],
        "failures": counts["failures"],
        "elapsed_ms": int(elapsed_ms),
    })


# ----------------------------------------------------------------------
# Exact bank assignment (repro.exact)
# ----------------------------------------------------------------------
#: refuse enumerations beyond this many assignments: a silent week-long
#: loop helps nobody
ENUMERATION_LIMIT = 5_000_000


def enumerate_assignments(problem: ExactProblem):
    """Yield every complete ``{rid: bank}`` assignment (pins respected)."""
    free = [rid for rid in problem.regs if rid not in problem.precolored]
    total = problem.n_banks ** len(free)
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"{problem.loop_name}: {problem.n_banks}^{len(free)} = {total} "
            f"assignments exceeds the brute-force limit ({ENUMERATION_LIMIT})"
        )
    base = dict(problem.precolored)
    for combo in itertools.product(range(problem.n_banks), repeat=len(free)):
        assignment = dict(base)
        assignment.update(zip(free, combo))
        yield assignment


def brute_force_cost(problem: ExactProblem) -> int:
    """The provably-optimal objective value, by exhaustive enumeration
    under :func:`repro.exact.cost.assignment_cost`: any bound, symmetry or
    dominance bug in :mod:`repro.exact.bnb` shows up as a cost mismatch."""
    return min(
        assignment_cost(problem, assignment)
        for assignment in enumerate_assignments(problem)
    )
