"""Golden oracles for the parity tests.

Every optimised kernel in ``repro`` was rewritten from a direct
transcription of its algorithm.  Those transcriptions live here, outside
the shipped package, so the parity tests (``test_perf_equivalence.py``,
``test_regalloc_bitset_parity.py``) can compare the fast path against
them value for value.  Each oracle uses only public ``repro`` APIs,
except :func:`ddg_rows`, which also reads the edge-key map it compares.

``ReferenceModuloReservationTable`` is the original dict-of-
:class:`~repro.sched.resources.SlotPool` modulo reservation table (with
the eviction query the shipped table no longer has), and
:func:`reference_try_ii` the original op-keyed iterative-scheduling
attempt driven by it.  :func:`use_reference_mrt` injects both: Swing
builds the golden table, and ``ModuloScheduler._try_ii`` becomes the
golden attempt on the golden table.  :func:`add_node` and
:func:`add_edge` build interference graphs by hand, for the
interference oracle and the colouring tests.
:func:`_reference_build_rcg_from_kernel` weights the RCG through its
method calls and :func:`_reference_insert_copies` inserts copies over
op objects; :func:`frozen_tables` and :func:`partitioned_listing` turn
their results into comparable plain values.

The module name matches neither ``test_*.py`` nor ``bench_*.py``, so
pytest does not collect it.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.copies import PartitionedLoop, _home_cluster
from repro.core.greedy import Partition
from repro.core.rcg import RegisterComponentGraph
from repro.core.weights import DEFAULT_HEURISTIC, HeuristicConfig
from repro.ddg.analysis import longest_path_heights, schedule_slack
from repro.ddg.graph import DDG
from repro.ir.block import BasicBlock, Loop
from repro.ir.operations import Operation, make_copy
from repro.ir.printer import format_loop
from repro.ir.registers import RegisterFactory, SymbolicRegister
from repro.machine.machine import CopyModel, MachineDescription
from repro.regalloc.coloring import ColoringResult
from repro.regalloc.interference import InterferenceGraph, Name
from repro.regalloc.liveness import CyclicLiveness, LiveRange
from repro.regalloc.mve import MVEPlan
from repro.sched.modulo.scheduler import ModuloScheduler
from repro.sched.resources import (
    ResourceDemand,
    SlotPool,
    op_resource_demand,
)
from repro.sched.schedule import KernelSchedule


# ----------------------------------------------------------------------
# Modulo reservation table
# ----------------------------------------------------------------------


@dataclass
class ReferenceModuloReservationTable:
    """Fixed-II modulo reservation table (Rau, Section 2) — the original
    dict-of-:class:`SlotPool` implementation, the golden oracle for
    :class:`repro.sched.resources.ModuloReservationTable`.

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
    for the rest of the test (undone by pytest's ``monkeypatch``): Swing
    builds it, and IMS attempts go through :func:`reference_try_ii`."""
    monkeypatch.setattr(
        "repro.sched.modulo.swing.ModuloReservationTable",
        ReferenceModuloReservationTable,
    )
    monkeypatch.setattr(ModuloScheduler, "_try_ii", _reference_attempt)


# ----------------------------------------------------------------------
# Partitioned DDG (repro.ddg.builder.derive_partitioned_ddg)
# ----------------------------------------------------------------------
def ddg_rows(ddg: DDG) -> dict[str, object]:
    """Everything the compiler reads of ``ddg`` and its analysis index,
    as plain values: the stored rows, ``edges()`` and every predecessor
    list in insertion order, each edge as ``(src index, dst index, kind,
    delay, distance, reg rid)``; the edge-key map; and the index's arrays
    (whose ``out_edges`` split ``edges()`` into successor lists),
    distance-0 order and cyclic SCCs in list order.  SCC ids are
    relabelled by first occurrence, so two labellings of the same
    components compare equal."""
    pos = {op.op_id: i for i, op in enumerate(ddg.ops)}

    def row(e):
        rid = e.reg.rid if e.reg is not None else None
        return (pos[e.src.op_id], pos[e.dst.op_id], e.kind, e.delay, e.distance, rid)

    idx = ddg.index()
    relabel: dict[int, int] = {}
    for sid in idx.scc_of:
        relabel.setdefault(sid, len(relabel))
    return {
        "rows": [(*r[:5], r[5].rid if r[5] is not None else None) for r in ddg.rows],
        "edges": [row(e) for e in ddg.edges()],
        "preds": [[row(e) for e in ddg.predecessors(op)] for op in ddg.ops],
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
        (e.src.op_id, e.dst.op_id, e.delay - ii * e.distance) for e in ddg.edges()
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
    hi = max(1, sum(e.delay for e in ddg.edges()))
    lo = 1
    # tighten the lower bound with self-edges, which are common (accumulators)
    for e in ddg.edges():
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
        (e.src.op_id, e.dst.op_id, e.delay - ii * e.distance) for e in ddg.edges()
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
    lo, hi = 0.0, float(max(1, sum(e.delay for e in ddg.edges())))
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
    edges = list(ddg.edges())
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
    for op in ddg.ops:
        e = 0
        for dep in ddg.predecessors(op):
            if dep.distance == 0:
                e = max(e, times[dep.src.op_id] + dep.delay)
        estart[op.op_id] = e
        latest = length - (latencies.of(op) if latencies is not None else 1)
        for dep in ddg.successors(op):
            if dep.distance == 0:
                latest = min(latest, times[dep.dst.op_id] - dep.delay)
        lstart[op.op_id] = max(latest, e)
    return estart, lstart


# ----------------------------------------------------------------------
# Greedy partitioner (repro.core.greedy)
# ----------------------------------------------------------------------
def _reference_greedy_partition(
    rcg: RegisterComponentGraph,
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
    rcg: RegisterComponentGraph,
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


def frozen_tables(rcg) -> dict[str, object]:
    """Every table of a :class:`~repro.core.rcg.FrozenRCG`, as plain
    values (registers by rid)."""
    frozen = rcg.freeze()
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

    for op in loop.ops:
        if op.dest is None:
            continue
        reg = op.dest
        t_def = kernel.time_of(op)
        last = t_def + kernel.machine.latency(op)  # a dead def still owns its slot
        for dep in ddg.successors(op):
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
    (an open zero bit is spliced into every neighbour row)."""
    if name in graph.index:
        return
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
