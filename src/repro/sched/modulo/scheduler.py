"""Rau's iterative modulo scheduling.

The algorithm (Section 2 of the paper; Rau, MICRO-27 1994):

1. compute ``MinII = max(ResII, RecII)``;
2. for each candidate ``II`` starting at MinII, attempt to place all
   operations within an operation budget;
3. operations are picked highest-priority first (HeightR at the current
   II); each op's earliest start comes from its *currently scheduled*
   predecessors; the op is placed in the first resource-free slot of
   ``[estart, estart + II)``, or **force-placed** (evicting resource
   conflicts and violated scheduled successors) when no slot is free;
4. if the budget runs out, ``II`` is bumped and the attempt restarts.

A fully sequential kernel is always feasible at ``II = sum(latencies)``,
so the search terminates; exceeding that bound raises
:class:`SchedulingError` (it would indicate a resource-model bug).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.ddg.analysis import longest_path_heights, min_ii, recurrence_ii, resource_ii
from repro.ddg.graph import DDG
from repro.ir.block import Loop
from repro.machine.machine import MachineDescription
from repro.sched.resources import ModuloReservationTable
from repro.sched.schedule import KernelSchedule

DEFAULT_BUDGET_RATIO = 12
"""Scheduling attempts allowed per operation per II (Rau suggests a small
constant multiple of the operation count)."""


class SchedulingError(RuntimeError):
    """Raised when no legal modulo schedule is found within bounds."""


@dataclass
class ModuloScheduler:
    """Stateful scheduler; :func:`modulo_schedule` is the one-shot API."""

    machine: MachineDescription
    budget_ratio: int = DEFAULT_BUDGET_RATIO
    max_ii: int | None = None
    #: opt-in observability hooks (repro.obs): a tracer records one span
    #: per II attempt (with its backtrack count), a metrics registry
    #: accumulates attempt/backtrack counters; both None by default so
    #: the hot path pays nothing when disabled
    tracer: "object | None" = None
    metrics: "object | None" = None

    #: filled by the last ``schedule`` call, for instrumentation/benches
    stats: dict = field(default_factory=dict)
    #: per-op demand cache shared across the II retries of one ``schedule``
    #: call — demands depend on the op and machine, never on the II
    _demand_cache: dict = field(default_factory=dict, repr=False)

    def schedule(self, loop: Loop, ddg: DDG) -> KernelSchedule:
        if len(ddg.ops) == 0:
            raise ValueError("cannot pipeline an empty loop")
        self._demand_cache = {}
        res_ii = resource_ii(ddg, self.machine)
        rec_ii = recurrence_ii(ddg)
        start_ii = max(res_ii, rec_ii)
        guaranteed_ii = max(
            start_ii, sum(self.machine.latency(op) for op in ddg.ops)
        )
        cap = self.max_ii if self.max_ii is not None else guaranteed_ii
        if cap < start_ii:
            raise SchedulingError(
                f"{loop.name!r}: max_ii={cap} is below MinII={start_ii}"
            )

        attempts = 0
        evictions_total = 0
        for ii in range(start_ii, cap + 1):
            attempts += 1
            if self.tracer is not None:
                with self.tracer.span("ims_attempt", cat="substep", ii=ii) as sp:
                    times, evictions = self._try_ii(ddg, ii)
                    sp.set(scheduled=times is not None, backtracks=evictions)
            else:
                times, evictions = self._try_ii(ddg, ii)
            evictions_total += evictions
            if times is not None:
                self.stats = {
                    "res_ii": res_ii,
                    "rec_ii": rec_ii,
                    "min_ii": start_ii,
                    "achieved_ii": ii,
                    "ii_attempts": attempts,
                    "backtracks": evictions_total,
                }
                if self.metrics is not None:
                    self.metrics.counter("sched.calls").inc()
                    self.metrics.counter("sched.ii_attempts").inc(attempts)
                    self.metrics.counter("sched.backtracks").inc(evictions_total)
                return KernelSchedule(
                    machine=self.machine, loop=loop, ii=ii, times=times
                )
        raise SchedulingError(
            f"no modulo schedule for {loop.name!r} up to II={cap} "
            f"(MinII={start_ii}); raise max_ii or budget_ratio"
        )

    # ------------------------------------------------------------------
    def _try_ii(self, ddg: DDG, ii: int) -> tuple[dict[int, int] | None, int]:
        """One scheduling attempt at ``ii``; returns (times, evictions).

        ``evictions`` counts every scheduled operation displaced by a
        force-place or a violated dependence — the "backtracks" the
        tracer and metrics report.
        """
        evictions = 0
        try:
            heights = longest_path_heights(ddg, ii=ii)
        except ValueError:
            # positive cycle: II below RecII for this subgraph
            return None, evictions

        ops = ddg.ops
        by_id = {op.op_id: op for op in ops}

        # Preallocated max-heap entries by (height, earlier-body-order)
        # via negation; op_id makes every entry distinct, so pop order is
        # a pure function of heap *contents* and re-pushes reuse the same
        # tuple instead of building one per push.
        entries: dict[int, tuple[int, int, int]] = {}
        for i, op in enumerate(ops):
            entries[op.op_id] = (-heights[op.op_id], i, op.op_id)

        # Flat dependence rows with the II-dependent term folded in, read
        # off the graph's int arrays: succs[oid] = [(dst_oid, delay -
        # II*distance), ...] in successor order, and preds likewise (their
        # order is immaterial: estart is a max).  The placement loop below
        # runs orders of magnitude more often than this O(E) setup, and
        # each iteration then costs one dict probe and one add per edge.
        idx = ddg.index()
        op_ids, dst = idx.op_ids, idx.dst
        lags = [d - ii * k for d, k in zip(idx.delay, idx.dist)]
        preds: dict[int, list[tuple[int, int]]] = {oid: [] for oid in op_ids}
        succs: dict[int, list[tuple[int, int]]] = {}
        for oid, out in zip(op_ids, idx.out_edges):
            succs[oid] = [(op_ids[dst[k]], lags[k]) for k in out]
            for dst_oid, lag in succs[oid]:
                preds[dst_oid].append((oid, lag))

        mrt = ModuloReservationTable(self.machine, ii, demands=self._demand_cache)
        times: dict[int, int] = {}
        times_get = times.get
        prev_time: dict[int, int] = {}
        budget = self.budget_ratio * len(ops)

        heappush = heapq.heappush
        heappop = heapq.heappop
        heap = [entries[op.op_id] for op in ops]
        heapq.heapify(heap)

        while heap and budget > 0:
            _, _, oid = heappop(heap)
            if oid in times:
                continue  # stale entry
            op = by_id[oid]
            budget -= 1

            estart = 0
            for src_oid, lag in preds[oid]:
                src_t = times_get(src_oid)
                if src_t is not None:
                    cand = src_t + lag
                    if cand > estart:
                        estart = cand

            # the whole [estart, estart + II) probe window in one query
            slot = mrt.first_free(op, estart)
            if slot is None:
                prev = prev_time.get(oid)
                slot = estart if prev is None or prev + 1 < estart else prev + 1
                for victim_id in mrt.conflicting_ops(op, slot):
                    mrt.remove(by_id[victim_id])
                    del times[victim_id]
                    heappush(heap, entries[victim_id])
                    evictions += 1
                    if not mrt.fits(op, slot):
                        continue
                    break

            mrt.place(op, slot)
            times[oid] = slot
            prev_time[oid] = slot

            # evict scheduled successors whose dependence is now violated
            for dst_oid, lag in succs[oid]:
                dst_t = times_get(dst_oid)
                if dst_t is None or dst_oid == oid:
                    continue
                if dst_t < slot + lag:
                    mrt.remove(by_id[dst_oid])
                    del times[dst_oid]
                    heappush(heap, entries[dst_oid])
                    evictions += 1
            # self-edges: placement at estart already satisfies them since
            # estart accounted for all scheduled predecessors including self

        if len(times) == len(ops):
            return times, evictions
        return None, evictions


def modulo_schedule(
    loop: Loop,
    ddg: DDG,
    machine: MachineDescription,
    budget_ratio: int = DEFAULT_BUDGET_RATIO,
    max_ii: int | None = None,
    tracer: "object | None" = None,
    metrics: "object | None" = None,
) -> KernelSchedule:
    """Software-pipeline ``loop`` onto ``machine``; see :class:`ModuloScheduler`."""
    return ModuloScheduler(
        machine, budget_ratio=budget_ratio, max_ii=max_ii,
        tracer=tracer, metrics=metrics,
    ).schedule(loop, ddg)
