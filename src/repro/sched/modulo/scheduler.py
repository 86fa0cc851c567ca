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

An attempt works on op positions (``0..n-1`` in ``ddg.ops`` order) and
the packed demand words of :mod:`repro.sched.resources`: per-position
heights, dependence rows, issue times and demand words are lists, and
the modulo reservation table is one occupancy word per kernel row plus a
per-row ``{position: demand word}`` dict whose insertion order is the
eviction order.  Only a successful attempt maps positions back to
op ids.

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
from repro.sched.resources import demand_words, resource_geometry
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

    def schedule(self, loop: Loop, ddg: DDG) -> KernelSchedule:
        if len(ddg.ops) == 0:
            raise ValueError("cannot pipeline an empty loop")
        words = demand_words(ddg.ops, self.machine)
        res_ii = resource_ii(ddg, self.machine, words)
        rec_ii = recurrence_ii(ddg)
        start_ii = max(res_ii, rec_ii)
        cap = self.max_ii
        if cap is not None and cap < start_ii:
            raise SchedulingError(
                f"{loop.name!r}: max_ii={cap} is below MinII={start_ii}"
            )

        attempts = 0
        evictions_total = 0
        ii = start_ii
        while True:
            attempts += 1
            if self.tracer is not None:
                with self.tracer.span("ims_attempt", cat="substep", ii=ii) as sp:
                    times, evictions = self._try_ii(ddg, ii, words)
                    sp.set(scheduled=times is not None, backtracks=evictions)
            else:
                times, evictions = self._try_ii(ddg, ii, words)
            evictions_total += evictions
            if times is not None:
                break
            if cap is None:
                # the sequential kernel: needed only once an attempt fails
                cap = max(start_ii, sum(self.machine.latency(op) for op in ddg.ops))
            if ii >= cap:
                raise SchedulingError(
                    f"no modulo schedule for {loop.name!r} up to II={cap} "
                    f"(MinII={start_ii}); raise max_ii or budget_ratio"
                )
            ii += 1

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
        return KernelSchedule(machine=self.machine, loop=loop, ii=ii, times=times)

    # ------------------------------------------------------------------
    def _try_ii(
        self, ddg: DDG, ii: int, words: list[int]
    ) -> tuple[dict[int, int] | None, int]:
        """One scheduling attempt at ``ii``; returns (times, evictions).

        ``words[v]`` is the demand word of the op at position ``v``.
        ``times`` maps op id to issue time in final placement order.
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

        # Flat dependence rows with the II-dependent term folded in, read
        # off the graph's int arrays: succs[v] = [(w, delay - II*distance),
        # ...] in successor order, and preds likewise (their order is
        # immaterial: estart is a max).  Self-edges are dropped: an op is
        # unscheduled while its own estart is computed, and placing it at
        # or after estart cannot violate an edge to itself.
        idx = ddg.index()
        n, dst = idx.n, idx.dst
        preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        succs: list[list[tuple[int, int]]] = []
        for v, out in enumerate(idx.out_edges):
            row = [
                (dst[k], idx.delay[k] - ii * idx.dist[k]) for k in out if dst[k] != v
            ]
            succs.append(row)
            for w, lag in row:
                preds[w].append((v, lag))

        geom = resource_geometry(self.machine)
        bias, guard = geom.bias, geom.guard
        occ = [0] * ii  # packed occupancy word per kernel row
        row_ops: list[dict[int, int]] = [{} for _ in range(ii)]
        times: list[int | None] = [None] * n
        prev_time: list[int | None] = [None] * n
        stamp = [0] * n  # budget left at each op's last placement
        budget = self.budget_ratio * n

        # max-heap by (height, earlier body order) via negation; entries
        # are distinct, so pop order depends only on the heap's contents,
        # and a re-push reuses the op's tuple
        entries = [(-h, v) for v, h in enumerate(heights)]
        heap = entries[:]
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop

        while heap and budget > 0:
            v = heappop(heap)[1]
            if times[v] is not None:
                continue  # stale entry
            budget -= 1

            estart = 0
            for u, lag in preds[v]:
                t = times[u]
                if t is not None:
                    t += lag
                    if t > estart:
                        estart = t

            # first resource-free slot of [estart, estart + II)
            word = words[v]
            probe = word + bias
            r = estart % ii
            for k in range(ii):
                if not ((occ[r] + probe) & guard):
                    slot = estart + k
                    break
                r += 1
                if r == ii:
                    r = 0
            else:
                prev = prev_time[v]
                slot = estart if prev is None or prev + 1 < estart else prev + 1
                r = slot % ii
                ops_in_row = row_ops[r]
                for u in [u for u, w in ops_in_row.items() if w & word]:
                    occ[r] -= ops_in_row.pop(u)
                    times[u] = None
                    heappush(heap, entries[u])
                    evictions += 1
                    if not ((occ[r] + probe) & guard):
                        break
                if (occ[r] + probe) & guard:
                    raise ValueError("resource over-subscription")

            occ[r] += word
            row_ops[r][v] = word
            times[v] = slot
            prev_time[v] = slot
            stamp[v] = budget

            # evict scheduled successors whose dependence is now violated
            for w, lag in succs[v]:
                t = times[w]
                if t is not None and t < slot + lag:
                    r = t % ii
                    occ[r] -= row_ops[r].pop(w)
                    times[w] = None
                    heappush(heap, entries[w])
                    evictions += 1

        if None in times:
            return None, evictions
        op_ids = idx.op_ids
        order = sorted(range(n), key=stamp.__getitem__, reverse=True)
        return {op_ids[v]: times[v] for v in order}, evictions


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
