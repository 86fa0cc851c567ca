"""Cyclic liveness for software-pipelined kernels.

In a modulo schedule, iteration ``k`` issues operation ``o`` at absolute
cycle ``k * II + t(o)``.  A value defined at flat time ``t_def`` and last
read at flat time ``t_use + II * distance`` (the reader may sit
``distance`` iterations later) is live for

    lifetime = last_use - t_def

cycles; a lifetime exceeding II means consecutive iterations' instances of
the value are simultaneously live, which is what modulo variable expansion
resolves.  Loop-invariant live-ins are live for the whole loop; live-outs
stay live through the end of their final iteration.

:func:`row_pressure` turns ``(start, lifetime)`` spans into the
steady-state live count of each kernel row in O(II + spans); it gives
MaxLive here and each bank's MVE pressure in
:mod:`repro.regalloc.interference`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from repro.ddg.graph import DDG
from repro.ir.registers import SymbolicRegister
from repro.sched.schedule import KernelSchedule


class LiveRange(NamedTuple):
    """Flat-schedule live range of one virtual register.

    ``start`` is the defining op's issue cycle; ``lifetime`` the number of
    cycles the value must be preserved (at least 1).  ``invariant`` marks
    loop-invariant live-ins, which occupy a register for the entire loop
    and are excluded from MVE replication (their instance never changes).
    An immutable tuple: every register-allocated cell builds one per
    register.
    """

    reg: SymbolicRegister
    start: int
    lifetime: int
    invariant: bool = False
    n_uses: int = 0

    @property
    def end(self) -> int:
        return self.start + self.lifetime


def row_pressure(
    ii: int, spans: Iterable[tuple[int, int]], base: int = 0
) -> list[int]:
    """Live count at each of the ``ii`` kernel rows.

    A ``(start, lifetime)`` span is born at row ``start mod II`` in every
    iteration, so in the steady state it contributes ``lifetime // II`` to
    *every* row plus 1 to the ``lifetime mod II`` rows from its birth row
    on (cyclically).  Accumulating full wraps into a scalar and the
    remainders into a difference array makes this O(II + spans) instead
    of O(sum of lifetimes).  ``base`` is added to every row (one per
    register live throughout).
    """
    diff = [0] * (ii + 1)
    for start, lifetime in spans:
        wraps, rem = divmod(lifetime, ii)
        base += wraps
        if rem:
            s = start % ii
            e = s + rem
            diff[s] += 1
            if e <= ii:
                diff[e] -= 1
            else:
                diff[ii] -= 1
                diff[0] += 1
                diff[e - ii] -= 1
    rows: list[int] = []
    acc = base
    for r in range(ii):
        acc += diff[r]
        rows.append(acc)
    return rows


@dataclass
class CyclicLiveness:
    """Live ranges of every register appearing in a kernel schedule."""

    ii: int
    ranges: dict[int, LiveRange]

    def max_lifetime(self) -> int:
        non_inv = [r.lifetime for r in self.ranges.values() if not r.invariant]
        return max(non_inv, default=1)

    def range_of(self, reg: SymbolicRegister) -> LiveRange:
        return self.ranges[reg.rid]

    def __iter__(self):
        return iter(self.ranges.values())

    def pressure_rows(self) -> list[int]:
        """Steady-state live-instance count at each kernel row, over the
        values MVE replicates: invariants are excluded (they occupy one
        non-rotating register each and are not replicated)."""
        return row_pressure(
            self.ii,
            ((lr.start, lr.lifetime) for lr in self.ranges.values() if not lr.invariant),
        )

    def max_live(self) -> int:
        """MaxLive: the per-row peak of :meth:`pressure_rows` — the lower
        bound on rotating registers (and the allocator's search start)."""
        return max(self.pressure_rows(), default=0)


def cyclic_liveness(kernel: KernelSchedule, ddg: DDG) -> CyclicLiveness:
    """Compute live ranges from a kernel schedule and its DDG.

    Reads the DDG's int edge rows and per-position issue times and
    latencies (``ddg.ops`` is the kernel loop's body, in order): a row
    whose register is its source's destination extends that definition's
    last use to ``t[dst] + II * distance``.  A register that is live-out
    keeps its value until the end of the flat schedule of its own
    iteration (the postlude consumes it).  Live-ins are visited in rid
    order, so the ranges come out in the same order in every process.
    """
    loop = kernel.loop
    ii = kernel.ii
    ops = ddg.ops
    times = kernel.times
    latency = kernel.machine.latencies.of
    t = [times[op.op_id] for op in ops]
    # a dead def still owns its slot until its result is written
    last = [ti + latency(op) for ti, op in zip(t, ops)]
    flat_length = max(last)
    dests = [op.dest for op in ops]
    dest_rid = [-1 if reg is None else reg.rid for reg in dests]
    for s, d, _kind, _delay, distance, reg in ddg.rows:
        if reg is not None and reg.rid == dest_rid[s]:
            end = t[d] + ii * distance
            if end > last[s]:
                last[s] = end

    use_counts: dict[int, int] = {}
    for op in ops:
        for src in op.sources:
            if isinstance(src, SymbolicRegister):
                use_counts[src.rid] = use_counts.get(src.rid, 0) + 1

    # defined-in-body registers: start at def issue, end at last use
    ranges: dict[int, LiveRange] = {}
    live_out = {reg.rid for reg in loop.live_out}
    for reg, t_def, end in zip(dests, t, last):
        if reg is None:
            continue
        if end < flat_length and reg.rid in live_out:
            end = flat_length
        ranges[reg.rid] = LiveRange(
            reg, t_def, max(1, end - t_def), False, use_counts.get(reg.rid, 0)
        )

    # live-ins with no body definition: loop-invariant, live throughout
    for reg in sorted(loop.live_in, key=attrgetter("rid")):
        if reg.rid not in ranges:
            ranges[reg.rid] = LiveRange(
                reg, 0, flat_length, True, use_counts.get(reg.rid, 0)
            )
    return CyclicLiveness(ii=ii, ranges=ranges)
