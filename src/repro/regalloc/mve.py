"""Modulo variable expansion (Lam) planning.

Without rotating register files, a kernel value whose lifetime exceeds II
is overwritten by the next iteration before its last use.  MVE unrolls the
kernel ``u`` times, where

    u = max over values v of ceil(lifetime(v) / II),

and gives each value ``q_v >= ceil(lifetime(v) / II)`` register names used
round-robin by consecutive iterations: iteration ``j`` (``0 <= j < u``)
writes name ``j mod q_v`` at cycle ``(j * II + start) mod (u * II)`` for
``lifetime`` cycles.  A name's occupancy windows are then ``q_v * II``
apart, which is at least the lifetime, so instances of the same name never
overlap.  Because the round-robin must stay consistent where the unrolled
kernel wraps around, each ``q_v`` is rounded up to the smallest **divisor
of the unroll factor** (e.g. a 4-name value inside a 6-unrolled kernel
gets 6 names) — otherwise iteration ``unroll`` would reuse name
``unroll mod q_v`` while restarting the timeline at name 0.

The plan is arithmetic only: the unroll factor and, per live range in
ascending rid order, its rid, start, lifetime, replica count and
invariant flag, as parallel lists.  Interference construction
(:mod:`repro.regalloc.interference`) derives every name's occupancy mask
and every bank's pressure from them without expanding the per-iteration
windows; no IR is rewritten — physical assignment happens directly on
(register, replica) pairs.

Loop-invariant values get exactly one name and are live over the entire
unrolled timeline.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.regalloc.liveness import CyclicLiveness


@dataclass
class MVEPlan:
    """The unroll factor and the live ranges, one list entry per range in
    ascending rid order (so each bank's names come out sorted)."""

    ii: int
    unroll: int
    rids: list[int]
    starts: list[int]
    lifetimes: list[int]
    #: q_v of each range: names used round-robin (1 for invariants)
    replicas: list[int]
    invariant: list[bool]

    @property
    def timeline(self) -> int:
        """Length of the cyclic interference timeline (= unroll * II)."""
        return self.unroll * self.ii


def plan_mve(liveness: CyclicLiveness) -> MVEPlan:
    """Build the MVE plan from cyclic live ranges (every non-invariant
    range must span at least one cycle, so each name's mask is
    non-empty)."""
    ii = liveness.ii
    ranges = liveness.ranges
    rids = sorted(ranges)
    starts: list[int] = []
    lifetimes: list[int] = []
    replicas: list[int] = []
    invariant: list[bool] = []
    unroll = 1
    for rid in rids:
        lr = ranges[rid]
        if lr.lifetime < 1 and not lr.invariant:
            raise ValueError(f"live range of {lr.reg} has no cycles")
        starts.append(lr.start)
        lifetimes.append(lr.lifetime)
        invariant.append(lr.invariant)
        q = 1 if lr.invariant else -(-lr.lifetime // ii)
        replicas.append(q)
        if q > unroll:
            unroll = q

    # round every replica count up to a divisor of the unroll factor so
    # the per-iteration round-robin is consistent across the wraparound
    for i, q in enumerate(replicas):
        while unroll % q:
            q += 1
        replicas[i] = q

    return MVEPlan(ii, unroll, rids, starts, lifetimes, replicas, invariant)
