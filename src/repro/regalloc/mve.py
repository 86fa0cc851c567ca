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

The plan is arithmetic only: the unroll factor, the replica counts and
each live range's ``(rid, start, lifetime)``.  Interference construction
(:mod:`repro.regalloc.interference`) derives every name's occupancy mask
and every bank's pressure from them without expanding the per-iteration
windows; no IR is rewritten — physical assignment happens directly on
(register, replica) pairs.

Loop-invariant values get exactly one name and are live over the entire
unrolled timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.regalloc.liveness import CyclicLiveness


@dataclass
class MVEPlan:
    """The unroll factor, per-value replica counts and live ranges."""

    ii: int
    unroll: int
    replicas: dict[int, int]            # rid -> q_v (1 for invariants)
    invariant_rids: set[int]
    #: (rid, start, lifetime) of every live range, in liveness order
    ranges: list[tuple[int, int, int]]

    @property
    def timeline(self) -> int:
        """Length of the cyclic interference timeline (= unroll * II)."""
        return self.unroll * self.ii

    def names(self) -> list[tuple[int, int]]:
        """All (rid, replica) names needing a physical register."""
        out: list[tuple[int, int]] = []
        for rid in sorted(self.replicas):
            for q in range(self.replicas[rid]):
                out.append((rid, q))
        return out


def plan_mve(liveness: CyclicLiveness) -> MVEPlan:
    """Build the MVE plan from cyclic live ranges."""
    ii = liveness.ii
    replicas: dict[int, int] = {}
    invariant_rids: set[int] = set()
    ranges: list[tuple[int, int, int]] = []
    unroll = 1
    for lr in liveness:
        rid = lr.reg.rid
        ranges.append((rid, lr.start, lr.lifetime))
        if lr.invariant:
            replicas[rid] = 1
            invariant_rids.add(rid)
            continue
        q = max(1, math.ceil(lr.lifetime / ii))
        replicas[rid] = q
        unroll = max(unroll, q)

    # round every replica count up to a divisor of the unroll factor so
    # the per-iteration round-robin is consistent across the wraparound
    for rid, q in replicas.items():
        if rid in invariant_rids:
            continue
        while unroll % q != 0:
            q += 1
        replicas[rid] = q

    return MVEPlan(
        ii=ii,
        unroll=unroll,
        replicas=replicas,
        invariant_rids=invariant_rids,
        ranges=ranges,
    )
