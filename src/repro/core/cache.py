"""Artifact cache for one loop's machine-independent artifacts.

The DDG and the 16-wide ideal schedule depend only on the loop, the
latency table and the scheduler configuration — not on the cluster
arrangement (Section 6.2: "the 16-wide ideal schedule is the same no
matter the cluster arrangement").  The evaluation runner compiles every
loop under six clustered configurations that share all three, one loop
after the other, so an :class:`ArtifactCache` holds one entry — the loop
it last served — computes the pair on that loop's first cell and serves
the other five from memory.

The register component graph is built from that ideal schedule (Section
4, step 3) and the weighting heuristic alone, so it is machine-independent
too: the entry also holds the loop's :class:`~repro.core.rcg.FrozenRCG`
per :class:`~repro.core.weights.HeuristicConfig`, built on first use.
RCG reuse rides on the ideal-schedule lookup the cell already made and
does not touch :class:`CacheStats`.

Step 4's first half is shared between the two cells of one cluster
count.  The greedy partitioner (Section 5, Figure 4), copy insertion
and the derived DDG read the RCG, the bank count, the issue slots per
bank and the latencies, never the copy model (Section 6.1), so an
N-cluster embedded cell and its copy-unit sibling compute the same
three.  The entry holds at most one :class:`StepFourShare`: the cell
that built it offers it and the sibling takes it.  It goes with the
entry when the next loop is looked up.

Keys are ``(loop fingerprint, latency fingerprint, scheduler
fingerprint)``.  Because cached DDGs and schedules hold references to the
loop's actual :class:`~repro.ir.operations.Operation` objects, a hit is
only valid for the *same loop instance*: the entry remembers the loop it
was built from and a textual twin from a different instance is a miss
that replaces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

# Fingerprint helpers historically lived here; they are now consolidated
# in repro.core.fingerprint and re-exported for the many import sites.
from repro.core.fingerprint import (  # noqa: F401  (re-exports)
    latency_fingerprint,
    loop_fingerprint,
    scheduler_fingerprint,
)
from repro.ir.block import Loop
from repro.machine.latency import LatencyTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import PipelineConfig
    from repro.core.copies import PartitionedLoop
    from repro.core.greedy import Partition
    from repro.core.rcg import FrozenRCG
    from repro.core.weights import HeuristicConfig
    from repro.ddg.graph import DDG
    from repro.sched.schedule import KernelSchedule


@dataclass
class CacheStats:
    """Hit/miss counters of the ideal-schedule lookups of one cache."""

    hits: int = 0
    misses: int = 0


@dataclass
class StepFourShare:
    """A greedy cell's step-4 artifacts, for its copy-model sibling.

    ``key`` is everything they were computed from: the cache entry key
    of the loop, the heuristic, the precolored pins, the cluster count
    and the FUs per cluster (the greedy ``slots_per_bank`` is the latter
    times the entry's ideal II).  The cell that builds the share fills
    the artifacts in as its passes run and offers it once all three are
    there.
    """

    key: tuple
    loop: Loop  # identity guard, as for the cache entry
    partition: "Partition"
    partitioned: "PartitionedLoop | None" = None
    partitioned_ddg: "DDG | None" = None


@dataclass
class _Entry:
    key: tuple
    loop: Loop  # identity guard; also keeps the ops the artifacts reference alive
    ddg: "DDG"
    ideal: "KernelSchedule"
    #: frozen RCG of ``ideal`` per weighting heuristic, built on first use
    rcgs: "dict[HeuristicConfig, FrozenRCG]" = field(default_factory=dict)
    #: the step-4 share a cell offered and its sibling has not taken yet
    share: StepFourShare | None = None


@dataclass
class ArtifactCache:
    """Memo of the loop last served: its (DDG, ideal schedule) pair, the
    frozen RCGs built from it and at most one :class:`StepFourShare`."""

    stats: CacheStats = field(default_factory=CacheStats)
    _entry: _Entry | None = None

    @staticmethod
    def key_for(loop: Loop, latencies: LatencyTable, config: "PipelineConfig", width: int) -> tuple:
        return (
            loop_fingerprint(loop),
            latency_fingerprint(latencies),
            scheduler_fingerprint(config, width),
        )

    def peek_ddg(self, loop: Loop, latencies: LatencyTable,
                 config: "PipelineConfig", width: int) -> "DDG | None":
        """Return the cached DDG if present, without touching the stats.

        Used by :class:`~repro.core.passes.BuildDDG` so that the pair
        counts as one lookup (charged by the ideal-schedule pass), not two.

        An entry under the same key built from a *different* loop
        instance (the identity guard) is stale — its artifacts reference
        operations the caller does not hold — so it is dropped at once
        rather than kept alive until the next :meth:`ideal_for`.
        """
        entry = self._entry
        if entry is None or entry.key != self.key_for(loop, latencies, config, width):
            return None
        if entry.loop is not loop:
            self._entry = None
            return None
        return entry.ddg

    def ideal_for(
        self,
        loop: Loop,
        latencies: LatencyTable,
        config: "PipelineConfig",
        width: int,
        build: Callable[[], tuple["DDG", "KernelSchedule"]],
    ) -> tuple["DDG", "KernelSchedule"]:
        """Return the cached (DDG, ideal schedule) pair; on a miss, build
        it and let it replace the entry (and its RCGs and share)."""
        key = self.key_for(loop, latencies, config, width)
        entry = self._entry
        if entry is not None and entry.key == key and entry.loop is loop:
            self.stats.hits += 1
            return entry.ddg, entry.ideal
        self.stats.misses += 1
        ddg, ideal = build()
        self._entry = _Entry(key, loop, ddg, ideal)
        return ddg, ideal

    def rcg_for(self, ideal: "KernelSchedule", heuristic: "HeuristicConfig",
                build: Callable[[], "FrozenRCG"]) -> "FrozenRCG":
        """Return the frozen RCG of ``ideal`` under ``heuristic``, building
        it on first use.

        The RCG is memoized only on the entry that produced ``ideal`` (a
        schedule from elsewhere, or from a replaced entry, just builds).
        Neither path touches ``stats``: the cell already paid its one
        lookup in :meth:`ideal_for`.
        """
        entry = self._entry
        if entry is None or entry.ideal is not ideal:
            return build()
        rcg = entry.rcgs.get(heuristic)
        if rcg is None:
            rcg = entry.rcgs[heuristic] = build()
        return rcg

    def offer_share(self, share: StepFourShare) -> None:
        """Hold ``share`` on the entry, dropping any other: the cell that
        built it looked its loop up first, so the entry serves that loop."""
        self._entry.share = share

    def take_share(self, key: tuple, loop: Loop) -> StepFourShare | None:
        """Hand over the held share if it was built for ``key`` from this
        very ``loop``; the cache keeps no reference to a share it gave
        away.  Neither outcome touches ``stats``."""
        entry = self._entry
        share = entry.share if entry is not None else None
        if share is None or share.key != key or share.loop is not loop:
            return None
        entry.share = None
        return share
