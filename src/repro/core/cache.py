"""Artifact cache for machine-independent compilation artifacts.

The DDG and the 16-wide ideal schedule depend only on the loop, the
latency table and the scheduler configuration — not on the cluster
arrangement (Section 6.2: "the 16-wide ideal schedule is the same no
matter the cluster arrangement").  The evaluation runner compiles every
loop under six clustered configurations that share all three, so an
:class:`ArtifactCache` computes the pair once per loop and serves the
other five configurations from memory.

The register component graph is built from that ideal schedule (Section
4, step 3) and the weighting heuristic alone, so it is machine-independent
too: each entry also holds the loop's :class:`~repro.core.rcg.FrozenRCG`
per :class:`~repro.core.weights.HeuristicConfig`, built on first use.
The frozen form is array-backed and a few KB per loop, so keeping one per
loop costs little memory.  RCG reuse rides on the ideal-schedule lookup
the cell already made and does not touch :class:`CacheStats`.

Step 4's first half is shared between the two cells of one cluster
count.  The greedy partitioner (Section 5, Figure 4), copy insertion
and the derived DDG read the RCG, the bank count, the issue slots per
bank and the latencies, never the copy model (Section 6.1), so an
N-cluster embedded cell and its copy-unit sibling compute the same
three.  The cache holds one :class:`StepFourShare` at a time, for the
loop it last served: the cell that built it offers it, the sibling
takes it, and a lookup for another loop drops it.  Loop-major cells (an
``--jobs`` or serve chunk) pair up; the serial grid runs
configuration-major and never does.  That is deliberate: holding every
pending share instead costs a full-grid run about a fifth more peak
memory (see docs/architecture.md).

Keys are ``(loop fingerprint, latency fingerprint, scheduler
fingerprint)``.  Because cached DDGs and schedules hold references to the
loop's actual :class:`~repro.ir.operations.Operation` objects, a hit is
only valid for the *same loop instance*: every entry remembers the loop
it was built from and a textual collision from a different instance is
treated as a miss and overwritten.
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
    """Hit/miss/eviction counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions


@dataclass
class _IdealEntry:
    loop: Loop  # identity guard; also keeps the ops the artifacts reference alive
    ddg: "DDG"
    ideal: "KernelSchedule"
    #: frozen RCG of ``ideal`` per weighting heuristic, built on first use
    rcgs: "dict[HeuristicConfig, FrozenRCG]" = field(default_factory=dict)


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
    loop: Loop  # identity guard, as for cache entries
    partition: "Partition"
    partitioned: "PartitionedLoop | None" = None
    partitioned_ddg: "DDG | None" = None


#: default entry cap — generous (a full corpus evaluation touches one
#: entry per loop, i.e. 211), but bounded so a long-lived cache shared
#: across many evaluations of *different* corpora cannot grow forever.
DEFAULT_CAPACITY = 4096


@dataclass
class ArtifactCache:
    """Memo for (DDG, ideal schedule) pairs — and the frozen RCGs built
    from them — shared across configurations.

    Bounded: at most ``capacity`` entries are retained, least-recently
    used first out (``capacity=None`` disables eviction).  Every hit
    refreshes its entry's recency; evictions are counted in ``stats``.
    Beside the entries it holds at most one :class:`StepFourShare`
    (:meth:`offer_share`/:meth:`take_share`).
    """

    _entries: dict[tuple, _IdealEntry] = field(default_factory=dict)
    stats: CacheStats = field(default_factory=CacheStats)
    capacity: int | None = DEFAULT_CAPACITY
    #: the one step-4 share the cache holds, if any
    _share: StepFourShare | None = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be a positive int or None")

    def __len__(self) -> int:
        return len(self._entries)

    def _touch(self, key: tuple, entry: _IdealEntry) -> None:
        """Mark ``key`` most-recently used (dicts preserve insert order)."""
        self._entries.pop(key, None)
        self._entries[key] = entry

    def _insert(self, key: tuple, entry: _IdealEntry) -> None:
        self._entries.pop(key, None)  # identity-guard overwrite, not an eviction
        self._entries[key] = entry
        while self.capacity is not None and len(self._entries) > self.capacity:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.stats.evictions += 1

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

        A present entry built from a *different* loop instance (the
        identity guard) is stale — its artifacts reference operations the
        caller does not hold — so it is dropped immediately rather than
        left to shadow the key until the next :meth:`ideal_for`
        overwrite.  Like the overwrite itself, that drop is a staleness
        correction, not a capacity eviction, so it is not counted in
        ``stats.evictions``.
        """
        key = self.key_for(loop, latencies, config, width)
        entry = self._entries.get(key)
        if entry is None:
            return None
        if entry.loop is not loop:
            del self._entries[key]
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
        """Return the cached (DDG, ideal schedule) pair, building on miss."""
        key = self.key_for(loop, latencies, config, width)
        if self._share is not None and self._share.key[0] != key:
            self._share = None  # a share is for the loop last served
        entry = self._entries.get(key)
        if entry is not None and entry.loop is loop:
            self.stats.hits += 1
            self._touch(key, entry)
            return entry.ddg, entry.ideal
        self.stats.misses += 1
        ddg, ideal = build()
        self._insert(key, _IdealEntry(loop=loop, ddg=ddg, ideal=ideal))
        return ddg, ideal

    def rcg_for(
        self,
        loop: Loop,
        latencies: LatencyTable,
        config: "PipelineConfig",
        width: int,
        ideal: "KernelSchedule",
        build: Callable[[], "FrozenRCG"],
    ) -> "FrozenRCG":
        """Return the frozen RCG of ``ideal`` under ``config.heuristic``,
        building it on first use.

        The RCG is memoized only on the entry that produced ``ideal`` (a
        schedule from elsewhere, or an evicted entry, just builds).
        Neither path touches ``stats`` or recency: the cell already paid
        its one lookup in :meth:`ideal_for`.
        """
        entry = self._entries.get(self.key_for(loop, latencies, config, width))
        if entry is None or entry.loop is not loop or entry.ideal is not ideal:
            return build()
        rcg = entry.rcgs.get(config.heuristic)
        if rcg is None:
            rcg = entry.rcgs[config.heuristic] = build()
        return rcg

    def offer_share(self, share: StepFourShare) -> None:
        """Hold ``share`` for its sibling cell, dropping any other."""
        self._share = share

    def take_share(self, key: tuple, loop: Loop) -> StepFourShare | None:
        """Hand over the held share if it was built for ``key`` from this
        very ``loop``; the cache keeps no reference to a share it gave
        away.  Neither outcome touches ``stats``."""
        share = self._share
        if share is None or share.key != key or share.loop is not loop:
            return None
        self._share = None
        return share
