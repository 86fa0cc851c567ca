"""Two-tier artifact store: in-memory LRU over the on-disk store.

:class:`ArtifactStore` is what the compilation pipeline and the
evaluation runner talk to.  A lookup consults the in-memory tier (L1,
keyed by digest), then the disk tier (L2).  A disk read returns the
whole loop file, so a read, hit or miss, also moves the loop's other
records into L1, still undecoded: the paper's six configurations of one
loop cost one file read.  The store remembers each loop file's stamp
(inode, size, mtime) from a moment when L1 held every complete record
in it, so a miss on an unchanged file is one ``stat``, not a read-back;
its own appends keep the stamp, and anything else that touches the file
moves it (see :meth:`ArtifactStore._read`).  A record is
checksum-verified and revalidated against the caller's full
:class:`~repro.core.fingerprint.StoreKey` when it is first served,
from either tier — a torn record, a digest collision or
a tampered key field degrades to a recorded ``invalid`` + miss, never a
wrong artifact.  All outcome accounting lives in :class:`StoreStats`,
which is picklable so parallel workers can report their counters back
for merging.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.fingerprint import StoreKey
from repro.store.disk import DiskStore, Stamp
from repro.store.entry import PayloadEncoder, StoreEntry, StoreEntryError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import CompilationResult


def digest_of_key_json(key_json: dict) -> str:
    """Recompute the content address of a canonical-JSON key.

    Must match :func:`repro.core.fingerprint.store_key`'s digest
    derivation exactly; ``verify`` uses it to prove each entry sits
    under its own key's filename.
    """
    blob = json.dumps(key_json, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Lookup/write outcome counters for one :class:`ArtifactStore`.

    Each ``lookup`` increments exactly one of ``hits_l1``/``hits_l2``/
    ``misses``; ``invalid`` counts additionally on the misses that were
    caused by an undecodable or foreign entry (so ``invalid <= misses``).
    """

    hits_l1: int = 0
    hits_l2: int = 0
    misses: int = 0
    invalid: int = 0
    writes: int = 0
    evictions: int = 0

    @property
    def hits(self) -> int:
        return self.hits_l1 + self.hits_l2

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "StoreStats") -> None:
        self.hits_l1 += other.hits_l1
        self.hits_l2 += other.hits_l2
        self.misses += other.misses
        self.invalid += other.invalid
        self.writes += other.writes
        self.evictions += other.evictions


#: default L1 entry cap — one evaluation touches 6 configurations x
#: corpus size entries (~1300 for the paper corpus); entries are small
#: (metrics parsed, payload raw bytes), so hold them all.
DEFAULT_L1_CAPACITY = 4096


class ArtifactStore:
    """The durable compilation memo the pipeline consults first.

    Open one per process with :meth:`open`; parallel workers each open
    the same path independently (the disk tier's atomic appends make
    that safe) and ship their :class:`StoreStats` home for merging.
    """

    def __init__(self, disk: DiskStore, l1_capacity: int | None = DEFAULT_L1_CAPACITY):
        if l1_capacity is not None and l1_capacity < 1:
            raise ValueError("l1_capacity must be a positive int or None")
        self.disk = disk
        self.l1_capacity = l1_capacity
        self.stats = StoreStats()
        #: digest -> decoded entry, or the raw record (its lines) of a
        #: loop-file neighbour not yet served (decoded on its first hit)
        self._l1: dict[str, StoreEntry | list[bytes]] = {}
        #: (digest, tier) of the most recent hit, so a late hydration
        #: failure (:meth:`reject`) can reclassify the right counter
        self._last_hit: tuple[str, str] | None = None
        #: loop fingerprint -> (stamp, torn digests) of its loop file as of
        #: a moment when L1 held every complete record in it; stamp
        #: ``None``: the file was absent
        self._stamps: dict[str, tuple[Stamp | None, frozenset[str]]] = {}
        #: the last loop's shared payload fragments, for :meth:`put_result`
        self._encoder = PayloadEncoder()

    @classmethod
    def open(cls, path: str | os.PathLike,
             l1_capacity: int | None = DEFAULT_L1_CAPACITY) -> "ArtifactStore":
        """Open (initialising if needed) the store rooted at ``path``."""
        return cls(DiskStore(path), l1_capacity=l1_capacity)

    @property
    def path(self) -> str:
        """The disk root, for handing the store to worker processes."""
        return str(self.disk.root)

    def __len__(self) -> int:
        return len(self.disk)

    # ------------------------------------------------------------------
    # L1 bookkeeping
    # ------------------------------------------------------------------
    def _l1_put(self, digest: str, entry: StoreEntry | list[bytes]) -> None:
        self._l1.pop(digest, None)
        self._l1[digest] = entry
        while self.l1_capacity is not None and len(self._l1) > self.l1_capacity:
            del self._l1[next(iter(self._l1))]
            self.stats.evictions += 1
            self._stamps.clear()  # L1 no longer holds every stamped record

    def _remember(self, loop_fp: str, stamp: Stamp | None,
                  torn: frozenset[str] = frozenset()) -> None:
        """Stamp ``loop_fp``'s file; the stamps are bounded like L1 (a
        daemon whose requests only miss would add one per loop)."""
        stamps = self._stamps
        if self.l1_capacity is not None and len(stamps) >= self.l1_capacity:
            stamps.clear()
        stamps[loop_fp] = (stamp, torn)

    # ------------------------------------------------------------------
    # lookup / write
    # ------------------------------------------------------------------
    def lookup(self, key: StoreKey) -> StoreEntry | None:
        """The store's one read path; every call records one outcome.

        A decoded L1 entry was revalidated when it was first served, so
        it is served as-is.  A raw record — from disk, or a neighbour an
        earlier disk read left in L1 — is decoded (checksums) and its
        stored key compared with ``key`` here; only this record is
        decoded.  A record that is absent yields a plain miss; one that
        fails either check is dropped from disk — the slot holds
        garbage, and the recompile that follows will rewrite it — and
        counted invalid.
        """
        digest = key.digest
        entry = self._l1.get(digest)
        tier = "l1"
        if entry is None:
            tier = "l2"
            try:
                entry = self._read(key)
            except StoreEntryError:
                # an unreadable loop file cannot be rewritten either
                self.stats.invalid += 1
                self.stats.misses += 1
                return None
            if entry is None:
                self.stats.misses += 1
                return None
        if isinstance(entry, list):
            entry = self._admit(key, entry)
            if entry is None:
                self.invalidate(key)
                self.stats.invalid += 1
                self.stats.misses += 1
                return None
        if tier == "l1":
            self.stats.hits_l1 += 1
        else:
            self.stats.hits_l2 += 1
        self._last_hit = (digest, tier)
        self._l1_put(digest, entry)
        return entry

    def _read(self, key: StoreKey) -> list[bytes] | None:
        """``key``'s raw record from its loop file, after moving the file's
        other complete records into L1.

        The file is not read when its stamp shows it unchanged since L1
        last held all of it and ``key``'s record is not torn there: the
        record is then absent.  An append by any process moves the size,
        a rewrite the inode, so a stale stamp costs one read, never a
        wrong record.
        """
        known = self._stamps.get(key.loop_fp)
        if (known is not None and key.digest not in known[1]
                and self.disk.stamp(key) == known[0]):
            return None
        stamp, loaded = self.disk.read(key)
        if loaded is None:
            self._remember(key.loop_fp, None)
            return None
        raw = loaded.records.pop(key.digest, None)
        torn = loaded.torn
        evictions = self.stats.evictions
        for other, record in loaded.records.items():
            if other not in torn and other not in self._l1:
                self._l1_put(other, record)
        if self.stats.evictions == evictions:
            self._remember(key.loop_fp, stamp, frozenset(torn))
        return raw

    @staticmethod
    def _admit(key: StoreKey, raw: list[bytes]) -> StoreEntry | None:
        """Check ``raw`` (a record's lines) is ``key``'s record and decode
        it; ``None`` if not (a digest collision, tampered key fields or a
        corrupt record)."""
        try:
            return StoreEntry.from_lines(raw, key)
        except StoreEntryError:
            return None

    def put_result(self, key: StoreKey, result: "CompilationResult") -> StoreEntry:
        """Serialize ``result`` under ``key`` into both tiers."""
        entry = StoreEntry.from_result(key, result, self._encoder)
        written, stamp = self.disk.put(key, entry)
        self.stats.writes += 1
        # the append keeps a stamp only if nothing else changed the file
        known = self._stamps.pop(key.loop_fp, None)
        if known is not None and (
            stamp[1] == written if known[0] is None
            else stamp[0] == known[0][0] and stamp[1] == known[0][1] + written
        ):
            self._remember(key.loop_fp, stamp, known[1])
        self._l1_put(key.digest, entry)
        return entry

    def invalidate(self, key: StoreKey) -> None:
        """Drop ``key`` from both tiers (e.g. hydration-time corruption)."""
        self._l1.pop(key.digest, None)
        self._stamps.pop(key.loop_fp, None)
        self.disk.delete(key)

    def reject(self, key: StoreKey) -> None:
        """A served hit turned out unusable during late hydration.

        Checksums and key revalidation run at lookup time, so this is
        the belt-and-braces path (e.g. code-version drift that kept the
        schema number but changed artifact semantics): drop the entry
        and reclassify the lookup as an invalid miss so the stats still
        describe one outcome per lookup.
        """
        self.invalidate(key)
        if self._last_hit is not None and self._last_hit[0] == key.digest:
            tier = self._last_hit[1]
            if tier == "l1" and self.stats.hits_l1 > 0:
                self.stats.hits_l1 -= 1
            elif tier == "l2" and self.stats.hits_l2 > 0:
                self.stats.hits_l2 -= 1
            self._last_hit = None
        self.stats.misses += 1
        self.stats.invalid += 1
