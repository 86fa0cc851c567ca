"""Durable content-addressed artifact store (tiered persistence).

The paper's Section 6.2 observation makes compilation results pure
functions of their inputs; :mod:`repro.core.fingerprint` turns those
inputs into a five-part :class:`~repro.core.fingerprint.StoreKey`, and
this package persists the *final* compilation result under the key's
digest so any later run — same process, another worker, another day —
answers the same compilation with a lookup instead of a pipeline run.

Three tiers cooperate (see docs/architecture.md, "Persistence"):

* **L0** — the per-process :class:`~repro.core.cache.ArtifactCache`
  memoizing the machine-independent (DDG, ideal schedule) pair across
  the six cluster configurations of one run;
* **L1** — :class:`ArtifactStore`'s in-memory LRU of entries, bounding
  repeated disk reads; a disk hit also fills it with the rest of its
  loop's records;
* **L2** — :class:`DiskStore`, one append-only file per loop holding a
  self-checking record per cell, each appended in one ``O_APPEND``
  write so concurrent workers never interleave records.

Entries never pickle live IR graphs: the partitioned loop is stored as
its copy list and re-derived by copy insertion on hydration, a
spill-rewritten loop as printer text, schedules positionally over the
operation list.  Every read revalidates schema version,
checksums and the stored key, so torn, corrupt or foreign records
degrade to a recorded miss (and a recompile), never a wrong answer.
"""

from repro.store.disk import DiskStore, StoreFormatError
from repro.store.entry import SCHEMA_VERSION, StoreEntry, StoreEntryError
from repro.store.tiered import ArtifactStore, StoreStats

__all__ = [
    "ArtifactStore",
    "DiskStore",
    "SCHEMA_VERSION",
    "StoreEntry",
    "StoreEntryError",
    "StoreFormatError",
    "StoreStats",
]
