"""On-disk tier of the artifact store: one file per key digest.

Layout under the store root::

    STORE_ROOT/
      repro-store.json          # marker: format name + schema version
      objects/ab/abcdef....entry

Entries are filed by the first two hex characters of their digest (a
conventional fan-out that keeps directory listings small at corpus
scale).  Writes go through a temporary file in the same directory
followed by :func:`os.replace`, so a reader — or a concurrent worker
writing the same key — never observes a partial entry; because entry
content is a deterministic function of the key, last-writer-wins races
are harmless.

The store root must be either empty/nonexistent (it is then initialised
with a marker file) or carry the marker from a previous run; pointing
``--store`` at a directory full of unrelated files is refused rather
than silently littered with objects.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from repro.store.entry import SCHEMA_VERSION, StoreEntry, StoreEntryError

_MARKER_NAME = "repro-store.json"
_ENTRY_SUFFIX = ".entry"


class StoreFormatError(RuntimeError):
    """The store directory is not usable as an artifact store."""


@dataclass
class DiskStoreStats:
    """Inventory of one on-disk store (``repro store stats``)."""

    entries: int = 0
    total_bytes: int = 0
    invalid: int = 0


@dataclass
class VerifyReport:
    """Outcome of a full integrity scan (``repro store verify``)."""

    checked: int = 0
    #: (digest, reason) for every entry that failed decoding/revalidation
    bad: list[tuple[str, str]] = None

    def __post_init__(self) -> None:
        if self.bad is None:
            self.bad = []

    @property
    def ok(self) -> bool:
        return not self.bad


class DiskStore:
    """Durable content-addressed entry files under one root directory."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._objects = self.root / "objects"
        self._init_root()

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _init_root(self) -> None:
        marker = self.root / _MARKER_NAME
        if marker.exists():
            try:
                doc = json.loads(marker.read_text(encoding="utf-8"))
            except (json.JSONDecodeError, OSError) as exc:
                raise StoreFormatError(
                    f"{self.root}: unreadable store marker ({exc})"
                ) from exc
            if doc.get("format") != "repro-store":
                raise StoreFormatError(f"{self.root}: not a repro artifact store")
            if doc.get("schema") != SCHEMA_VERSION:
                raise StoreFormatError(
                    f"{self.root}: store schema {doc.get('schema')!r}, "
                    f"this build speaks {SCHEMA_VERSION}"
                )
        else:
            if self.root.exists() and any(self.root.iterdir()):
                raise StoreFormatError(
                    f"{self.root}: directory exists, is not empty and carries "
                    f"no store marker; refusing to use it as an artifact store"
                )
            self.root.mkdir(parents=True, exist_ok=True)
            doc = {"format": "repro-store", "schema": SCHEMA_VERSION}
            marker.write_text(
                json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8"
            )
        self._objects.mkdir(exist_ok=True)

    def _path_for(self, digest: str) -> Path:
        return self._objects / digest[:2] / f"{digest}{_ENTRY_SUFFIX}"

    def digests(self) -> list[str]:
        """All stored digests, sorted (stable iteration for verify/gc)."""
        out = []
        for fan in sorted(self._objects.iterdir()) if self._objects.exists() else []:
            if not fan.is_dir():
                continue
            for f in sorted(fan.iterdir()):
                if f.suffix == _ENTRY_SUFFIX:
                    out.append(f.stem)
        return out

    def __len__(self) -> int:
        return len(self.digests())

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def get(self, digest: str) -> StoreEntry | None:
        """Decode the entry under ``digest``; ``None`` if absent.

        Raises :class:`~repro.store.entry.StoreEntryError` when a file
        exists but does not decode (truncated, bit-flipped, foreign);
        callers treat that as a miss and usually :meth:`delete` it.
        """
        path = self._path_for(digest)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise StoreEntryError(f"unreadable entry {digest}: {exc}") from exc
        return StoreEntry.from_bytes(data)

    def put(self, digest: str, entry: StoreEntry) -> int:
        """Atomically write ``entry`` under ``digest``; returns byte size."""
        path = self._path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = entry.to_bytes()
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{digest[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return len(data)

    def delete(self, digest: str) -> bool:
        try:
            self._path_for(digest).unlink()
            return True
        except FileNotFoundError:
            return False

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def stats(self) -> DiskStoreStats:
        out = DiskStoreStats()
        for digest in self.digests():
            path = self._path_for(digest)
            try:
                out.total_bytes += path.stat().st_size
            except OSError:
                out.invalid += 1
                continue
            out.entries += 1
        return out

    def verify(self) -> VerifyReport:
        """Decode every entry and recheck that its stored key matches its
        filename — the full revalidation a read performs, over the whole
        store, without loading anything into memory tiers."""
        from repro.store.tiered import digest_of_key_json

        report = VerifyReport()
        for digest in self.digests():
            report.checked += 1
            try:
                entry = self.get(digest)
            except StoreEntryError as exc:
                report.bad.append((digest, str(exc)))
                continue
            if entry is None:  # racing gc; nothing to judge
                report.checked -= 1
                continue
            if digest_of_key_json(entry.key_json) != digest:
                report.bad.append((digest, "stored key does not match filename"))
        return report

    def gc(self, max_entries: int | None = None,
           max_age_days: float | None = None) -> list[str]:
        """Drop entries beyond retention limits; returns removed digests.

        ``max_age_days`` removes entries whose file mtime is older than
        the cutoff; ``max_entries`` then keeps the most recently written
        ``max_entries`` of the remainder.  Entry files are rewritten on
        every store write, so mtime tracks last (re)compute, which is the
        retention signal a shared cache wants.

        gc stats first and deletes after, and concurrent writers (a warm
        evaluation, a serve daemon) may land an ``os.replace`` in
        between; each deletion therefore goes through
        :meth:`_remove_stale`, which recounts the entry's mtime and keeps
        anything rewritten since it was judged.

        A negative ``max_entries``, or a ``max_age_days`` that is negative
        or not finite, raises :class:`ValueError` before anything is
        removed; ``max_entries=0`` drops every entry.
        """
        if max_entries is not None and max_entries < 0:
            raise ValueError(f"max_entries must be >= 0, got {max_entries}")
        if max_age_days is not None and not (
            math.isfinite(max_age_days) and max_age_days >= 0
        ):
            raise ValueError(
                f"max_age_days must be a finite number >= 0, got {max_age_days}"
            )
        survivors: list[tuple[int, str]] = []
        removed: list[str] = []
        now = time.time()
        for digest in self.digests():
            try:
                mtime_ns = self._path_for(digest).stat().st_mtime_ns
            except OSError:
                continue
            if (max_age_days is not None
                    and now - mtime_ns * 1e-9 > max_age_days * 86400.0):
                if self._remove_stale(digest, mtime_ns):
                    removed.append(digest)
                continue
            survivors.append((mtime_ns, digest))
        if max_entries is not None and len(survivors) > max_entries:
            survivors.sort()  # oldest first
            for mtime_ns, digest in survivors[: len(survivors) - max_entries]:
                if self._remove_stale(digest, mtime_ns):
                    removed.append(digest)
        return removed

    def _remove_stale(self, digest: str, seen_mtime_ns: int) -> bool:
        """Delete ``digest`` only if it still carries the mtime gc judged.

        A concurrent writer rewriting the entry between gc's stat and the
        delete replaces the file (new mtime): the rewritten entry is no
        longer the stale one retention condemned, so it survives and is
        not reported as removed.  The remaining stat→unlink window is
        harmless — entries are content-addressed, so the worst outcome of
        losing it is one warm miss, never a wrong artifact.
        """
        path = self._path_for(digest)
        try:
            if path.stat().st_mtime_ns != seen_mtime_ns:
                return False
        except OSError:
            return False
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True
