"""On-disk tier of the artifact store: one append-only file per loop.

Layout under the store root::

    STORE_ROOT/
      repro-store.json          # marker: format name + schema version
      objects/<loop fp>.loop    # every stored cell of one loop

The paper's grid compiles every loop under six machine configurations,
and creating a file costs about as much kernel time as compiling the
cell it would hold, while appending to an existing one is two orders of
magnitude cheaper.  So a loop's cells share one file, named by the loop
fingerprint of their :class:`~repro.core.fingerprint.StoreKey`: the
loop's first cold cell creates it, and each later cell appends its
record (:meth:`StoreEntry.to_bytes`, preceded by a blank line) in one
``O_APPEND`` write, which concurrent writers cannot interleave.

A record is a header line — it begins ``{"digest":"<64 hex>"`` — and
the two lines after it.  Blank lines separate records, so a record torn
by a crash mid-append can never swallow the header of one appended
after it; any other line is stray.  Every read takes the file's stamp
(inode, size, mtime) with ``fstat`` on its descriptor before reading,
and every append returns the stamp right after its write, so the tiered
store can tell an unchanged file from one that moved without reading
it.  Reading a file splits it into
records by digest without decoding them; a torn or corrupt record fails
:meth:`StoreEntry.from_lines`, and the reader counts it as an invalid
miss and drops it (:meth:`DiskStore.delete`), so it is never served.
Two writers of the same key may leave duplicate records; they are
interchangeable (entry content is a deterministic function of the key)
and the first complete one is read.

Deleting records — an invalid miss, ``verify --repair``, ``gc`` —
rewrites the file without them (temp file + :func:`os.replace`) and
drops stray lines on the way.  A rewrite restarts if the file changed
while it was being read; an append landing in the remaining window
between that check and the replace is lost, which costs one warm miss,
never a wrong artifact.

The store root must be either empty/nonexistent (it is then initialised
with a marker file) or carry the marker from a previous run; pointing
``--store`` at a directory full of unrelated files is refused rather
than silently littered with objects.  A root written by another schema
is refused the same way.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.fingerprint import StoreKey
from repro.store.entry import (
    RECORD_PREFIX,
    SCHEMA_VERSION,
    StoreEntry,
    StoreEntryError,
)

_MARKER_NAME = "repro-store.json"
_LOOP_SUFFIX = ".loop"
_DIGEST_END = len(RECORD_PREFIX) + 64


class StoreFormatError(RuntimeError):
    """The store directory is not usable as an artifact store."""


#: (inode, size, mtime in ns) of a loop file: an append moves its size,
#: a rewrite (temp file + replace) its inode
Stamp = tuple[int, int, int]


def _stamp_of(st: os.stat_result) -> Stamp:
    return st.st_ino, st.st_size, st.st_mtime_ns


def _stamp(path: str | os.PathLike) -> Stamp | None:
    """``path``'s stamp; ``None`` if it does not exist."""
    try:
        return _stamp_of(os.stat(path))
    except FileNotFoundError:
        return None


def _read(path: str | os.PathLike) -> tuple[Stamp, bytes] | None:
    """``path``'s bytes and its stamp, taken on the open descriptor before
    reading (so the bytes hold at least what the stamp describes);
    ``None`` if the file does not exist."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError:
        return None
    try:
        st = os.fstat(fd)
        want = st.st_size + 1
        data = os.read(fd, want)
        if len(data) == want:  # appended since the stat: read to the end
            parts = [data]
            while chunk := os.read(fd, 1 << 16):
                parts.append(chunk)
            data = b"".join(parts)
    finally:
        os.close(fd)
    return _stamp_of(st), data


@dataclass
class LoopFile:
    """One loop file split into records, none of them decoded."""

    #: digest -> raw record as its lines, split as
    #: :meth:`StoreEntry.from_bytes` splits (a newline-terminated record
    #: ends with an empty line): the first complete one, else a torn one
    records: dict[str, list[bytes]] = field(default_factory=dict)
    #: digests whose only record is incomplete (a torn append)
    torn: set[str] = field(default_factory=set)
    #: non-blank lines outside any record
    stray: int = 0

    @classmethod
    def parse(cls, data: bytes) -> "LoopFile":
        out = cls()
        lines = data.split(b"\n")
        last = len(lines) - 1  # lines[last] is the unterminated tail
        i = 0
        while i <= last:
            line = lines[i]
            if not (line.startswith(RECORD_PREFIX) and len(line) > _DIGEST_END):
                out.stray += bool(line)
                i += 1
                continue
            j = i + 1
            while (j <= last and j - i < 3 and lines[j]
                   and not lines[j].startswith(RECORD_PREFIX)):
                j += 1
            digest = line[len(RECORD_PREFIX):_DIGEST_END].decode("ascii", "replace")
            complete = j - i == 3 and j <= last
            if digest not in out.records or (complete and digest in out.torn):
                record = lines[i:j]
                if j <= last:
                    record.append(b"")  # the newline ending the record
                out.records[digest] = record
                if complete:
                    out.torn.discard(digest)
                else:
                    out.torn.add(digest)
            i = j
        return out


@dataclass
class DiskStoreStats:
    """Inventory of one on-disk store (``repro store stats``)."""

    entries: int = 0
    files: int = 0
    total_bytes: int = 0
    invalid: int = 0


@dataclass
class VerifyReport:
    """Outcome of a full integrity scan (``repro store verify``)."""

    checked: int = 0
    #: (digest, reason) for every record that failed decoding or
    #: revalidation; (file name, reason) for stray lines
    bad: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.bad


class DiskStore:
    """Durable content-addressed records, one append-only file per loop."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._objects = self.root / "objects"
        #: the loop files' directory as the prefix of their path strings
        self._prefix = os.path.join(self._objects, "")
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

    def _path_for(self, key: StoreKey) -> str:
        """The loop file ``key``'s record lives in, as a plain string for
        the os-level calls."""
        return self._prefix + key.loop_fp + _LOOP_SUFFIX

    def loop_files(self) -> list[Path]:
        """Every loop file, sorted (stable iteration for verify/gc)."""
        if not self._objects.exists():
            return []
        return sorted(
            p for p in self._objects.iterdir() if p.suffix == _LOOP_SUFFIX
        )

    def _load(self, path: str | os.PathLike) -> LoopFile | None:
        read = _read(path)
        return None if read is None else LoopFile.parse(read[1])

    def digests(self) -> list[str]:
        """All stored digests, sorted."""
        out: list[str] = []
        for path in self.loop_files():
            loaded = self._load(path)
            if loaded is not None:
                out.extend(loaded.records)
        return sorted(out)

    def __len__(self) -> int:
        return len(self.digests())

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def read(self, key: StoreKey) -> tuple[Stamp | None, LoopFile | None]:
        """``key``'s loop file split into undecoded records (``None`` if
        absent), with the stamp it had when it was opened — one file read
        per loop.

        Raises :class:`~repro.store.entry.StoreEntryError` when the file
        exists but cannot be read.
        """
        path = self._path_for(key)
        try:
            read = _read(path)
        except OSError as exc:
            raise StoreEntryError(
                f"unreadable loop file {os.path.basename(path)}: {exc}"
            ) from exc
        if read is None:
            return None, None
        return read[0], LoopFile.parse(read[1])

    def stamp(self, key: StoreKey) -> Stamp | None:
        """The stamp of ``key``'s loop file now; ``None`` if absent."""
        return _stamp(self._path_for(key))

    def get(self, key: StoreKey) -> StoreEntry | None:
        """Decode ``key``'s record; ``None`` if absent.

        Raises :class:`~repro.store.entry.StoreEntryError` when a record
        exists but does not decode (torn, bit-flipped, foreign);
        callers treat that as a miss and usually :meth:`delete` it.
        """
        _, loaded = self.read(key)
        raw = None if loaded is None else loaded.records.get(key.digest)
        return None if raw is None else StoreEntry.from_lines(raw, key)

    def put(self, key: StoreKey, entry: StoreEntry) -> tuple[int, Stamp]:
        """Append ``entry`` to its loop file under ``key.digest`` in one
        ``O_APPEND`` write; returns the bytes written and the file's
        stamp right after the write."""
        data = b"\n" + entry.to_bytes(key.digest)
        fd = os.open(self._path_for(key), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        try:
            os.write(fd, data)
            st = os.fstat(fd)
        finally:
            os.close(fd)
        return len(data), _stamp_of(st)

    def delete(self, key: StoreKey) -> bool:
        """Drop every record of ``key`` from its loop file."""
        return bool(self._rewrite(self._path_for(key), lambda d: d == key.digest))

    def _rewrite(self, path: str | os.PathLike, drop: Callable[[str], bool],
                 seen_mtime_ns: int | None = None) -> list[str]:
        """Rewrite ``path`` without the records ``drop`` selects and
        without stray lines; returns the dropped digests.

        The file is replaced only if it did not change while it was
        read and rewritten, else read again.  With ``seen_mtime_ns``
        (gc), a file whose mtime moved since it was judged is left alone.
        """
        while True:
            read = _read(path)
            if read is None:
                return []
            stamp, data = read
            if seen_mtime_ns is not None and stamp[2] != seen_mtime_ns:
                return []
            loaded = LoopFile.parse(data)
            dropped = [d for d in loaded.records if drop(d)]
            if not dropped and not loaded.stray:
                return []
            kept = b"".join(
                b"\n" + b"\n".join(raw) for d, raw in loaded.records.items() if not drop(d)
            )
            tmp = self._write_temp(kept) if kept else None
            if len(data) == stamp[1] and _stamp(path) == stamp:
                if tmp is None:
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(path)
                else:
                    os.replace(tmp, path)
                return dropped
            if tmp is not None:  # appended or rewritten meanwhile: start over
                os.unlink(tmp)

    def _write_temp(self, data: bytes) -> str:
        fd, tmp = tempfile.mkstemp(dir=self._objects, prefix=".", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        except BaseException:
            os.unlink(tmp)
            raise
        return tmp

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def stats(self) -> DiskStoreStats:
        out = DiskStoreStats()
        for path in self.loop_files():
            try:
                data = path.read_bytes()
            except OSError:
                out.invalid += 1
                continue
            out.files += 1
            out.total_bytes += len(data)
            out.entries += len(LoopFile.parse(data).records)
        return out

    def verify(self, repair: bool = False) -> VerifyReport:
        """Decode every record and recheck that its stored key hashes to
        its digest and names its loop file — the full revalidation a
        read performs, over the whole store, without loading anything
        into memory tiers.  ``repair`` rewrites each file without its
        bad records and stray lines."""
        from repro.store.tiered import digest_of_key_json

        report = VerifyReport()
        for path in self.loop_files():
            try:
                loaded = self._load(path)
            except OSError as exc:
                report.bad.append((path.name, f"unreadable: {exc}"))
                continue
            if loaded is None:  # racing gc; nothing to judge
                continue
            bad: set[str] = set()
            for digest, raw in loaded.records.items():
                report.checked += 1
                try:
                    entry = StoreEntry.from_lines(raw)
                except StoreEntryError as exc:
                    bad.add(digest)
                    report.bad.append((digest, str(exc)))
                    continue
                if digest_of_key_json(entry.key_json) != digest:
                    reason = "stored key does not match its digest"
                elif f"{entry.key_json.get('loop')}{_LOOP_SUFFIX}" != path.name:
                    reason = "record filed in another loop's file"
                else:
                    continue
                bad.add(digest)
                report.bad.append((digest, reason))
            if loaded.stray:
                report.bad.append((path.name, f"{loaded.stray} stray line(s)"))
            if repair and (bad or loaded.stray):
                self._rewrite(path, bad.__contains__)
        return report

    def gc(self, max_entries: int | None = None,
           max_age_days: float | None = None) -> list[str]:
        """Drop entries beyond retention limits; returns removed digests.

        An entry's age is its loop file's mtime, which tracks the
        file's last append; within one file, later records are newer.
        ``max_age_days`` removes the entries of files older than the
        cutoff; ``max_entries`` then keeps the ``max_entries`` newest of
        the remainder, entry by entry, so it may drop part of a file.

        gc reads first and rewrites after, and concurrent writers (a
        warm evaluation, a serve daemon) may append in between; each
        rewrite therefore goes through :meth:`_remove_stale`, which
        rechecks the file's mtime and keeps any file appended since it
        was judged.

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
        #: (mtime_ns, position in file, digest, path), oldest first once sorted
        survivors: list[tuple[int, int, str, Path]] = []
        condemned: dict[Path, tuple[int, set[str]]] = {}
        now = time.time()
        for path in self.loop_files():
            try:
                mtime_ns = path.stat().st_mtime_ns
                loaded = self._load(path)
            except OSError:
                continue
            if loaded is None:
                continue
            if (max_age_days is not None
                    and now - mtime_ns * 1e-9 > max_age_days * 86400.0):
                condemned[path] = (mtime_ns, set(loaded.records))
                continue
            survivors.extend(
                (mtime_ns, pos, digest, path)
                for pos, digest in enumerate(loaded.records)
            )
        if max_entries is not None and len(survivors) > max_entries:
            survivors.sort()
            for mtime_ns, _pos, digest, path in survivors[: len(survivors) - max_entries]:
                condemned.setdefault(path, (mtime_ns, set()))[1].add(digest)
        removed: list[str] = []
        for path, (mtime_ns, digests) in condemned.items():
            removed.extend(self._remove_stale(path, digests, mtime_ns))
        return removed

    def _remove_stale(self, path: Path, digests: set[str],
                      seen_mtime_ns: int) -> list[str]:
        """Drop ``digests`` from ``path`` only if the file still carries
        the mtime gc judged.

        A concurrent writer appending to the file between gc's read and
        the rewrite moves its mtime: its records are no longer the stale
        ones retention condemned, so they all survive and none is
        reported as removed.
        """
        return self._rewrite(path, digests.__contains__, seen_mtime_ns)
