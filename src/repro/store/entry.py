"""Self-describing serialization of one final compilation result.

One :class:`StoreEntry` is one (loop, machine, pipeline) compilation,
filed under its :class:`~repro.core.fingerprint.StoreKey` digest.  Its
record is three JSON lines::

    {"digest": ..., "key": {...}, "magic": "repro-store",
     "meta_sha256": ..., "payload_sha256": ..., "schema": 3}
    {"loop_name": ..., "metrics": {...}}
    {"bank_assignment": ..., "copies": [...], "ideal": {...},
     "kernel": {...}, "partition": {...}, "precopy": ...}

The split is deliberate: the warm evaluation path needs only line 2
(metrics), so it parses a few hundred bytes per cell and leaves the
artifact payload untouched; ``repro compile --store`` hydrates line 3
into a full :class:`~repro.core.pipeline.CompilationResult`.  Both
lines carry checksums in the header, so a truncated or bit-flipped
record raises :class:`StoreEntryError` — which every consumer treats as
a miss — instead of producing a wrong artifact.  The header's keys
sort ``digest`` first, so every record line begins
``{"digest":"<64 hex>"``: that is how
:class:`~repro.store.disk.DiskStore` finds a record among the other
cells of its loop file without parsing them, and a read that knows the
key compares the whole header line with the one :meth:`StoreEntry.to_bytes`
would write instead of parsing it.

A payload line is assembled from JSON fragments by
:class:`PayloadEncoder`, which keeps the fragments a loop's cells share
(the ideal schedule, and a copy-model pair's partition and copies), so
a cold cell encodes only what is new in its record.

No live :class:`~repro.ir.operations.Operation` graph is ever pickled.
The source loop is not stored at all: hydration takes the caller's
loop, whose fingerprint is part of the key.  A spill-rewritten
pre-copy loop (``precopy``, null when no spill round ran) is stored as
:func:`~repro.ir.printer.format_loop` text and rehydrated through
:func:`~repro.ir.parser.parse_loop`.  The partitioned loop is not
stored: it is a pure function of the pre-copy loop and its bank
assignment (paper Section 4, step 4), so hydration re-derives it with
:func:`~repro.core.copies.insert_copies`, the step a fresh compile runs,
and checks it against the stored ``copies`` list (each copy's value
name and cluster, body copies in body order, then the preheader copies
sorted).  Its DDG is derived from the pre-copy loop's, and both stored
schedules are revalidated against their DDGs, so a record that no
longer matches the code recompiles instead of producing a wrong
artifact.  Schedules
are stored positionally over the loop's operation list, partitions and
bank assignments by register name, so entries are stable across
processes, platforms and interpreter versions.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.core.fingerprint import StoreKey, loop_fingerprint
from repro.core.results import LoopMetrics
from repro.ir.block import Loop
from repro.ir.printer import format_loop

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import CompilationResult
    from repro.machine.machine import MachineDescription

#: bump when the entry layout changes; readers reject other versions
SCHEMA_VERSION = 3

_MAGIC = "repro-store"

#: every record's first bytes: the header's keys sort ``digest`` first
RECORD_PREFIX = b'{"digest":"'


class StoreEntryError(ValueError):
    """An entry is corrupt, foreign, or from an incompatible schema."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, built once
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_DECODER = json.JSONDecoder()


def _dumps(doc: dict) -> bytes:
    return _ENCODER.encode(doc).encode("utf-8")


def _loads(line: bytes, what: str):
    """Decode one record line (ASCII JSON, as :func:`_dumps` writes it)."""
    try:
        return _DECODER.decode(line.decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise StoreEntryError(f"bad {what} JSON: {exc}") from exc


_HEADER = (
    RECORD_PREFIX + b'%s","key":%s,"magic":"' + _MAGIC.encode()
    + b'","meta_sha256":"%s","payload_sha256":"%s","schema":%d}'
)


def _header(digest: str, key_text: bytes, meta_line: bytes, payload_line: bytes) -> bytes:
    """A record's header line, keys in sorted order as :func:`_dumps`
    writes a dict: the digest, the key's canonical JSON, the magic, both
    checksums and the schema version."""
    return _HEADER % (
        digest.encode(), key_text,
        _sha256(meta_line).encode(), _sha256(payload_line).encode(), SCHEMA_VERSION,
    )


def _partition_doc(partition) -> dict:
    by_rid = dict(partition._registers)
    return {
        "n_banks": partition.n_banks,
        "banks": sorted(
            [by_rid[rid].name, bank] for rid, bank in partition.assignment.items()
        ),
    }


def _copies_doc(partitioned) -> list[list]:
    """A partitioned loop's copies as ``[value name, cluster]`` pairs:
    body copies in body order, then the preheader copies sorted."""
    body = set(map(id, partitioned.body_copies))
    bank_of = partitioned.partition.assignment
    return [
        [op.sources[0].name, op.cluster]
        for op in partitioned.loop.ops if id(op) in body
    ] + sorted([src.name, bank_of[dst.rid]] for src, dst in partitioned.preheader_copies)


def _hydrate_partition(doc: dict, loop: Loop):
    """A stored partition over ``loop``'s registers (names are unique
    within a loop)."""
    from repro.core.greedy import Partition

    regs = {r.name: r for r in loop.registers()}
    partition = Partition(n_banks=doc["n_banks"])
    for name, bank in doc["banks"]:
        partition.assign(regs[name], bank)
    return partition


def _schedule_json(schedule, ops) -> bytes:
    """A schedule as ``{"ii", "times"}``, times by position in ``ops``."""
    times = schedule.times
    return _dumps({"ii": schedule.ii, "times": [times[op.op_id] for op in ops]})


class PayloadEncoder:
    """Encodes payload lines, keeping the last loop's shared fragments.

    A payload line is :func:`_dumps` of the payload dict, assembled from
    the JSON of each value in sorted key order.  A loop's six cells share
    one ideal schedule (the artifact cache's) and copy-model siblings one
    partition and partitioned loop (the step-4 share), so those fragments
    are encoded once.  They are keyed by the objects themselves, which the
    encoder holds, so no identity can be reused while it compares.
    """

    __slots__ = ("_held", "_ideal", "_partition", "_copies")

    def __init__(self) -> None:
        #: (ideal schedule, loop, partition, partitioned loop) last encoded
        self._held: tuple = (None, None, None, None)
        self._ideal = self._partition = self._copies = b""

    def encode(self, result: "CompilationResult") -> bytes:
        """``result``'s payload line."""
        loop, partitioned = result.loop, result.partitioned
        held = (result.ideal, loop, result.partition, partitioned)
        last, self._held = self._held, held
        if held[0] is not last[0] or loop is not last[1]:
            self._ideal = _schedule_json(result.ideal, loop.ops)
        if held[2] is not last[2]:
            self._partition = _dumps(_partition_doc(result.partition))
        if partitioned is not last[3]:
            self._copies = _dumps(_copies_doc(partitioned))
        precopy = result.precopy_loop
        ba = result.bank_assignment
        if ba is None:
            ba_text = b"null"
        else:
            regs = partitioned.partition._registers
            ba_text = _dumps({
                "unroll": ba.unroll,
                "max_pressure": ba.max_pressure,
                "physical": sorted(
                    [regs[rid].name, replica, bank, idx]
                    for (rid, replica), (bank, idx) in ba.physical.items()
                ),
            })
        return b"".join((
            b'{"bank_assignment":', ba_text,
            b',"copies":', self._copies,
            b',"ideal":', self._ideal,
            b',"kernel":', _schedule_json(result.kernel, partitioned.loop.ops),
            b',"partition":', self._partition,
            b',"precopy":',
            b"null" if precopy is None or precopy is loop else _dumps(format_loop(precopy)),
            b"}",
        ))


class StoreEntry:
    """One decoded (or decodable) store entry.

    ``meta`` (loop name and metrics) is always
    parsed and checksum-verified; the artifact payload stays raw until
    :meth:`payload`/:meth:`hydrate` need it, keeping the metrics-only
    warm path independent of payload size.
    """

    def __init__(
        self,
        digest: str,
        key: "StoreKey | dict",
        meta: dict,
        payload: dict | None = None,
        payload_raw: bytes | None = None,
        meta_line: bytes | None = None,
    ):
        self.digest = digest
        #: the key the entry is filed under, or its decoded JSON fields
        self._key = key
        self.meta = meta
        #: the meta line as read, or ``None`` for an entry built here
        self._meta_line = meta_line
        self._payload = payload
        self._payload_raw = payload_raw
        self._metrics: LoopMetrics | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, key: StoreKey, result: "CompilationResult",
                    encoder: "PayloadEncoder | None" = None) -> "StoreEntry":
        """Serialize a successful compilation under its content key;
        ``encoder`` reuses the fragments it encoded for earlier cells."""
        meta = {
            "loop_name": result.loop.name,
            "metrics": result.metrics.to_dict(),
        }
        payload_line = (encoder if encoder is not None else PayloadEncoder()).encode(result)
        return cls(key.digest, key, meta, payload_raw=payload_line)

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def to_bytes(self, digest: str | None = None) -> bytes:
        """The record, filed under ``digest`` (default: the entry's own)."""
        meta_line = _dumps(self.meta)
        payload_line = self._payload_raw
        if payload_line is None:
            payload_line = _dumps(self._payload if self._payload is not None else {})
        key = self._key
        key_text = _dumps(key) if isinstance(key, dict) else key.canonical_json.encode()
        header = _header(
            self.digest if digest is None else digest, key_text, meta_line, payload_line
        )
        return b"\n".join((header, meta_line, payload_line, b""))

    @classmethod
    def from_bytes(cls, data: bytes, key: StoreKey | None = None) -> "StoreEntry":
        """Decode header + meta, deferring the payload.

        Raises :class:`StoreEntryError` on any structural problem: bad
        JSON, wrong magic, unknown schema version, truncation, or a meta
        checksum mismatch.  The payload checksum is verified here too
        (hashing is far cheaper than parsing); its JSON is only decoded
        by :meth:`payload`.  Given the ``key`` the record should be
        filed under, the header is not parsed: it must equal, byte for
        byte, the header :meth:`to_bytes` writes for that key and these
        meta and payload lines, which checks the key, magic, schema and
        both checksums in one comparison.
        """
        return cls.from_lines(data.split(b"\n"), key)

    @classmethod
    def from_lines(cls, parts: list[bytes], key: StoreKey | None = None) -> "StoreEntry":
        """:meth:`from_bytes` of a record already split into its lines
        (``data.split(b"\\n")``), as the disk tier reads them."""
        if len(parts) != 4 or parts[3]:
            raise StoreEntryError(
                "truncated entry (expected 3 newline-terminated lines)"
            )
        if key is None:
            digest, key = cls._parse_header(parts)
        elif parts[0] == _header(key.digest, key.canonical_json.encode(), parts[1], parts[2]):
            digest = key.digest
        else:
            raise StoreEntryError(
                "header does not match the key, schema or checksums of this record"
            )
        return cls(digest, key, _loads(parts[1], "meta"), payload_raw=parts[2],
                   meta_line=parts[1])

    @staticmethod
    def _parse_header(parts: list[bytes]) -> tuple[str, dict]:
        """(digest, key fields) of a record read without its key, after
        checking magic, schema and both checksums."""
        header = _loads(parts[0], "header")
        if not isinstance(header, dict) or header.get("magic") != _MAGIC:
            raise StoreEntryError("not a repro-store entry")
        if header.get("schema") != SCHEMA_VERSION:
            raise StoreEntryError(
                f"schema version {header.get('schema')!r} "
                f"(this reader speaks {SCHEMA_VERSION})"
            )
        key_json = header.get("key")
        if not isinstance(key_json, dict):
            raise StoreEntryError("header has no key")
        digest = header.get("digest")
        if not isinstance(digest, str):
            raise StoreEntryError("header has no digest")
        if _sha256(parts[1]) != header.get("meta_sha256"):
            raise StoreEntryError("meta checksum mismatch")
        if _sha256(parts[2]) != header.get("payload_sha256"):
            raise StoreEntryError("payload checksum mismatch")
        return digest, key_json

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def key_json(self) -> dict:
        """The key fields the entry is filed under."""
        key = self._key
        return key if isinstance(key, dict) else key.to_json()

    @property
    def loop_name(self) -> str:
        return self.meta.get("loop_name", "?")

    def metrics(self) -> LoopMetrics:
        """The stored :class:`LoopMetrics` — the warm evaluation path."""
        if self._metrics is None:
            try:
                self._metrics = LoopMetrics.from_dict(self.meta["metrics"])
            except (KeyError, TypeError) as exc:
                raise StoreEntryError(f"bad metrics record: {exc}") from exc
        return self._metrics

    def metrics_json(self) -> bytes:
        """The stored metrics object as JSON, keys sorted: for a record
        read from disk, the slice of its meta line that :func:`_dumps`
        wrote there, else (or if the line is not the
        ``{"loop_name":...,"metrics":...}`` that :func:`_dumps` writes
        for ``meta``) ``_dumps`` of the decoded metrics.  Call
        :meth:`metrics` first: it checks the field set."""
        line, meta = self._meta_line, self.meta
        if line is not None and meta.keys() == {"loop_name", "metrics"}:
            head = b'{"loop_name":' + _dumps(meta["loop_name"]) + b',"metrics":'
            if line.startswith(head) and line.endswith(b"}"):
                return line[len(head):-1]
        return _dumps(meta["metrics"])

    def payload(self) -> dict:
        if self._payload is None:
            self._payload = _loads(self._payload_raw, "payload")
        return self._payload

    # ------------------------------------------------------------------
    # hydration
    # ------------------------------------------------------------------
    def hydrate(self, loop: Loop, machine: "MachineDescription") -> "CompilationResult":
        """Rebuild a full :class:`CompilationResult` for ``loop``.

        ``loop`` must be the same content the entry was built from (its
        fingerprint is rechecked against the stored key); the returned
        result references the *caller's* loop instance.  Step 4 is
        re-run as a fresh compile runs it (see the module docstring).
        Any inconsistency raises :class:`StoreEntryError` so callers
        degrade to a recompile.
        """
        try:
            return self._hydrate(loop, machine)
        except StoreEntryError:
            raise
        except Exception as exc:
            raise StoreEntryError(f"entry does not hydrate: {exc!r}") from exc

    def _hydrate(self, loop: Loop, machine: "MachineDescription") -> "CompilationResult":
        from repro.core.copies import insert_copies
        from repro.core.pipeline import CompilationResult
        from repro.ddg.builder import build_loop_ddg, derive_partitioned_ddg
        from repro.ir.block import reserve_ids
        from repro.ir.parser import parse_loop
        from repro.machine.presets import ideal_machine
        from repro.sched.schedule import KernelSchedule
        from repro.sched.validate import validate_kernel_schedule

        if loop_fingerprint(loop) != self.key_json.get("loop"):
            raise StoreEntryError("entry was stored for a different loop")
        p = self.payload()

        def times_for(target: Loop, doc: dict) -> dict[int, int]:
            stored = doc["times"]
            if len(stored) != len(target.ops):
                raise StoreEntryError("schedule does not cover the loop")
            return {op.op_id: t for op, t in zip(target.ops, stored)}

        ideal_target = ideal_machine(width=machine.width, latencies=machine.latencies)
        ideal = KernelSchedule(
            machine=ideal_target, loop=loop, ii=p["ideal"]["ii"],
            times=times_for(loop, p["ideal"]),
        )
        ddg = build_loop_ddg(loop, machine.latencies)
        validate_kernel_schedule(ideal, ddg)
        if p["precopy"] is None:
            precopy, precopy_ddg = loop, ddg
        else:
            precopy = parse_loop(p["precopy"])
            precopy_ddg = build_loop_ddg(precopy, machine.latencies)
        partition = _hydrate_partition(p["partition"], precopy)

        # the caller's loop may come from another process (serve parses
        # request loops): mint the copies' ids past its own
        reserve_ids((precopy,))
        partitioned = insert_copies(precopy, partition, machine)
        if _copies_doc(partitioned) != p["copies"]:
            raise StoreEntryError("stored copies differ from the re-derived ones")
        partitioned_ddg = derive_partitioned_ddg(
            precopy_ddg, partitioned, machine.latencies
        )
        kernel = KernelSchedule(
            machine=machine, loop=partitioned.loop, ii=p["kernel"]["ii"],
            times=times_for(partitioned.loop, p["kernel"]),
        )
        validate_kernel_schedule(kernel, partitioned_ddg)

        bank_assignment = None
        if p.get("bank_assignment") is not None:
            from repro.regalloc.assignment import BankAssignments

            ba = p["bank_assignment"]
            rid_of = {r.name: rid for rid, r in partitioned.partition._registers.items()}
            bank_assignment = BankAssignments(
                success=True,
                unroll=ba["unroll"],
                physical={
                    (rid_of[name], replica): (bank, idx)
                    for name, replica, bank, idx in ba["physical"]
                },
                max_pressure=ba["max_pressure"],
            )

        return CompilationResult(
            loop=loop,
            machine=machine,
            ideal=ideal,
            ddg=ddg,
            rcg=None,
            partition=partition,
            partitioned=partitioned,
            kernel=kernel,
            partitioned_ddg=partitioned_ddg,
            metrics=self.metrics(),
            bank_assignment=bank_assignment,
            precopy_loop=precopy,
            store_hit=True,
        )
