"""Self-describing serialization of one final compilation result.

One :class:`StoreEntry` is one (loop, machine, pipeline) compilation,
filed under its :class:`~repro.core.fingerprint.StoreKey` digest.  Its
record is three JSON lines::

    {"digest": ..., "key": {...}, "magic": "repro-store",
     "meta_sha256": ..., "payload_sha256": ..., "schema": 2}
    {"loop_name": ..., "metrics": {...}}
    {"ideal": {...}, "partitioned": {...}, "kernel": {...}, ...}

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

No live :class:`~repro.ir.operations.Operation` graph is ever pickled.
The source loop is not stored at all: hydration takes the caller's
loop, whose fingerprint is part of the key.  Derived loops are
serialized as :func:`~repro.ir.printer.format_loop` text and
rehydrated through :func:`~repro.ir.parser.parse_loop` (the same
round-trip ``repro check`` reproducers exercise), and schedules are
stored positionally over the loop's operation list, so entries are
stable across processes, platforms and interpreter versions.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.core.fingerprint import StoreKey, loop_fingerprint
from repro.core.results import LoopMetrics
from repro.ir.block import Loop
from repro.ir.printer import format_loop
from repro.ir.registers import SymbolicRegister

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.pipeline import CompilationResult
    from repro.machine.machine import MachineDescription

#: bump when the entry layout changes; readers reject other versions
SCHEMA_VERSION = 2

_MAGIC = "repro-store"

#: every record's first bytes: the header's keys sort ``digest`` first
RECORD_PREFIX = b'{"digest":"'


class StoreEntryError(ValueError):
    """An entry is corrupt, foreign, or from an incompatible schema."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dumps(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


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


def registers_by_name(loop: Loop) -> dict[str, SymbolicRegister]:
    """Every register a loop mentions (ops + boundary liveness), by name.

    Names are unique within a loop (the factory enforces it), so this is
    the bridge between serialized register references and the registers
    of a freshly parsed loop instance.
    """
    regs: dict[str, SymbolicRegister] = {}
    for reg in loop.live_in | loop.live_out:
        regs[reg.name] = reg
    for op in loop.ops:
        if op.dest is not None:
            regs[op.dest.name] = op.dest
        for src in op.used():
            regs[src.name] = src
    return regs


def _partition_doc(partition) -> dict:
    by_rid = dict(partition._registers)
    return {
        "n_banks": partition.n_banks,
        "banks": sorted(
            [by_rid[rid].name, bank] for rid, bank in partition.assignment.items()
        ),
    }


def _partitioned_doc(partitioned) -> tuple[dict, dict[int, SymbolicRegister]]:
    """A record's ``partitioned`` section, and the partitioned loop's
    registers by rid, memoised on the
    :class:`~repro.core.copies.PartitionedLoop`: the embedded and
    copy-unit cells of a cluster count share one (see
    :class:`~repro.core.cache.StepFourShare`), so the second record
    reuses the first one's serialization."""
    memo = partitioned._store_doc
    if memo is None:
        ploop = partitioned.loop
        p_index = {id(op): i for i, op in enumerate(ploop.ops)}
        p_by_rid = {r.rid: r for r in registers_by_name(ploop).values()}
        doc = {
            "loop": format_loop(ploop),
            "partition": _partition_doc(partitioned.partition),
            "body_copies": [p_index[id(cp)] for cp in partitioned.body_copies],
            "preheader_copies": sorted(
                [src.name, dst.name] for src, dst in partitioned.preheader_copies
            ),
            "copy_origin": sorted(
                [p_by_rid[rid].name, origin.name]
                for rid, origin in partitioned.copy_origin.items()
            ),
        }
        memo = partitioned._store_doc = (doc, p_by_rid)
    return memo


def _hydrate_partition(doc: dict, regs: dict[str, SymbolicRegister]):
    from repro.core.greedy import Partition

    partition = Partition(n_banks=doc["n_banks"])
    for name, bank in doc["banks"]:
        partition.assign(regs[name], bank)
    return partition


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
    ):
        self.digest = digest
        #: the key the entry is filed under, or its decoded JSON fields
        self._key = key
        self.meta = meta
        self._payload = payload
        self._payload_raw = payload_raw
        self._metrics: LoopMetrics | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, key: StoreKey, result: "CompilationResult") -> "StoreEntry":
        """Serialize a successful compilation under its content key."""
        loop = result.loop
        ploop = result.partitioned.loop
        partitioned, p_by_rid = _partitioned_doc(result.partitioned)

        precopy = result.precopy_loop
        payload: dict = {
            "ideal": {
                "ii": result.ideal.ii,
                "times": [result.ideal.times[op.op_id] for op in loop.ops],
            },
            "precopy": (
                None if precopy is None or precopy is loop else format_loop(precopy)
            ),
            "partition": _partition_doc(result.partition),
            "partitioned": partitioned,
            "kernel": {
                "ii": result.kernel.ii,
                "times": [result.kernel.times[op.op_id] for op in ploop.ops],
            },
            "bank_assignment": None,
        }
        ba = result.bank_assignment
        if ba is not None:
            payload["bank_assignment"] = {
                "unroll": ba.unroll,
                "max_pressure": ba.max_pressure,
                "physical": sorted(
                    [p_by_rid[rid].name, replica, bank, idx]
                    for (rid, replica), (bank, idx) in ba.physical.items()
                ),
            }
        meta = {
            "loop_name": loop.name,
            "metrics": result.metrics.to_dict(),
        }
        return cls(key.digest, key, meta, payload=payload)

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
        parts = data.split(b"\n")
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
        try:
            meta = json.loads(parts[1])
        except json.JSONDecodeError as exc:
            raise StoreEntryError(f"bad meta JSON: {exc}") from exc
        return cls(digest, key, meta, payload_raw=parts[2])

    @staticmethod
    def _parse_header(parts: list[bytes]) -> tuple[str, dict]:
        """(digest, key fields) of a record read without its key, after
        checking magic, schema and both checksums."""
        try:
            header = json.loads(parts[0])
        except json.JSONDecodeError as exc:
            raise StoreEntryError(f"bad header JSON: {exc}") from exc
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

    def payload(self) -> dict:
        if self._payload is None:
            try:
                self._payload = json.loads(self._payload_raw)
            except json.JSONDecodeError as exc:
                raise StoreEntryError(f"bad payload JSON: {exc}") from exc
        return self._payload

    # ------------------------------------------------------------------
    # hydration
    # ------------------------------------------------------------------
    def hydrate(self, loop: Loop, machine: "MachineDescription") -> "CompilationResult":
        """Rebuild a full :class:`CompilationResult` for ``loop``.

        ``loop`` must be the same content the entry was built from (its
        fingerprint is rechecked against the stored key); the returned
        result references the *caller's* loop instance, and every other
        artifact is reconstructed from serialized text — partitioned
        loop through the IR parser, schedules positionally, DDGs by
        rebuilding dependence analysis on the rehydrated loops.  Any
        inconsistency raises :class:`StoreEntryError` so callers degrade
        to a recompile.
        """
        try:
            return self._hydrate(loop, machine)
        except StoreEntryError:
            raise
        except Exception as exc:
            raise StoreEntryError(f"entry does not hydrate: {exc!r}") from exc

    def _hydrate(self, loop: Loop, machine: "MachineDescription") -> "CompilationResult":
        from repro.core.copies import PartitionedLoop
        from repro.core.pipeline import CompilationResult
        from repro.ddg.builder import build_loop_ddg
        from repro.ir.parser import parse_loop
        from repro.machine.presets import ideal_machine
        from repro.sched.schedule import KernelSchedule

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

        precopy = loop if p["precopy"] is None else parse_loop(p["precopy"])
        pre_regs = registers_by_name(precopy)
        partition = _hydrate_partition(p["partition"], pre_regs)

        pdoc = p["partitioned"]
        ploop = parse_loop(pdoc["loop"])
        p_regs = registers_by_name(ploop)
        partitioned = PartitionedLoop(
            loop=ploop,
            partition=_hydrate_partition(pdoc["partition"], p_regs),
            body_copies=[ploop.ops[i] for i in pdoc["body_copies"]],
            preheader_copies=[
                (p_regs[src], p_regs[dst]) for src, dst in pdoc["preheader_copies"]
            ],
            op_map={},
            copy_origin={
                p_regs[copy].rid: p_regs[origin]
                for copy, origin in pdoc["copy_origin"]
            },
        )
        kernel = KernelSchedule(
            machine=machine, loop=ploop, ii=p["kernel"]["ii"],
            times=times_for(ploop, p["kernel"]),
        )

        bank_assignment = None
        if p.get("bank_assignment") is not None:
            from repro.regalloc.assignment import BankAssignments

            ba = p["bank_assignment"]
            bank_assignment = BankAssignments(
                success=True,
                unroll=ba["unroll"],
                physical={
                    (p_regs[name].rid, replica): (bank, idx)
                    for name, replica, bank, idx in ba["physical"]
                },
                max_pressure=ba["max_pressure"],
            )

        return CompilationResult(
            loop=loop,
            machine=machine,
            ideal=ideal,
            ddg=build_loop_ddg(loop, machine.latencies),
            rcg=None,
            partition=partition,
            partitioned=partitioned,
            kernel=kernel,
            # built, not derived: the partitioned loop comes back from IR
            # text with no op_map or copy_for to derive it through
            partitioned_ddg=build_loop_ddg(ploop, machine.latencies),
            metrics=self.metrics(),
            bank_assignment=bank_assignment,
            precopy_loop=precopy,
            store_hit=True,
        )
