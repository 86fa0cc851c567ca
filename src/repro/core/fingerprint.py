"""Input fingerprints for the artifact cache and the artifact store.

Both persistence layers key on *content*, never on identity: the
per-process :class:`~repro.core.cache.ArtifactCache` and the durable
:mod:`repro.store` derive their keys from the fingerprints defined
here.  Because the store is content-addressed, it is also what resumes
an interrupted evaluation: rerunning with the same store answers every
finished cell from disk.

The full identity of one compilation — what Section 6.2's observation
makes cacheable — is the five-part :class:`StoreKey`::

    (loop fp, latency fp, scheduler fp, machine-config fp, pipeline-knob fp)

Two compilations with equal keys produce equal results (the pipeline is
deterministic), so a :class:`StoreKey` digest can address a durable
store shared across runs, workers and machines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ir.block import Loop
from repro.ir.printer import format_loop
from repro.machine.latency import LatencyTable
from repro.machine.machine import MachineDescription

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import PipelineConfig


def loop_fingerprint(loop: Loop) -> str:
    """Stable content hash of a loop (name, body, boundary liveness).

    Memoized on the loop: six configurations key the cache with the same
    loop instance, and rendering + hashing the body text per lookup was a
    measurable slice of small-corpus evaluations.
    """
    fp = loop._fingerprint
    if fp is None:
        text = format_loop(loop)
        fp = hashlib.sha256(text.encode("utf-8")).hexdigest()
        loop._fingerprint = fp
    return fp


def latency_fingerprint(latencies: LatencyTable) -> tuple:
    """Order-independent fingerprint of a latency table.

    Memoized on the (frozen) table, like :func:`loop_fingerprint` on the
    loop: every cache lookup of every cell keys on it.
    """
    fp = latencies._fingerprint
    if fp is None:
        fp = tuple(sorted((cls.value, lat) for cls, lat in latencies.table.items()))
        object.__setattr__(latencies, "_fingerprint", fp)
    return fp


def scheduler_fingerprint(config: "PipelineConfig", width: int) -> tuple:
    """The scheduler knobs the ideal schedule depends on."""
    return (config.scheduler, config.budget_ratio, width)


def machine_fingerprint(machine: MachineDescription) -> tuple:
    """Everything a :class:`MachineDescription` contributes to a result.

    The latency table is fingerprinted separately (it is shared with the
    machine-independent ideal-schedule key), so this covers the cluster
    geometry, the copy mechanism and the bank capacity — plus the name,
    which flows verbatim into reported metrics.
    """
    return (
        machine.name,
        machine.n_clusters,
        machine.fus_per_cluster,
        machine.copy_model.value,
        machine.copy_ports_per_cluster,
        machine.n_buses,
        machine.regs_per_bank,
    )


def pipeline_fingerprint(config: "PipelineConfig") -> str:
    """Digest of every pipeline knob, via the config's stable dataclass
    ``repr`` (all fields are scalars/dataclasses with deterministic
    reprs).  Deliberately conservative: *any* knob change — including
    validation-only flags like ``run_check`` — keys a fresh compilation
    rather than risking a stale artifact."""
    return hashlib.sha256(repr(config).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Store keys
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StoreKeyPrefix:
    """The loop-independent four fifths of a :class:`StoreKey`.

    One evaluation compiles hundreds of loops against the same machine
    and pipeline configuration; computing these parts once per
    configuration keeps warm-path key derivation at one memoized loop
    hash per cell.  The prefix also holds the key's canonical JSON on
    either side of the loop fingerprint (``"loop"`` sorts between
    ``"latency"`` and ``"machine"``), so a key's JSON is one string
    concatenation.
    """

    latency_fp: tuple
    scheduler_fp: tuple
    machine_fp: tuple
    pipeline_fp: str
    json_head: str = field(init=False, repr=False, compare=False)
    json_tail: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        head = '{"latency":' + _dumps(self.latency_fp) + ',"loop":'
        tail = (
            ',"machine":' + _dumps(self.machine_fp)
            + ',"pipeline":' + _dumps(self.pipeline_fp)
            + ',"scheduler":' + _dumps(self.scheduler_fp) + "}"
        )
        object.__setattr__(self, "json_head", head)
        object.__setattr__(self, "json_tail", tail)


def key_prefix(machine: MachineDescription, config: "PipelineConfig") -> StoreKeyPrefix:
    return StoreKeyPrefix(
        latency_fp=latency_fingerprint(machine.latencies),
        scheduler_fp=scheduler_fingerprint(config, machine.width),
        machine_fp=machine_fingerprint(machine),
        pipeline_fp=pipeline_fingerprint(config),
    )


def _canonical(value) -> object:
    """Tuples -> lists, recursively, so fingerprints survive a JSON
    round-trip unchanged (revalidation compares the JSON forms)."""
    if isinstance(value, tuple):
        return [_canonical(v) for v in value]
    return value


def _dumps(value) -> str:
    return json.dumps(_canonical(value), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class StoreKey:
    """Full input fingerprint of one (loop, machine, pipeline) compilation."""

    loop_fp: str
    latency_fp: tuple
    scheduler_fp: tuple
    machine_fp: tuple
    pipeline_fp: str
    #: sha256 over :attr:`canonical_json` — the content address a
    #: :class:`~repro.store.DiskStore` files the entry under
    digest: str = ""
    #: the five parts as canonical JSON (sorted keys, no spaces, tuples
    #: as lists), the text the digest hashes
    canonical_json: str = ""

    def to_json(self) -> dict:
        """The five parts as a JSON dict, as entry headers store them."""
        return json.loads(self.canonical_json)


def store_key(
    loop: Loop,
    machine: MachineDescription,
    config: "PipelineConfig",
    prefix: StoreKeyPrefix | None = None,
) -> StoreKey:
    """Derive the five-part content key of one compilation."""
    if prefix is None:
        prefix = key_prefix(machine, config)
    loop_fp = loop_fingerprint(loop)
    text = prefix.json_head + '"' + loop_fp + '"' + prefix.json_tail
    return StoreKey(
        loop_fp=loop_fp,
        latency_fp=prefix.latency_fp,
        scheduler_fp=prefix.scheduler_fp,
        machine_fp=prefix.machine_fp,
        pipeline_fp=prefix.pipeline_fp,
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        canonical_json=text,
    )
