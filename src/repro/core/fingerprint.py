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
from dataclasses import dataclass
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
    """Order-independent fingerprint of a latency table."""
    return tuple(sorted((cls.value, lat) for cls, lat in latencies.table.items()))


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
    hash per cell.
    """

    latency_fp: tuple
    scheduler_fp: tuple
    machine_fp: tuple
    pipeline_fp: str


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


@dataclass(frozen=True)
class StoreKey:
    """Full input fingerprint of one (loop, machine, pipeline) compilation."""

    loop_fp: str
    latency_fp: tuple
    scheduler_fp: tuple
    machine_fp: tuple
    pipeline_fp: str
    #: sha256 over the canonical JSON of all five parts — the content
    #: address a :class:`~repro.store.DiskStore` files the entry under
    digest: str = ""

    def to_json(self) -> dict:
        """Canonical JSON form, stored in entries for revalidation."""
        return {
            "loop": self.loop_fp,
            "latency": _canonical(self.latency_fp),
            "scheduler": _canonical(self.scheduler_fp),
            "machine": _canonical(self.machine_fp),
            "pipeline": self.pipeline_fp,
        }


def store_key(
    loop: Loop,
    machine: MachineDescription,
    config: "PipelineConfig",
    prefix: StoreKeyPrefix | None = None,
) -> StoreKey:
    """Derive the five-part content key of one compilation."""
    if prefix is None:
        prefix = key_prefix(machine, config)
    parts = {
        "loop": loop_fingerprint(loop),
        "latency": _canonical(prefix.latency_fp),
        "scheduler": _canonical(prefix.scheduler_fp),
        "machine": _canonical(prefix.machine_fp),
        "pipeline": prefix.pipeline_fp,
    }
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return StoreKey(
        loop_fp=parts["loop"],
        latency_fp=prefix.latency_fp,
        scheduler_fp=prefix.scheduler_fp,
        machine_fp=prefix.machine_fp,
        pipeline_fp=prefix.pipeline_fp,
        digest=hashlib.sha256(blob.encode("utf-8")).hexdigest(),
    )
