"""Full hydration re-derives step 4 exactly as a fresh compile runs it.

A store record keeps the partitioned loop only as its copy list; full
hydration re-inserts the copies into the stored pre-copy loop, derives
the partitioned DDG from that loop's DDG and revalidates both stored
schedules.  These tests hold every hydrated artifact to the
fresh compile's: the partitioned loop's text and op-id order, both
partitions, the copies, the kernel times by position, the bank
assignment and the partitioned DDG's rows, on the quick-40 grid with and
without register allocation and on spilled cells of 6-register banks.
A record whose copies or schedules no longer match is refused on
hydration and recompiled as an invalid miss.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core.fingerprint import store_key
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.evalx.runner import PAPER_CONFIG_ORDER
from repro.ir.printer import format_loop
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.store import ArtifactStore, StoreEntry, StoreEntryError
from repro.workloads.corpus import spec95_corpus

from .conftest import build_daxpy, store_record


def _names(partition) -> dict[str, int]:
    regs = partition._registers
    return {regs[rid].name: bank for rid, bank in partition.assignment.items()}


def _ddg_rows(ddg) -> list[tuple]:
    """The DDG's rows with registers by name (copy rids are minted per
    process, so they differ between a fresh and a hydrated result)."""
    return [(*row[:5], None if row[5] is None else row[5].name) for row in ddg.rows]


def _observed(result) -> dict[str, object]:
    """Every step-4/5 artifact hydration rebuilds, in comparable form."""
    partitioned = result.partitioned
    ops = partitioned.loop.ops
    ba = result.bank_assignment
    regs = partitioned.partition._registers
    return {
        "precopy": format_loop(result.precopy_loop),
        "loop": format_loop(partitioned.loop),
        # the kernel listing orders each row by op id: a fresh compile
        # mints the copies after every clone
        "op_id_order": sorted(range(len(ops)), key=lambda i: ops[i].op_id),
        "partition": _names(result.partition),
        "partitioned_partition": _names(partitioned.partition),
        "body_copies": [(cp.sources[0].name, cp.dest.name, cp.cluster)
                        for cp in partitioned.body_copies],
        "preheader_copies": [(s.name, d.name) for s, d in partitioned.preheader_copies],
        "copy_origin": {regs[rid].name: origin.name
                        for rid, origin in partitioned.copy_origin.items()},
        "ideal": (result.ideal.ii, [result.ideal.times[op.op_id] for op in result.loop.ops]),
        "kernel": (result.kernel.ii, [result.kernel.times[op.op_id] for op in ops]),
        "bank_assignment": None if ba is None else (
            ba.unroll, ba.max_pressure,
            {(regs[rid].name, replica): slot for (rid, replica), slot in ba.physical.items()},
        ),
        "ddg": _ddg_rows(result.ddg),
        "partitioned_ddg": _ddg_rows(result.partitioned_ddg),
        "metrics": result.metrics,
    }


def _round_trip(result, machine, config):
    loop = result.loop
    key = store_key(loop, machine, config)
    entry = StoreEntry.from_bytes(StoreEntry.from_result(key, result).to_bytes(), key)
    return entry.hydrate(loop, machine)


@pytest.fixture(scope="module")
def quick40():
    return spec95_corpus(n=40)


@pytest.mark.parametrize("regalloc", [False, True], ids=["plain", "regalloc"])
def test_quick40_cells_hydrate_to_the_fresh_compile(quick40, regalloc):
    config = PipelineConfig(run_regalloc=regalloc)
    cells = 0
    for n_clusters, model in PAPER_CONFIG_ORDER:
        machine = paper_machine(n_clusters, model)
        for loop in quick40:
            fresh = compile_loop(loop, machine, config)
            hydrated = _round_trip(fresh, machine, config)
            assert hydrated.store_hit and hydrated.loop is loop
            assert _observed(hydrated) == _observed(fresh), (loop.name, machine.name)
            cells += 1
    assert cells == 40 * len(PAPER_CONFIG_ORDER)


def test_spilled_cells_hydrate_to_the_fresh_compile(quick40):
    """A spill round stores its rewritten pre-copy loop as text; copies
    are re-inserted into the parsed loop."""
    config = PipelineConfig(run_regalloc=True)
    spilled = 0
    for n_clusters, model in PAPER_CONFIG_ORDER:
        machine = dataclasses.replace(paper_machine(n_clusters, model), regs_per_bank=6)
        for loop in quick40[:12]:
            try:
                fresh = compile_loop(loop, machine, config)
            except RuntimeError:
                continue  # spilling did not converge within the round limit
            if fresh.precopy_loop is loop:
                continue
            hydrated = _round_trip(fresh, machine, config)
            assert hydrated.precopy_loop is not loop
            assert _observed(hydrated) == _observed(fresh), (loop.name, machine.name)
            spilled += 1
    assert spilled > 0


def _tampered(tmp_path, edit):
    """A cold-stored daxpy cell whose payload ``edit`` rewrites, with the
    checksums recomputed so the record still decodes."""
    machine = paper_machine(4, CopyModel.EMBEDDED)
    config = PipelineConfig(run_regalloc=True)
    store = ArtifactStore.open(tmp_path / "store")
    fresh = compile_loop(build_daxpy(), machine, config, store=store)
    key = store_key(fresh.loop, machine, config)
    path, start, end = store_record(store.disk, key.digest)
    data = path.read_bytes()
    entry = StoreEntry.from_bytes(data[start:end], key)
    payload = json.loads(json.dumps(entry.payload()))
    edit(payload)
    record = StoreEntry(key.digest, key, entry.meta, payload=payload).to_bytes()
    path.write_bytes(data[:start] + record + data[end:])
    return machine, config, fresh, tmp_path / "store"


def _reverse(schedule):
    def edit(payload):
        times = payload[schedule]["times"]
        assert times != times[::-1]
        times.reverse()
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(lambda p: p["copies"].append(["f1", 0]), id="extra-copy"),
    pytest.param(lambda p: p["copies"].pop(), id="missing-copy"),
    pytest.param(lambda p: p["copies"][0].__setitem__(1, (p["copies"][0][1] + 1) % 4),
                 id="foreign-cluster"),
    pytest.param(_reverse("kernel"), id="permuted-kernel"),
    pytest.param(_reverse("ideal"), id="permuted-ideal"),
])
def test_tampered_record_is_refused_and_recompiled(tmp_path, edit):
    machine, config, fresh, root = _tampered(tmp_path, edit)
    key = store_key(fresh.loop, machine, config)
    entry = ArtifactStore.open(root).lookup(key)
    assert entry is not None  # the record decodes: checksums match
    with pytest.raises(StoreEntryError):
        entry.hydrate(build_daxpy(), machine)

    store = ArtifactStore.open(root)
    again = compile_loop(build_daxpy(), machine, config, store=store)
    assert not again.store_hit
    assert (store.stats.invalid, store.stats.misses, store.stats.writes) == (1, 1, 1)
    assert _observed(again) == _observed(fresh)
    healed = compile_loop(build_daxpy(), machine, config, store=ArtifactStore.open(root))
    assert healed.store_hit
