"""Unit tests for the durable artifact store (repro.store).

Covers the entry wire format (round-trip, corruption detection), the
on-disk tier (atomicity, concurrent writers, gc, verify) and the tiered
store's lookup semantics (L1/L2 accounting, key revalidation, invalid
entries degrading to misses).
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import pathlib

import pytest

from repro.core.fingerprint import key_prefix, store_key
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.ir.printer import format_loop
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.store import (
    SCHEMA_VERSION,
    ArtifactStore,
    DiskStore,
    StoreEntry,
    StoreEntryError,
    StoreFormatError,
    StoreStats,
)
from repro.workloads.corpus import spec95_corpus

from .conftest import build_daxpy, store_record

CONFIG = PipelineConfig()


@pytest.fixture
def machine():
    return paper_machine(4, CopyModel.EMBEDDED)


@pytest.fixture
def compiled(machine):
    loop = build_daxpy()
    return loop, compile_loop(loop, machine, CONFIG)


# ----------------------------------------------------------------------
# Store keys
# ----------------------------------------------------------------------


def test_store_key_is_stable_and_config_sensitive(machine):
    loop = build_daxpy()
    k1 = store_key(loop, machine, CONFIG)
    k2 = store_key(build_daxpy(), machine, CONFIG)
    assert k1.digest == k2.digest  # content, not identity

    other_cfg = store_key(loop, machine, PipelineConfig(budget_ratio=13))
    other_mach = store_key(loop, paper_machine(2, CopyModel.EMBEDDED), CONFIG)
    other_model = store_key(loop, paper_machine(4, CopyModel.COPY_UNIT), CONFIG)
    digests = {k1.digest, other_cfg.digest, other_mach.digest, other_model.digest}
    assert len(digests) == 4

    # the precomputed prefix path derives the identical key
    prefix = key_prefix(machine, CONFIG)
    assert store_key(loop, machine, CONFIG, prefix=prefix) == k1


def test_key_json_round_trips_canonically(machine):
    key = store_key(build_daxpy(), machine, CONFIG)
    doc = json.loads(json.dumps(key.to_json()))
    from repro.store.tiered import digest_of_key_json

    assert digest_of_key_json(doc) == key.digest


def test_store_key_digest_is_pinned(machine):
    """Keys are assembled from per-prefix JSON strings; the content
    address must stay what hashing the whole key's JSON gives."""
    key = store_key(build_daxpy(), machine, CONFIG)
    assert key.digest == (
        "f37f417ebe6cbfc862e5769bf68521841e30a24f302d767447a2a13ee67b5d5a"
    )


def test_metrics_to_dict_equals_asdict():
    """Entry meta lines and serve ``cell`` messages use the shallow
    helper; it must give ``asdict``'s dict, key order included."""
    from repro.evalx.runner import run_evaluation

    run = run_evaluation(spec95_corpus(n=8), config=CONFIG)
    cells = [m for metrics in run.per_config.values() for m in metrics]
    assert len(cells) == 48
    for m in cells:
        assert list(m.to_dict().items()) == list(dataclasses.asdict(m).items())


def test_metrics_from_dict_inverts_to_dict():
    """The warm path's ``from_dict`` rebuilds an equal, still frozen
    record from a JSON round trip, and rejects a missing or an extra
    field as the dataclass constructor would."""
    from repro.core.results import LoopMetrics
    from repro.evalx.runner import run_evaluation

    run = run_evaluation(spec95_corpus(n=2), config=CONFIG)
    for m in (m for metrics in run.per_config.values() for m in metrics):
        doc = json.loads(json.dumps(m.to_dict(), sort_keys=True))
        back = LoopMetrics.from_dict(doc)
        assert back == LoopMetrics(**doc) == m
        assert list(back.to_dict().items()) == list(m.to_dict().items())
        assert repr(back) == repr(m)
        with pytest.raises(dataclasses.FrozenInstanceError):
            back.n_ops = 0
        for bad in ({k: v for k, v in doc.items() if k != "n_ops"}, {**doc, "extra": 1}):
            with pytest.raises(TypeError):
                LoopMetrics.from_dict(bad)
    with pytest.raises(TypeError):
        LoopMetrics.from_dict(["n_ops"])


# ----------------------------------------------------------------------
# Entry wire format
# ----------------------------------------------------------------------


def test_entry_round_trip_metrics_and_full_hydration(compiled, machine):
    loop, result = compiled
    key = store_key(loop, machine, CONFIG)
    entry = StoreEntry.from_bytes(StoreEntry.from_result(key, result).to_bytes())

    # metrics fast path: no payload parse needed
    assert entry.metrics() == result.metrics
    assert entry.loop_name == loop.name

    hyd = entry.hydrate(loop, machine)
    assert hyd.store_hit
    assert hyd.loop is loop  # caller's instance, not a reparse
    assert hyd.metrics == result.metrics
    assert hyd.ideal.ii == result.ideal.ii
    assert hyd.ideal.format() == result.ideal.format()
    assert hyd.kernel.ii == result.kernel.ii
    assert hyd.kernel.format() == result.kernel.format()
    assert format_loop(hyd.partitioned.loop) == format_loop(result.partitioned.loop)

    def banks_by_name(partition):
        regs = dict(partition._registers)
        return {regs[rid].name: b for rid, b in partition.assignment.items()}

    assert banks_by_name(hyd.partition) == banks_by_name(result.partition)
    assert banks_by_name(hyd.partitioned.partition) == banks_by_name(
        result.partitioned.partition
    )
    assert hyd.partitioned.n_body_copies == result.partitioned.n_body_copies
    assert (
        hyd.partitioned.n_preheader_copies == result.partitioned.n_preheader_copies
    )
    if result.bank_assignment is not None:
        assert hyd.bank_assignment.unroll == result.bank_assignment.unroll
        assert (
            hyd.bank_assignment.max_pressure == result.bank_assignment.max_pressure
        )
        assert len(hyd.bank_assignment.physical) == len(
            result.bank_assignment.physical
        )


def test_entry_rejects_wrong_loop(compiled, machine):
    loop, result = compiled
    key = store_key(loop, machine, CONFIG)
    entry = StoreEntry.from_result(key, result)
    other = spec95_corpus()[0]
    with pytest.raises(StoreEntryError):
        entry.hydrate(other, machine)


def test_corrupt_entries_raise(compiled, machine):
    loop, result = compiled
    key = store_key(loop, machine, CONFIG)
    raw = StoreEntry.from_result(key, result).to_bytes()

    # truncation (drop the payload line)
    with pytest.raises(StoreEntryError, match="truncated"):
        StoreEntry.from_bytes(b"\n".join(raw.split(b"\n")[:2]))

    # single bit flip anywhere in meta or payload trips a checksum
    lines = raw.split(b"\n")
    for lineno in (1, 2):
        flipped = list(lines)
        line = bytearray(flipped[lineno])
        line[len(line) // 2] ^= 0x01
        flipped[lineno] = bytes(line)
        with pytest.raises(StoreEntryError, match="checksum"):
            StoreEntry.from_bytes(b"\n".join(flipped))

    # wrong schema version
    header = json.loads(lines[0])
    header["schema"] = SCHEMA_VERSION + 1
    bad = b"\n".join([json.dumps(header).encode()] + lines[1:])
    with pytest.raises(StoreEntryError, match="schema"):
        StoreEntry.from_bytes(bad)

    # not an entry at all
    with pytest.raises(StoreEntryError):
        StoreEntry.from_bytes(b'{"some": "json"}\n{}\n{}\n')


def _store_cells(store: ArtifactStore, cells: str) -> None:
    """Compile ``cells`` into ``store``: daxpy on one machine, quick-40 x 6
    through the runner with and without register allocation (loop-major,
    so the encoder reuses the fragments a loop's cells share), or 12
    corpus loops x 6 with register allocation on 6-register banks, where
    some cells run a spill round."""
    from repro.core.cache import ArtifactCache
    from repro.evalx.runner import PAPER_CONFIG_ORDER, run_evaluation

    if cells == "daxpy":
        compile_loop(build_daxpy(), paper_machine(4, CopyModel.EMBEDDED), CONFIG,
                     store=store)
    elif cells == "spill":
        config = PipelineConfig(run_regalloc=True)
        machines = [dataclasses.replace(paper_machine(n, model), regs_per_bank=6)
                    for n, model in PAPER_CONFIG_ORDER]
        cache = ArtifactCache()
        for loop in spec95_corpus(n=12):
            for machine in machines:
                try:
                    compile_loop(loop, machine, config, cache=cache, store=store)
                except RuntimeError:
                    continue  # spilling did not converge within the round limit
    else:
        config = PipelineConfig(run_regalloc=cells == "quick40-regalloc")
        run_evaluation(spec95_corpus(n=40), config=config, store=store)


def test_record_lines_are_json_dumps_bytes(tmp_path, monkeypatch):
    """The shared encoder writes what ``json.dumps(sort_keys=True,
    separators=(",", ":"))`` writes, so records keep their bytes: every
    stored cell's record equals the one the whole-record oracle encodes,
    and its payload round-trips through both encoders unchanged."""
    from repro.store.entry import _dumps

    from .golden import _reference_record_bytes

    stored: list[tuple] = []
    put_result = ArtifactStore.put_result

    def recording_put(self, key, result):
        entry = put_result(self, key, result)
        stored.append((key, result, entry))
        return entry

    monkeypatch.setattr(ArtifactStore, "put_result", recording_put)
    for cells in ("daxpy", "quick40-plain", "quick40-regalloc", "spill"):
        stored.clear()
        _store_cells(ArtifactStore.open(tmp_path / cells), cells)
        if cells == "spill":
            stored[:] = [c for c in stored if c[1].precopy_loop is not c[1].loop]
            assert stored, "no cell ran a spill round"
        elif cells != "daxpy":
            assert len(stored) == 40 * len(PAPER_MACHINES), cells
        for key, result, entry in stored:
            assert entry.to_bytes() == _reference_record_bytes(key, result), (
                cells, key.digest)
            for doc in (entry.meta, entry.payload()):
                assert _dumps(doc) == json.dumps(
                    doc, sort_keys=True, separators=(",", ":")).encode()
    doc = {"f": [1.5, -0.0, 1e-7], "u": "\u00e9"}
    assert _dumps(doc) == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def test_keyed_decode_matches_full_parse(compiled, machine):
    """Given its key, ``from_bytes`` compares the header bytes instead of
    parsing them yet decodes the same entry, and still rejects a foreign
    key, another magic or schema and either checksum."""
    loop, result = compiled
    key = store_key(loop, machine, CONFIG)
    raw = StoreEntry.from_result(key, result).to_bytes()
    full, keyed = StoreEntry.from_bytes(raw), StoreEntry.from_bytes(raw, key)
    assert (keyed.digest, keyed.key_json, keyed.meta, keyed.to_bytes()) == (
        full.digest, full.key_json, full.meta, full.to_bytes()
    )

    other = store_key(loop, paper_machine(2, CopyModel.COPY_UNIT), CONFIG)
    with pytest.raises(StoreEntryError, match="does not match the key"):
        StoreEntry.from_bytes(raw, other)
    lines = raw.split(b"\n")
    for old, new in ((b'"magic":"repro-store"', b'"magic":"other"'),
                     (b'"schema":%d' % SCHEMA_VERSION, b'"schema":0'),
                     (b'"meta_sha256":"', b'"meta_sha256":"0'),
                     (b'"payload_sha256":"', b'"payload_sha256":"0')):
        bad = b"\n".join([lines[0].replace(old, new)] + lines[1:])
        assert bad != raw
        with pytest.raises(StoreEntryError):
            StoreEntry.from_bytes(bad, key)


# ----------------------------------------------------------------------
# Disk tier
# ----------------------------------------------------------------------


def test_disk_store_refuses_foreign_directory(tmp_path):
    foreign = tmp_path / "foreign"
    foreign.mkdir()
    (foreign / "notes.txt").write_text("precious data")
    with pytest.raises(StoreFormatError, match="no store marker"):
        DiskStore(foreign)
    assert (foreign / "notes.txt").exists()  # untouched

    # empty/nonexistent roots are initialised; reopening works
    root = tmp_path / "store"
    DiskStore(root)
    DiskStore(root)


def test_disk_store_rejects_future_schema(tmp_path):
    """A root of another schema is refused, not migrated: a future one,
    and schema 2, whose records carry the partitioned loop as text."""
    root = tmp_path / "store"
    DiskStore(root)
    marker = root / "repro-store.json"
    for schema in (99, 2):
        marker.write_text(json.dumps({"format": "repro-store", "schema": schema}))
        with pytest.raises(StoreFormatError,
                           match=f"store schema {schema}, this build speaks 3"):
            DiskStore(root)


def test_disk_store_gc(tmp_path, compiled, machine):
    loop, result = compiled
    disk = DiskStore(tmp_path / "store")
    key = store_key(loop, machine, CONFIG)
    entry = StoreEntry.from_result(key, result)
    keys = _synthetic_keys(key, 5)
    digests = [k.digest for k in keys]
    for i, k in enumerate(keys):
        disk.put(k, entry)
        # widen the mtime spread so retention order is deterministic
        path = disk._path_for(k)
        os.utime(path, (1000 + i, 1000 + i))

    removed = disk.gc(max_entries=2)
    assert sorted(removed) == sorted(digests[:3])  # oldest three dropped
    assert sorted(disk.digests()) == sorted(digests[3:])

    removed = disk.gc(max_age_days=1e-9)  # everything is ancient
    assert sorted(removed) == sorted(digests[3:])
    assert disk.digests() == []


@pytest.mark.parametrize("limits", [
    {"max_entries": -1},
    {"max_age_days": -1.0},
    {"max_age_days": float("nan")},
    {"max_age_days": float("inf")},
])
def test_disk_store_gc_rejects_bad_limits(tmp_path, compiled, machine, limits):
    """A negative count or a negative / non-finite age is an error, not
    a limit: ``survivors[: len - (-1)]`` used to delete every entry."""
    disk, digests = _three_entry_store(tmp_path, compiled, machine)
    with pytest.raises(ValueError):
        disk.gc(**limits)
    assert sorted(disk.digests()) == digests


def test_disk_store_gc_zero_entries_drops_everything(tmp_path, compiled, machine):
    disk, digests = _three_entry_store(tmp_path, compiled, machine)
    assert sorted(disk.gc(max_entries=0)) == digests
    assert disk.digests() == []


def _synthetic_keys(key, n):
    """``n`` keys with made-up digests, each in a loop file of its own."""
    digests = [f"{i:02x}" + "0" * 62 for i in range(n)]
    return [dataclasses.replace(key, loop_fp=d, digest=d) for d in digests]


def _three_entry_store(tmp_path, compiled, machine):
    loop, result = compiled
    disk = DiskStore(tmp_path / "store")
    key = store_key(loop, machine, CONFIG)
    entry = StoreEntry.from_result(key, result)
    keys = _synthetic_keys(key, 3)
    for k in keys:
        disk.put(k, entry)
    return disk, [k.digest for k in keys]


def test_disk_store_gc_spares_concurrently_rewritten_entry(
    tmp_path, compiled, machine, monkeypatch
):
    """Regression for the stat→delete race: gc judges an entry stale,
    a concurrent writer's ``os.replace`` lands before the unlink, and
    gc used to delete the freshly rewritten entry anyway.  The deletion
    now recounts the mtime and keeps anything rewritten since."""
    loop, result = compiled
    disk = DiskStore(tmp_path / "store")
    key = store_key(loop, machine, CONFIG)
    entry = StoreEntry.from_result(key, result)
    keys = _synthetic_keys(key, 4)
    digests = [k.digest for k in keys]
    for i, k in enumerate(keys):
        disk.put(k, entry)
        os.utime(disk._path_for(k), (1000 + i, 1000 + i))
    victim = digests[0]

    real_remove = DiskStore._remove_stale

    def racing_remove(self, path, condemned, seen_mtime_ns):
        if victim in condemned:
            # the concurrent writer wins the race: the entry is
            # rewritten (an append, fresh mtime) between gc's stat
            # and its deletion attempt
            self.put(keys[0], entry)
        return real_remove(self, path, condemned, seen_mtime_ns)

    monkeypatch.setattr(DiskStore, "_remove_stale", racing_remove)
    removed = disk.gc(max_age_days=1e-9)  # everything looks ancient

    # the rewritten entry survives and is not reported as removed;
    # the genuinely stale ones are gone
    assert victim not in removed
    assert sorted(removed) == sorted(digests[1:])
    assert disk.digests() == [victim]
    assert disk.get(keys[0]) is not None


def test_disk_verify_flags_corruption_and_mislabeled_entries(
    tmp_path, compiled, machine
):
    loop, result = compiled
    disk = DiskStore(tmp_path / "store")
    key = store_key(loop, machine, CONFIG)
    entry = StoreEntry.from_result(key, result)
    disk.put(key, entry)
    assert disk.verify().ok

    # filed under a digest its key does not hash to
    wrong = "f" * 64
    disk.put(dataclasses.replace(key, digest=wrong), entry)
    report = disk.verify()
    assert [d for d, _ in report.bad] == [wrong]
    assert "content address" in str(disk.stats()) or True  # stats still works

    # bit-flip the real entry too
    path, start, end = store_record(disk, key.digest)
    blob = bytearray(path.read_bytes())
    blob[(start + end) // 2] ^= 0x01
    path.write_bytes(bytes(blob))
    report = disk.verify()
    assert {d for d, _ in report.bad} == {wrong, key.digest}


def _race_writer(store_path: str, barrier, out):
    """Worker for the concurrent-write race: everyone writes the same key."""
    from repro.core.fingerprint import store_key as sk
    from repro.core.pipeline import PipelineConfig as PC
    from repro.core.pipeline import compile_loop as cl
    from repro.machine.machine import CopyModel as CM
    from repro.machine.presets import paper_machine as pm
    from repro.store import ArtifactStore

    from tests.conftest import build_daxpy as bd

    loop = bd()
    machine = pm(4, CM.EMBEDDED)
    config = PC()
    result = cl(loop, machine, config)
    store = ArtifactStore.open(store_path)
    key = sk(loop, machine, config)
    barrier.wait(timeout=60)  # maximise write overlap
    for _ in range(20):
        store.put_result(key, result)
        got = store.disk.get(key)  # bypass L1: force a disk read
        out.put(got is not None and got.metrics() == result.metrics)


def test_concurrent_writers_never_expose_partial_entries(tmp_path):
    """Two processes hammering the same key: every read sees a complete,
    checksum-valid entry (atomic temp+rename, deterministic content)."""
    ctx = multiprocessing.get_context("spawn")
    store_path = str(tmp_path / "store")
    ArtifactStore.open(store_path)  # initialise the root once
    barrier = ctx.Barrier(2)
    out = ctx.Queue()
    procs = [
        ctx.Process(target=_race_writer, args=(store_path, barrier, out))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    results = [out.get(timeout=10) for _ in range(40)]
    assert all(results)
    # and the survivor is intact
    assert DiskStore(store_path).verify().ok


def _append_writer(store_path: str, n_clusters: int, barrier, out):
    """Worker for the append race: each process writes its own key of
    one loop."""
    from repro.core.fingerprint import store_key as sk
    from repro.core.pipeline import PipelineConfig as PC
    from repro.core.pipeline import compile_loop as cl
    from repro.machine.machine import CopyModel as CM
    from repro.machine.presets import paper_machine as pm
    from repro.store import ArtifactStore

    from tests.conftest import build_daxpy as bd

    loop = bd()
    machine = pm(n_clusters, CM.EMBEDDED)
    config = PC()
    result = cl(loop, machine, config)
    store = ArtifactStore.open(store_path)
    key = sk(loop, machine, config)
    barrier.wait(timeout=60)
    for _ in range(20):
        store.put_result(key, result)
        got = store.disk.get(key)
        out.put(got is not None and got.metrics() == result.metrics)


def test_concurrent_appends_to_one_loop_file_stay_valid(tmp_path):
    """Three processes (more than this suite's two cores) appending
    different keys of one loop: no record is lost or interleaved, and
    every one of them verifies."""
    ctx = multiprocessing.get_context("spawn")
    store_path = str(tmp_path / "store")
    ArtifactStore.open(store_path)
    barrier = ctx.Barrier(3)
    out = ctx.Queue()
    procs = [
        ctx.Process(target=_append_writer, args=(store_path, n, barrier, out))
        for n in (2, 4, 8)
    ]
    for p in procs:
        p.start()
    # drain before joining: a writer blocks on a full queue otherwise
    assert all(out.get(timeout=120) for _ in range(60))
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    disk = DiskStore(store_path)
    [loop_file] = disk.loop_files()
    assert loop_file.read_bytes().count(b'\n{"digest":"') == 60
    report = disk.verify()
    assert report.ok and report.checked == 3


PAPER_MACHINES = [
    paper_machine(n, model)
    for n in (2, 4, 8) for model in (CopyModel.EMBEDDED, CopyModel.COPY_UNIT)
]


def test_truncated_loop_file_costs_one_invalid_miss(tmp_path):
    """A loop file cut mid-record: the torn cell is one invalid miss
    and one rewrite, the loop's other cells still hit (one file read),
    and the store verifies afterwards."""
    path = tmp_path / "store"
    store = ArtifactStore.open(path)
    for machine in PAPER_MACHINES:
        compile_loop(build_daxpy(), machine, CONFIG, store=store)
    [loop_file] = store.disk.loop_files()
    data = loop_file.read_bytes()
    last = data.rfind(b'\n{"digest":"') + 1  # the last config's record
    loop_file.write_bytes(data[: (last + len(data)) // 2])

    fresh = ArtifactStore.open(path)
    results = [
        compile_loop(build_daxpy(), machine, CONFIG, store=fresh,
                     store_hydrate="metrics")
        for machine in PAPER_MACHINES
    ]
    assert [r.store_hit for r in results] == [True] * 5 + [False]
    s = fresh.stats
    assert (s.hits_l2, s.hits_l1, s.misses, s.invalid, s.writes) == (1, 4, 1, 1, 1)
    assert fresh.disk.verify().ok
    assert len(fresh.disk) == 6


def _daxpy_cells(n: int = 3) -> list[tuple]:
    """(key, result) of daxpy compiled on the first ``n`` paper machines:
    cells of one loop file."""
    loop = build_daxpy()
    return [(store_key(loop, m, CONFIG), compile_loop(loop, m, CONFIG))
            for m in PAPER_MACHINES[:n]]


def _count_opens(monkeypatch) -> list:
    """Record every path opened through ``os.open`` or ``io.open`` (which
    ``pathlib`` reads through) from now on."""
    import io

    opened: list = []
    for module in (os, io):
        real = module.open

        def counting(path, *args, _real=real, **kwargs):
            opened.append(path)
            return _real(path, *args, **kwargs)

        monkeypatch.setattr(module, "open", counting)
    return opened


def test_miss_on_a_stamped_loop_file_opens_no_file(tmp_path, monkeypatch):
    """Once this store found a loop file absent, or appended to it, a
    miss on that loop is one ``stat``: the file is not read back."""
    (k0, r0), (k1, _r1), (k2, _r2) = _daxpy_cells()
    store = ArtifactStore.open(tmp_path / "store")
    opened = _count_opens(monkeypatch)
    assert store.lookup(k0) is None  # the one read: the file is absent
    assert len(opened) == 1
    assert store.lookup(k1) is None
    assert len(opened) == 1
    store.put_result(k0, r0)
    assert len(opened) == 2  # the append
    assert store.lookup(k1) is None and store.lookup(k2) is None
    assert len(opened) == 2
    assert store.lookup(k0) is not None
    s = store.stats
    assert (s.hits_l1, s.hits_l2, s.misses, s.invalid, s.writes) == (1, 0, 4, 0, 1)


def test_record_appended_by_another_store_is_a_hit(tmp_path):
    (k0, r0), (k1, r1), (k2, r2), (k3, r3) = _daxpy_cells(4)
    first = ArtifactStore.open(tmp_path / "store")
    second = ArtifactStore.open(tmp_path / "store")
    assert first.lookup(k0) is None
    first.put_result(k0, r0)
    assert first.lookup(k1) is None  # stamped: a plain miss
    second.put_result(k1, r1)  # the append moves the file's size
    assert first.lookup(k1) is not None
    # an append by the other store just before this store's own: the
    # file grew by more than this store wrote, so its stamp is dropped
    assert first.lookup(k2) is None
    second.put_result(k3, r3)
    first.put_result(k2, r2)
    assert first.lookup(k3) is not None
    assert (first.stats.hits_l2, first.stats.misses) == (2, 3)


def test_record_deleted_or_rewritten_by_another_store_is_read_again(
    tmp_path, monkeypatch
):
    (k0, r0), (k1, r1), (k2, r2), (k3, r3) = _daxpy_cells(4)
    first = ArtifactStore.open(tmp_path / "store")
    second = ArtifactStore.open(tmp_path / "store")
    opened = _count_opens(monkeypatch)
    assert first.lookup(k0) is None
    first.put_result(k0, r0)
    first.put_result(k1, r1)
    assert first.lookup(k2) is None  # stamped
    # rewritten: a new file (another inode) holding k1 and k2
    second.put_result(k2, r2)
    second.invalidate(k0)
    opened.clear()
    assert first.lookup(k2) is not None
    assert len(opened) == 1
    # deleted: the file is gone, so a miss reads again and finds it absent
    second.invalidate(k1)
    second.invalidate(k2)
    assert not second.disk.loop_files()
    opened.clear()
    assert first.lookup(k3) is None
    assert len(opened) == 1
    second.put_result(k3, r3)  # recreated after first found it absent
    opened.clear()
    assert first.lookup(k3) is not None
    assert len(opened) == 1
    s = first.stats
    assert (s.hits_l2, s.misses, s.invalid) == (2, 3, 0)


def test_torn_record_in_a_stamped_file_costs_one_invalid_miss(tmp_path):
    """A miss stamps the file with its torn digests, so a lookup of the
    torn one still reads the file, counts it invalid and rewrites it."""
    path = tmp_path / "store"
    store = ArtifactStore.open(path)
    for machine in PAPER_MACHINES:
        compile_loop(build_daxpy(), machine, CONFIG, store=store)
    [loop_file] = store.disk.loop_files()
    data = loop_file.read_bytes()
    last = data.rfind(b'\n{"digest":"') + 1  # the last config's record
    loop_file.write_bytes(data[: (last + len(data)) // 2])

    fresh = ArtifactStore.open(path)
    other = PipelineConfig(budget_ratio=13)  # same loop, so the same file
    assert fresh.lookup(store_key(build_daxpy(), PAPER_MACHINES[0], other)) is None
    torn = store_key(build_daxpy(), PAPER_MACHINES[-1], CONFIG)
    assert fresh.lookup(torn) is None
    s = fresh.stats
    assert (s.hits_l1, s.hits_l2, s.misses, s.invalid) == (0, 0, 2, 1)
    assert fresh.disk.verify().ok and len(fresh.disk) == 5
    compile_loop(build_daxpy(), PAPER_MACHINES[-1], CONFIG, store=fresh)
    assert fresh.stats.writes == 1 and len(fresh.disk) == 6


def test_l1_eviction_drops_the_stamps(tmp_path):
    """A stamp vouches that L1 holds every record of its file; once L1
    evicts one, a lookup of it reads the file again and hits."""
    (k0, r0), (k1, r1), (k2, r2) = _daxpy_cells()
    store = ArtifactStore.open(tmp_path / "store", l1_capacity=2)
    assert store.lookup(k0) is None
    for key, result in ((k0, r0), (k1, r1), (k2, r2)):
        store.put_result(key, result)
    assert store.stats.evictions == 1  # k0 fell out of L1
    assert store.lookup(k0) is not None
    assert (store.stats.hits_l2, store.stats.misses) == (1, 1)


def test_cold_store_holds_one_file_per_loop(tmp_path):
    from repro.evalx.runner import run_evaluation

    n = 4
    store = ArtifactStore.open(tmp_path / "store")
    run_evaluation(spec95_corpus(n=n), config=CONFIG, store=store)
    assert len(store.disk.loop_files()) == n
    assert len(list((tmp_path / "store" / "objects").iterdir())) == n
    stats = store.disk.stats()
    assert (stats.files, stats.entries) == (n, 6 * n)


# ----------------------------------------------------------------------
# Tiered store
# ----------------------------------------------------------------------


def test_tiered_lookup_accounting_and_l1(tmp_path, compiled, machine):
    loop, result = compiled
    store = ArtifactStore.open(tmp_path / "store")
    key = store_key(loop, machine, CONFIG)

    assert store.lookup(key) is None
    store.put_result(key, result)
    assert store.lookup(key) is not None  # L1 (put populates it)
    assert (store.stats.hits_l1, store.stats.hits_l2, store.stats.misses) == (1, 0, 1)

    fresh = ArtifactStore.open(tmp_path / "store")  # cold L1
    assert fresh.lookup(key) is not None
    assert (fresh.stats.hits_l1, fresh.stats.hits_l2) == (0, 1)
    assert fresh.lookup(key) is not None  # now cached in L1
    assert (fresh.stats.hits_l1, fresh.stats.hits_l2) == (1, 1)
    assert fresh.stats.hit_rate == 1.0


def test_tiered_l1_capacity_evicts_lru(tmp_path, compiled, machine):
    loop, result = compiled
    store = ArtifactStore.open(tmp_path / "store", l1_capacity=2)
    keys = []
    for br in (12, 13, 14):
        cfg = PipelineConfig(budget_ratio=br)
        keys.append(store_key(loop, machine, cfg))
        store.put_result(keys[-1], compile_loop(loop, machine, cfg))
    assert store.stats.evictions == 1  # first key fell out of L1
    assert store.lookup(keys[0]) is not None
    assert store.stats.hits_l2 == 1  # ...but survived on disk


def test_tiered_invalid_entries_degrade_to_recorded_miss(
    tmp_path, compiled, machine
):
    loop, result = compiled
    store = ArtifactStore.open(tmp_path / "store")
    key = store_key(loop, machine, CONFIG)
    store.put_result(key, result)

    # bit-flip the on-disk file; use a fresh store so L1 cannot mask it
    path = pathlib.Path(store.disk._path_for(key))
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    path.write_bytes(bytes(blob))

    fresh = ArtifactStore.open(tmp_path / "store")
    assert fresh.lookup(key) is None
    assert (fresh.stats.misses, fresh.stats.invalid) == (1, 1)
    assert not path.exists()  # the garbage entry was removed

    # ...and the recompile path rewrites it transparently
    res2 = compile_loop(loop, machine, CONFIG, store=fresh)
    assert not res2.store_hit
    assert fresh.lookup(key) is not None


def test_tiered_foreign_key_under_our_digest_is_invalid(
    tmp_path, compiled, machine
):
    loop, result = compiled
    store = ArtifactStore.open(tmp_path / "store")
    key = store_key(loop, machine, CONFIG)
    other_key = store_key(loop, machine, PipelineConfig(budget_ratio=13))
    # file another compilation's entry under our digest
    store.disk.put(key, StoreEntry.from_result(other_key, result))

    assert store.lookup(key) is None
    assert (store.stats.invalid, store.stats.misses) == (1, 1)
    assert store.disk.get(key) is None  # deleted


def test_store_stats_merge():
    a = StoreStats(hits_l1=1, hits_l2=2, misses=3, invalid=1, writes=3, evictions=1)
    b = StoreStats(hits_l1=4, hits_l2=0, misses=1, invalid=0, writes=1, evictions=0)
    a.merge(b)
    assert a == StoreStats(
        hits_l1=5, hits_l2=2, misses=4, invalid=1, writes=4, evictions=1
    )
    assert a.hits == 7 and a.lookups == 11


def test_compile_loop_store_hit_metrics_only_mode(tmp_path, machine):
    loop = build_daxpy()
    store = ArtifactStore.open(tmp_path / "store")
    cold = compile_loop(loop, machine, CONFIG, store=store)
    warm = compile_loop(
        loop, machine, CONFIG, store=store, store_hydrate="metrics"
    )
    assert warm.store_hit
    assert warm.metrics == cold.metrics
    assert warm.kernel is None  # artifacts deliberately not hydrated


def test_stale_ddg_peek_evicts_mismatched_loop_instance(machine):
    """peek_ddg drops an entry whose identity guard fails instead of
    letting the stale artifacts shadow the key (satellite fix)."""
    from repro.core.cache import ArtifactCache

    cache = ArtifactCache()
    loop_a = build_daxpy()
    loop_b = build_daxpy()  # same content, different Operation instances
    result = compile_loop(loop_a, machine, CONFIG, cache=cache)
    args = (machine.latencies, CONFIG, machine.width)
    assert cache.peek_ddg(loop_a, *args) is result.ddg
    assert cache.peek_ddg(loop_b, *args) is None
    # the stale entry is gone at once: the original loop misses too
    assert cache.peek_ddg(loop_a, *args) is None
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)  # peeks are not lookups
