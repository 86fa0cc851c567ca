"""End-to-end tests for store-backed incremental recompilation.

The contract under test: a ``--store`` evaluation produces byte-for-byte
the reports of a store-less one (hot or cold, serial or parallel), and a
re-evaluation after editing one loop recompiles exactly that loop's
cells — everything else is answered from disk.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import PipelineConfig, compile_loop
from repro.evalx.report import render_full_report
from repro.evalx.runner import PAPER_CONFIG_ORDER, run_evaluation
from repro.machine.presets import paper_machine
from repro.store import ArtifactStore
from repro.workloads.corpus import spec95_corpus
from repro.workloads.kernels import NAMED_KERNELS, make_kernel

from .conftest import store_record

N_LOOPS = 8
N_CONFIGS = 6
CONFIG = PipelineConfig(run_regalloc=True)


def _report_lines(run) -> list[str]:
    """The full report minus its wall-time line (the only nondeterminism)."""
    return [
        line
        for line in render_full_report(run).splitlines()
        if not line.startswith("corpus:")
    ]


@pytest.fixture(scope="module")
def corpus():
    return spec95_corpus(n=N_LOOPS)


@pytest.fixture(scope="module")
def baseline(corpus):
    """The store-less reference run every store-backed run must match."""
    return run_evaluation(corpus, config=CONFIG)


def test_cold_then_warm_runs_match_storeless(tmp_path, corpus, baseline):
    path = tmp_path / "store"
    cold = run_evaluation(corpus, config=CONFIG, store=ArtifactStore.open(path))
    assert cold.per_config == baseline.per_config
    assert _report_lines(cold) == _report_lines(baseline)
    assert cold.store_hits == 0
    assert cold.store_misses == N_LOOPS * N_CONFIGS
    assert cold.store_writes == N_LOOPS * N_CONFIGS

    warm = run_evaluation(corpus, config=CONFIG, store=ArtifactStore.open(path))
    assert warm.per_config == baseline.per_config
    assert _report_lines(warm) == _report_lines(baseline)
    assert warm.store_hits == N_LOOPS * N_CONFIGS
    assert warm.store_misses == 0
    assert warm.store_writes == 0
    # store hits skip the pipeline entirely, so the L0 memo sees nothing
    assert warm.cache_hits == 0 and warm.cache_misses == 0


def test_editing_one_loop_recompiles_exactly_its_cells(tmp_path, corpus):
    """The incremental-recompilation contract of the issue's demo."""
    path = tmp_path / "store"
    run_evaluation(corpus, config=CONFIG, store=ArtifactStore.open(path))

    # a real content change: "vscale" is not among the first N_LOOPS
    # corpus entries (the corpus prefix is the named kernels in
    # CORPUS_KERNELS order), so no stored entry matches it
    edited = list(corpus)
    edited[3] = make_kernel("vscale")
    reference = run_evaluation(edited, config=CONFIG)  # store-less truth

    warm = run_evaluation(edited, config=CONFIG, store=ArtifactStore.open(path))
    assert warm.store_misses == N_CONFIGS  # the edited loop, nothing else
    assert warm.store_hits == (N_LOOPS - 1) * N_CONFIGS
    assert warm.store_writes == N_CONFIGS
    assert warm.per_config == reference.per_config
    assert _report_lines(warm) == _report_lines(reference)

    # the recompiled cells are now stored too: a second pass is all-hit
    warm2 = run_evaluation(edited, config=CONFIG, store=ArtifactStore.open(path))
    assert warm2.store_misses == 0
    assert warm2.store_hits == N_LOOPS * N_CONFIGS


def test_parallel_and_serial_store_runs_agree(tmp_path, corpus, baseline):
    cold_path = tmp_path / "cold"
    pcold = run_evaluation(
        corpus, config=CONFIG, jobs=2, store=ArtifactStore.open(cold_path)
    )
    assert pcold.per_config == baseline.per_config
    assert _report_lines(pcold) == _report_lines(baseline)
    assert pcold.store_writes == N_LOOPS * N_CONFIGS

    # a serial warm run reads what the parallel workers wrote, and
    # vice versa: warm the parallel path from a serially-written store
    swarm = run_evaluation(
        corpus, config=CONFIG, store=ArtifactStore.open(cold_path)
    )
    assert swarm.store_hits == N_LOOPS * N_CONFIGS
    assert swarm.per_config == baseline.per_config

    pwarm = run_evaluation(
        corpus, config=CONFIG, jobs=2, store=ArtifactStore.open(cold_path)
    )
    assert pwarm.store_hits == N_LOOPS * N_CONFIGS
    assert pwarm.store_misses == 0
    assert pwarm.per_config == baseline.per_config


def _entry_files(root) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted((root / "objects").rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("regalloc", [False, True], ids=["plain", "regalloc"])
def test_serial_and_parallel_cold_stores_are_byte_identical(tmp_path, corpus,
                                                            regalloc):
    """Entries hold no wall times, so two cold stores of the same run
    write the same files whatever filled them."""
    config = PipelineConfig(run_regalloc=regalloc)
    run_evaluation(corpus, config=config, store=ArtifactStore.open(tmp_path / "s"))
    run_evaluation(corpus, config=config, jobs=2,
                   store=ArtifactStore.open(tmp_path / "p"))
    serial, parallel = _entry_files(tmp_path / "s"), _entry_files(tmp_path / "p")
    assert len(serial) == N_LOOPS  # one file per loop
    assert serial == parallel


def test_store_outcomes_recorded_in_cell_metrics(tmp_path, corpus):
    path = tmp_path / "store"
    run_evaluation(corpus[:2], config=CONFIG, store=ArtifactStore.open(path))
    warm = run_evaluation(
        corpus[:2], config=CONFIG, store=ArtifactStore.open(path),
        collect_metrics=True,
    )
    assert len(warm.cell_metrics) == 2 * N_CONFIGS
    for snapshot in warm.cell_metrics.values():
        assert snapshot["counters"]["store.hits"] == 1
        assert snapshot["counters"]["store.misses"] == 0


def test_full_hydration_matches_fresh_compile_for_codegen(tmp_path):
    """The CLI's warm path: a hydrated result drives emit identically,
    for every named kernel on every paper configuration.  The kernel
    listing orders each row by op id, so the re-derived copies must be
    numbered as a fresh compile numbers them (after every clone)."""
    from repro.codegen import emit_assembly, emit_expanded

    store = ArtifactStore.open(tmp_path / "store")
    for n_clusters, model in PAPER_CONFIG_ORDER:
        machine = paper_machine(n_clusters, model)
        for name in NAMED_KERNELS:
            cold = compile_loop(make_kernel(name), machine, CONFIG, store=store)
            assert not cold.store_hit
            warm = compile_loop(make_kernel(name), machine, CONFIG, store=store)
            assert warm.store_hit
            cell = (name, machine.name)
            assert emit_assembly(warm).text() == emit_assembly(cold).text(), cell
            assert emit_expanded(warm, 6).text() == emit_expanded(cold, 6).text(), cell
    assert store.stats.invalid == 0


def test_corrupted_store_recovers_by_recompiling(tmp_path, corpus, baseline):
    path = tmp_path / "store"
    store = ArtifactStore.open(path)
    run_evaluation(corpus, config=CONFIG, store=store)

    # truncate one entry and bit-flip another, in place: cut one loop
    # file inside its last record, flip a byte near another's end
    files = store.disk.loop_files()
    victim_a = files[0]
    data = victim_a.read_bytes()
    last = data.rfind(b'\n{"digest":"') + 1
    victim_a.write_bytes(data[: last + 100])
    victim_b = files[1]
    blob = bytearray(victim_b.read_bytes())
    blob[-10] ^= 0x40
    victim_b.write_bytes(bytes(blob))

    warm = run_evaluation(corpus, config=CONFIG, store=ArtifactStore.open(path))
    assert warm.store_invalid == 2
    assert warm.store_misses == 2  # both recompiled...
    assert warm.store_writes == 2  # ...and rewritten
    assert warm.store_hits == N_LOOPS * N_CONFIGS - 2
    assert warm.per_config == baseline.per_config  # results unharmed
    assert ArtifactStore.open(path).disk.verify().ok  # store healed


def test_cli_store_round_trip(tmp_path, capsys):
    """CLI surface: evaluate --store cold/warm + store stats/verify/gc."""
    from repro.cli import main

    store_dir = str(tmp_path / "store")
    assert main(["evaluate", "--quick", "4", "--store", store_dir]) == 0
    cold_out = capsys.readouterr().out
    assert main(["evaluate", "--quick", "4", "--store", store_dir]) == 0
    warm_out = capsys.readouterr().out
    strip = lambda text: [  # noqa: E731
        ln for ln in text.splitlines() if not ln.startswith("corpus:")
    ]
    assert strip(warm_out) == strip(cold_out)

    assert main(["store", "stats", store_dir]) == 0
    assert "entries: 24" in capsys.readouterr().out
    assert main(["store", "verify", store_dir]) == 0
    assert "all entries decode" in capsys.readouterr().out
    assert main(["store", "gc", store_dir, "--max-entries", "10"]) == 0
    assert "removed 14" in capsys.readouterr().out

    # corrupt an entry: verify flags it, --repair heals, evaluate rewrites
    disk = ArtifactStore.open(store_dir).disk
    victim, start, end = store_record(disk, disk.digests()[0])
    data = victim.read_bytes()
    victim.write_bytes(data[:start] + b"garbage\n" + data[end:])
    assert main(["store", "verify", store_dir]) == 1
    assert main(["store", "verify", store_dir, "--repair"]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--quick", "4", "--store", store_dir]) == 0
    assert strip(capsys.readouterr().out) == strip(cold_out)


@pytest.mark.parametrize("limit", [
    ["--max-entries", "-1"],
    ["--max-age", "-1"],
    ["--max-age", "nan"],
    ["--max-age", "inf"],
])
def test_cli_store_gc_rejects_bad_limits(tmp_path, capsys, limit):
    """argparse rejects the limit (exit 2) before the store is opened,
    so no entry is touched."""
    from repro.cli import main
    from repro.store import DiskStore

    store_dir = str(tmp_path / "store")
    assert main(["evaluate", "--quick", "1", "--store", store_dir]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["store", "gc", store_dir, *limit])
    assert exc.value.code == 2
    assert "expected a" in capsys.readouterr().err
    assert len(DiskStore(store_dir).digests()) == 6
