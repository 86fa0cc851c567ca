"""Resume = rerun with the same artifact store.

An evaluation interrupted part-way (here: ``KeyboardInterrupt`` raised
from inside the runner's compile call) resumes by running it again over
the same store: finished cells are store hits, failed cells are never
stored and so are recomputed, and the merged result is byte-identical
to an uninterrupted run.
"""

import pytest

from repro.core.pipeline import PipelineConfig
from repro.evalx.export import run_to_csv
from repro.evalx.figures import compute_figure
from repro.evalx.runner import PAPER_CONFIG_ORDER, run_evaluation
from repro.evalx.table1 import compute_table1
from repro.evalx.table2 import compute_table2
from repro.ir.block import BasicBlock, Loop
from repro.store import ArtifactStore
from repro.workloads.corpus import spec95_corpus

CONFIG = PipelineConfig(run_regalloc=False)
N_CONFIGS = len(PAPER_CONFIG_ORDER)


def rendered(run) -> str:
    """Everything presentation-grade: tables + figures + CSV."""
    parts = [compute_table1(run).format(), compute_table2(run).format()]
    parts.extend(compute_figure(run, n).format() for n in (2, 4, 8))
    parts.append(run_to_csv(run))
    return "\n".join(parts)


def interrupt_after(monkeypatch, n_cells: int):
    """Make the runner's compile raise KeyboardInterrupt after n calls."""
    import repro.core.pipeline as pipeline_mod

    real = pipeline_mod.compile_loop
    calls = {"n": 0}

    def bomb(loop, machine, config, cache=None, **obs):
        calls["n"] += 1
        if calls["n"] > n_cells:
            raise KeyboardInterrupt
        return real(loop, machine, config, cache=cache, **obs)

    monkeypatch.setattr("repro.evalx.runner.compile_loop", bomb)


def interrupted_run(monkeypatch, path, loops, n_cells: int) -> None:
    """A serial store-backed run killed after ``n_cells`` compilations."""
    interrupt_after(monkeypatch, n_cells)
    with pytest.raises(KeyboardInterrupt):
        run_evaluation(loops=loops, config=CONFIG,
                       store=ArtifactStore.open(path))
    monkeypatch.undo()


class TestStoreResume:
    def test_interrupted_serial_run_resumes_byte_identical(
        self, tmp_path, monkeypatch
    ):
        loops = spec95_corpus(n=5)
        clean = run_evaluation(loops=loops, config=CONFIG)

        interrupted_run(monkeypatch, tmp_path / "st", loops, 7)
        resumed = run_evaluation(loops=loops, config=CONFIG,
                                 store=ArtifactStore.open(tmp_path / "st"))
        # the cells finished before the interrupt are answered from disk
        assert resumed.store_hits == 7
        assert resumed.store_misses == len(loops) * N_CONFIGS - 7
        assert resumed.per_config == clean.per_config
        assert resumed.failures == clean.failures
        assert rendered(resumed) == rendered(clean)

    def test_interrupted_run_resumes_in_parallel(self, tmp_path, monkeypatch):
        loops = spec95_corpus(n=4)
        clean = run_evaluation(loops=loops, config=CONFIG)

        interrupted_run(monkeypatch, tmp_path / "st", loops, 9)
        resumed = run_evaluation(loops=loops, config=CONFIG, jobs=2,
                                 store=ArtifactStore.open(tmp_path / "st"))
        assert resumed.store_hits == 9
        assert rendered(resumed) == rendered(clean)

    def test_complete_store_answers_rerun_without_compiling(self, tmp_path):
        loops = spec95_corpus(n=4)
        clean = run_evaluation(loops=loops, config=CONFIG)
        run_evaluation(loops=loops, config=CONFIG, jobs=2,
                       store=ArtifactStore.open(tmp_path / "st"))

        rerun = run_evaluation(loops=loops, config=CONFIG,
                               store=ArtifactStore.open(tmp_path / "st"))
        assert rerun.store_hits == len(loops) * N_CONFIGS
        assert rerun.store_misses == 0
        assert rerun.cache_misses == 0  # no DDG or ideal schedule built
        assert rendered(rerun) == rendered(clean)

    def test_failed_cells_are_recomputed_on_resume(self, tmp_path, monkeypatch):
        broken = Loop(name="zz_broken", body=BasicBlock("zz_broken"))
        loops = spec95_corpus(n=3) + [broken]
        clean = run_evaluation(loops=loops, config=CONFIG)
        assert len(clean.failures) == N_CONFIGS  # the empty loop fails everywhere

        # ten cells in configuration-major order: the broken loop's cells
        # under the first two configurations fail, eight succeed
        interrupted_run(monkeypatch, tmp_path / "st", loops, 10)
        resumed = run_evaluation(loops=loops, config=CONFIG,
                                 store=ArtifactStore.open(tmp_path / "st"))
        assert resumed.store_hits == 8
        assert resumed.failures == clean.failures
        assert rendered(resumed) == rendered(clean)
