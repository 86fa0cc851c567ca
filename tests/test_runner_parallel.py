"""Serial/parallel evaluation runner equivalence and failure handling."""

import pytest

from repro.core.cache import ArtifactCache
from repro.core.pipeline import PipelineConfig
from repro.evalx.export import run_to_csv
from repro.evalx.figures import compute_figure
from repro.evalx.runner import config_label, run_evaluation
from repro.evalx.table1 import compute_table1
from repro.evalx.table2 import compute_table2
from repro.ir.block import BasicBlock, Loop
from repro.machine.machine import CopyModel
from repro.workloads.corpus import spec95_corpus

CONFIG = PipelineConfig(run_regalloc=False)


def broken_loop() -> Loop:
    """A loop no configuration can compile: empty bodies cannot be
    software-pipelined, so every config records a failure for it."""
    return Loop(name="zz_broken", body=BasicBlock("zz_broken"))


class TestParallelEquivalence:
    def test_tables_and_figures_byte_identical(self):
        loops = spec95_corpus(n=10)
        serial = run_evaluation(loops=loops, config=CONFIG)
        parallel = run_evaluation(loops=loops, config=CONFIG, jobs=2)
        assert compute_table1(serial).format() == compute_table1(parallel).format()
        assert compute_table2(serial).format() == compute_table2(parallel).format()
        for n_clusters in (2, 4, 8):
            assert (compute_figure(serial, n_clusters).format()
                    == compute_figure(parallel, n_clusters).format())
        assert run_to_csv(serial) == run_to_csv(parallel)

    def test_machines_and_labels_match(self):
        loops = spec95_corpus(n=4)
        serial = run_evaluation(loops=loops, config=CONFIG)
        parallel = run_evaluation(loops=loops, config=CONFIG, jobs=2)
        assert serial.config_labels() == parallel.config_labels()
        assert set(serial.machines) == set(parallel.machines)
        assert parallel.jobs == 2

    def test_subset_of_configs(self):
        loops = spec95_corpus(n=5)
        configs = ((4, CopyModel.COPY_UNIT), (2, CopyModel.EMBEDDED))
        serial = run_evaluation(loops=loops, config=CONFIG, configs=configs)
        parallel = run_evaluation(loops=loops, config=CONFIG, configs=configs, jobs=3)
        assert run_to_csv(serial) == run_to_csv(parallel)


class TestCacheAccounting:
    def test_serial_hits_five_of_six_configs(self):
        loops = spec95_corpus(n=6)
        run = run_evaluation(loops=loops, config=CONFIG)
        assert run.cache_misses == len(loops)
        assert run.cache_hits == 5 * len(loops)
        assert run.cache_hit_rate == pytest.approx(5 / 6)

    def test_parallel_preserves_per_loop_hit_profile(self):
        """Chunking is by loop across all configs, so each loop still
        misses once and hits five times inside its worker."""
        loops = spec95_corpus(n=8)
        run = run_evaluation(loops=loops, config=CONFIG, jobs=2)
        assert run.cache_misses == len(loops)
        assert run.cache_hits == 5 * len(loops)

    def test_caller_supplied_cache_is_reused_across_runs(self):
        """The caller's cache serves the serial run, and the run counts
        its own lookups, not what the cache saw before."""
        loops = spec95_corpus(n=4)
        cache = ArtifactCache()
        first = run_evaluation(loops=loops, config=CONFIG, cache=cache)
        assert (cache.stats.misses, cache.stats.hits) == (len(loops), 5 * len(loops))
        second = run_evaluation(loops=loops, config=CONFIG, cache=cache)
        assert (first.cache_misses, first.cache_hits) == (len(loops), 5 * len(loops))
        assert (second.cache_misses, second.cache_hits) == (first.cache_misses,
                                                              first.cache_hits)
        assert cache.stats.misses == 2 * len(loops)

    def test_pass_seconds_aggregated(self):
        run = run_evaluation(loops=spec95_corpus(n=3), config=CONFIG, jobs=2)
        assert {"BuildDDG", "IdealSchedule", "PartitionPass"} <= set(run.pass_seconds)
        assert all(v >= 0 for v in run.pass_seconds.values())


class TestObservabilityAcrossWorkers:
    def test_cell_metrics_identical_serial_vs_parallel(self):
        loops = spec95_corpus(n=6)
        serial = run_evaluation(loops=loops, config=CONFIG, collect_metrics=True)
        parallel = run_evaluation(loops=loops, config=CONFIG, jobs=2,
                                  collect_metrics=True)
        assert serial.cell_metrics == parallel.cell_metrics
        from repro.evalx.export import aggregate_metrics

        assert aggregate_metrics(serial) == aggregate_metrics(parallel)

    def test_metrics_off_by_default(self):
        run = run_evaluation(loops=spec95_corpus(n=3), config=CONFIG, jobs=2)
        assert run.cell_metrics == {}

    def test_profile_works_with_jobs(self, capsys):
        """--profile used to be a hard error under --jobs; it now profiles
        the coordinator while per-pass/cache stats aggregate from workers."""
        from repro.cli import main

        assert main(["evaluate", "--quick", "4", "--jobs", "2", "--profile"]) == 0
        captured = capsys.readouterr()
        assert "cProfile" in captured.out
        assert "ideal-schedule cache:" in captured.out
        assert "jobs=2" in captured.out
        assert "aggregate from the workers" in captured.err

    def test_parallel_pass_seconds_still_aggregate(self):
        run = run_evaluation(loops=spec95_corpus(n=4), config=CONFIG, jobs=2,
                             collect_metrics=True)
        assert sum(run.pass_seconds.values()) > 0
        agg_hits = sum(
            snap["counters"].get("cache.hits", 0)
            for snap in run.cell_metrics.values()
        )
        assert agg_hits == run.cache_hits


class TestFailureRecording:
    def test_failure_recorded_per_config_and_excluded(self):
        good = spec95_corpus(n=4)
        loops = good + [broken_loop()]
        run = run_evaluation(loops=loops, config=CONFIG)
        assert len(run.failures) == 6  # once per paper configuration
        for failure in run.failures:
            assert failure.loop_name == "zz_broken"
            assert "empty" in failure.error
            assert failure.kind == "exception"
            assert failure.attempts == 1
        assert {f.config for f in run.failures} == set(run.per_config)
        for metrics in run.per_config.values():
            assert len(metrics) == len(good)
            assert all(m.loop_name != "zz_broken" for m in metrics)

    def test_serial_and_parallel_failures_identical(self):
        loops = spec95_corpus(n=4) + [broken_loop()]
        serial = run_evaluation(loops=loops, config=CONFIG)
        parallel = run_evaluation(loops=loops, config=CONFIG, jobs=2)
        assert serial.failures == parallel.failures
        assert run_to_csv(serial) == run_to_csv(parallel)

    def test_failure_position_does_not_disturb_metric_order(self):
        good = spec95_corpus(n=4)
        loops = good[:2] + [broken_loop()] + good[2:]
        serial = run_evaluation(loops=loops, config=CONFIG)
        parallel = run_evaluation(loops=loops, config=CONFIG, jobs=2)
        label = config_label(2, CopyModel.EMBEDDED)
        assert [m.loop_name for m in serial.per_config[label]] == [
            m.loop_name for m in parallel.per_config[label]
        ] == [lp.name for lp in good]
