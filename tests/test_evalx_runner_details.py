"""Detail tests for the evaluation runner's small surfaces."""

import pytest

from repro.core.pipeline import PipelineConfig
from repro.core.results import DEGRADATION_BUCKETS, LoopFailure
from repro.evalx.runner import Cell, PAPER_CONFIG_ORDER, config_label, run_evaluation
from repro.machine.machine import CopyModel
from repro.workloads.corpus import spec95_corpus


class TestConfigLabels:
    def test_label_format(self):
        assert config_label(2, CopyModel.EMBEDDED) == "2 Clusters / Embedded"
        assert config_label(8, CopyModel.COPY_UNIT) == "8 Clusters / Copy Unit"

    def test_paper_order_is_tables_column_order(self):
        assert PAPER_CONFIG_ORDER[0] == (2, CopyModel.EMBEDDED)
        assert PAPER_CONFIG_ORDER[-1] == (8, CopyModel.COPY_UNIT)
        assert len(PAPER_CONFIG_ORDER) == 6

    def test_config_labels_follow_requested_order(self):
        run = run_evaluation(
            loops=spec95_corpus(n=5),
            config=PipelineConfig(run_regalloc=False),
            configs=((4, CopyModel.COPY_UNIT), (2, CopyModel.EMBEDDED)),
        )
        # labels come back in the caller's order — custom configurations
        # outside PAPER_CONFIG_ORDER must not vanish from reports/tables
        assert run.config_labels() == [
            config_label(4, CopyModel.COPY_UNIT),
            config_label(2, CopyModel.EMBEDDED),
        ]

    def test_machines_recorded(self):
        run = run_evaluation(
            loops=spec95_corpus(n=3),
            config=PipelineConfig(run_regalloc=False),
            configs=((2, CopyModel.EMBEDDED),),
        )
        label = config_label(2, CopyModel.EMBEDDED)
        assert run.machines[label].n_clusters == 2


class TestCellType:
    def test_cell_holds_exactly_one_payload(self):
        with pytest.raises(ValueError):
            Cell(loop_index=0, config="c")

    def test_unknown_failure_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown failure kind"):
            LoopFailure(config="c", loop_name="lp", error="e", kind="meteor")


class TestBucketsConstant:
    def test_eleven_buckets_in_figure_order(self):
        assert len(DEGRADATION_BUCKETS) == 11
        assert DEGRADATION_BUCKETS[0] == "0.00%"
        assert DEGRADATION_BUCKETS[-1] == ">90%"
        # interior buckets strictly ascending
        interior = [int(b[1:-1]) for b in DEGRADATION_BUCKETS[1:-1]]
        assert interior == sorted(interior)


class TestScheduledWithSwingThroughRunner:
    def test_runner_accepts_alternate_scheduler(self):
        run = run_evaluation(
            loops=spec95_corpus(n=6),
            config=PipelineConfig(run_regalloc=False, scheduler="swing"),
            configs=((4, CopyModel.EMBEDDED),),
        )
        assert not run.failures
        metrics = run.metrics_for(4, CopyModel.EMBEDDED)
        assert len(metrics) == 6
