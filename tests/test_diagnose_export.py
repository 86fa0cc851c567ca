"""Tests for degradation diagnosis, critical-cycle extraction and export."""

import csv
import io
import json

import pytest

from repro.core.pipeline import PipelineConfig, compile_loop
from repro.ddg.analysis import critical_cycle, recurrence_ii
from repro.ddg.builder import build_loop_ddg
from repro.evalx.diagnose import DegradationCause, diagnose
from repro.evalx.export import CSV_FIELDS, run_to_csv, run_to_json
from repro.evalx.runner import run_evaluation
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.workloads.corpus import spec95_corpus
from repro.workloads.kernels import make_kernel


class TestCriticalCycle:
    def test_acyclic_has_no_cycle(self, daxpy_loop):
        assert critical_cycle(build_loop_ddg(daxpy_loop)) == []

    def test_memory_recurrence_cycle(self, memrec_loop):
        ddg = build_loop_ddg(memrec_loop)
        cycle = critical_cycle(ddg)
        # load -> fmul -> store (-> load): exactly the three recurrence ops
        assert len(cycle) == 3
        kinds = {op.opcode.value for op in cycle}
        assert kinds == {"fload", "fmul", "fstore"}

    def test_cycle_ratio_matches_recii(self, memrec_loop):
        ddg = build_loop_ddg(memrec_loop)
        cycle = critical_cycle(ddg)
        cycle_ids = {op.op_id for op in cycle}
        delay = dist = 0
        idx = ddg.index()
        for k in range(idx.m):
            if idx.op_ids[idx.src[k]] in cycle_ids and idx.op_ids[idx.dst[k]] in cycle_ids:
                delay += idx.delay[k]
                dist += idx.dist[k]
        assert dist > 0
        assert -(-delay // dist) == recurrence_ii(ddg)

    def test_accumulator_self_cycle(self, dot_loop):
        cycle = critical_cycle(build_loop_ddg(dot_loop))
        assert len(cycle) == 1
        assert cycle[0].opcode.value == "fadd"


class TestDiagnose:
    def test_zero_degradation_is_none(self):
        m = paper_machine(2, CopyModel.EMBEDDED)
        result = compile_loop(make_kernel("daxpy"), m, PipelineConfig(run_regalloc=False))
        d = diagnose(result)
        if result.metrics.zero_degradation:
            assert d.cause is DegradationCause.NONE

    def test_single_bank_diagnosed_as_resources(self):
        m = paper_machine(8, CopyModel.EMBEDDED)
        result = compile_loop(
            make_kernel("daxpy4"), m,
            PipelineConfig(partitioner="single", run_regalloc=False),
        )
        d = diagnose(result)
        assert d.cause is DegradationCause.RESOURCES
        assert d.cluster_loads[0] == len(make_kernel("daxpy4").ops)

    def test_recurrence_lengthening_detected(self):
        """Force a copy onto lfk5's critical recurrence by splitting the
        cycle across banks via precoloring."""
        loop = make_kernel("lfk5_tridiag")
        f = loop.factory
        m = paper_machine(2, CopyModel.EMBEDDED)
        result = compile_loop(
            loop, m,
            PipelineConfig(
                precolored={f.get("f4"): 0, f.get("f5"): 1}, run_regalloc=False
            ),
        )
        d = diagnose(result)
        assert d.cause is DegradationCause.RECURRENCE
        assert d.copies_on_critical_cycle
        assert "fcopy" in d.copies_on_critical_cycle[0]

    def test_format_mentions_cause(self):
        m = paper_machine(4, CopyModel.EMBEDDED)
        result = compile_loop(make_kernel("fir5"), m, PipelineConfig(run_regalloc=False))
        text = diagnose(result).format()
        assert "cause:" in text and "II:" in text


class TestExport:
    @pytest.fixture(scope="class")
    def small_run(self):
        return run_evaluation(
            loops=spec95_corpus(n=12),
            config=PipelineConfig(run_regalloc=False),
            configs=((2, CopyModel.EMBEDDED), (2, CopyModel.COPY_UNIT)),
        )

    def test_csv_structure(self, small_run):
        text = run_to_csv(small_run)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == 24  # 12 loops x 2 configs
        assert set(rows[0]) == set(CSV_FIELDS)
        for row in rows:
            assert float(row["normalized_kernel"]) >= 90.0
            assert row["bucket"]

    def test_json_structure(self, small_run):
        doc = json.loads(run_to_json(small_run))
        assert "table1" in doc and "table2" in doc
        assert doc["table1"]["ideal_ipc"] > 0
        assert "2/embedded" in doc["table2"]["arithmetic"]
        assert "2" in doc["figures"]
        assert len(doc["loops"]) == 2
        assert doc["failures"] == []

    def test_json_round_trips(self, small_run):
        assert json.loads(run_to_json(small_run)) == json.loads(run_to_json(small_run))


class TestPipelineWithSwing:
    def test_swing_scheduler_through_pipeline(self, clustered_machine):
        loop = make_kernel("lfk1_hydro")
        result = compile_loop(
            loop, clustered_machine,
            PipelineConfig(scheduler="swing", run_regalloc=False, run_simulation=True),
        )
        assert result.metrics.sim_checked
        assert result.metrics.partitioned_ii >= 1
