"""Observability under the parallel runner and a store-backed resume.

Traces must merge deterministically across worker processes (same span
identities as a serial run, keyed by loop id) and a rerun over a partly
filled store must trace each cell exactly once and compile only the
cells the store lacks."""

import time

import pytest

from repro.core.faults import DeadlineExceeded
from repro.core.passes import ClusterReschedule
from repro.core.pipeline import PipelineConfig, compile_loop
from repro.evalx.report import render_full_report
from repro.evalx.runner import PAPER_CONFIG_ORDER, config_label, run_evaluation
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.obs import Tracer
from repro.obs.trace import PassClock
from repro.store import ArtifactStore
from repro.workloads.corpus import spec95_corpus
from repro.workloads.kernels import make_kernel

CONFIG = PipelineConfig(run_regalloc=False)
LABELS = [config_label(n, m) for n, m in PAPER_CONFIG_ORDER]


def span_identities(tracer: Tracer) -> list[tuple]:
    return sorted(s.identity() for s in tracer.spans)


def root_cells(tracer: Tracer) -> list[tuple[int, str]]:
    return [s.group_key() for s in tracer.spans if s.cat == "cell"]


class TestParallelTraceEquivalence:
    def test_serial_and_parallel_span_sets_identical(self):
        loops = spec95_corpus(n=6)
        serial_tracer, parallel_tracer = Tracer(), Tracer()
        run_evaluation(loops=loops, config=CONFIG, tracer=serial_tracer)
        run_evaluation(loops=loops, config=CONFIG, jobs=2,
                       tracer=parallel_tracer)
        assert span_identities(serial_tracer) == span_identities(parallel_tracer)
        assert sorted(root_cells(serial_tracer)) == sorted(
            (i, label) for i in range(len(loops)) for label in LABELS
        )

    def test_exactly_one_root_span_per_cell(self):
        loops = spec95_corpus(n=5)
        tracer = Tracer()
        run_evaluation(loops=loops, config=CONFIG, jobs=3, tracer=tracer)
        roots = root_cells(tracer)
        assert len(roots) == len(set(roots)) == len(loops) * len(LABELS)

    def test_disabled_tracer_records_nothing(self):
        run = run_evaluation(loops=spec95_corpus(n=3), config=CONFIG,
                             tracer=PassClock())
        assert not run.failures  # and nothing blew up treating it as None


class TestCheckpointResumeTracing:
    """The artifact store is the run's checkpoint: a rerun over a store
    that an interrupted run partly filled answers the finished cells from
    disk and compiles only the rest."""

    @pytest.fixture()
    def partial_store(self, tmp_path):
        """A store holding only the first two loops' cells, simulating a
        run that died mid-flight."""
        loops = spec95_corpus(n=4)
        run_evaluation(loops=loops[:2], config=CONFIG,
                       store=ArtifactStore.open(tmp_path / "st"))
        done_keys = {(i, label) for i in range(2) for label in LABELS}
        return loops, tmp_path / "st", done_keys

    def test_resume_emits_spans_only_for_missing_cells(self, partial_store):
        loops, store_path, done_keys = partial_store
        tracer = Tracer()
        run = run_evaluation(loops=loops, config=CONFIG, tracer=tracer,
                             store=ArtifactStore.open(store_path))
        assert run.store_hits == len(done_keys)
        all_keys = {(i, label) for i in range(len(loops)) for label in LABELS}
        roots = root_cells(tracer)
        assert len(roots) == len(set(roots)), "duplicate cell spans"
        assert set(roots) == all_keys
        # a store hit traces only its lookup; compile passes run for the rest
        compiled = {s.group_key() for s in tracer.spans if s.name == "BuildDDG"}
        assert compiled == all_keys - done_keys

    def test_resumed_tables_byte_identical_to_uninterrupted(self, partial_store):
        loops, store_path, _done = partial_store
        clean = run_evaluation(loops=loops, config=CONFIG)
        resumed = run_evaluation(loops=loops, config=CONFIG, tracer=Tracer(),
                                 jobs=2, store=ArtifactStore.open(store_path))
        clean_report = render_full_report(clean)
        resumed_report = render_full_report(resumed)
        # only the wall-time line may differ
        diff = [
            (a, b)
            for a, b in zip(clean_report.splitlines(), resumed_report.splitlines())
            if a != b
        ]
        assert all("wall time" in a for a, _b in diff)


class TestClusterRescheduleSubsteps:
    """ClusterReschedule times its DDG derivation and its validation as
    substep spans around the scheduler's ``ims_attempt`` spans."""

    def test_traced_compile_emits_derive_and_validate_spans(self):
        tracer = Tracer()
        compile_loop(make_kernel("daxpy"), paper_machine(4, CopyModel.EMBEDDED),
                     CONFIG, tracer=tracer)
        spans = tracer.sorted_spans()
        (parent,) = [s for s in spans if s.name == "ClusterReschedule"]
        inside = [s.name for s in spans if s.seq > parent.seq
                  and s.depth > parent.depth and s.t1_ns <= parent.t1_ns]
        assert inside[0] == "ddg_derive" and inside[-1] == "validate_kernel"
        assert "ims_attempt" in inside
        for s in spans:
            if s.name in ("ddg_derive", "validate_kernel"):
                assert s.cat == "substep" and s.depth == parent.depth + 1

    def test_disabled_tracer_opens_no_substep_span(self):
        opened: list[str] = []

        class Spy(PassClock):
            def span(self, name, cat="pass", **args):
                opened.append(cat)
                return super().span(name, cat, **args)

        compile_loop(make_kernel("daxpy"), paper_machine(4, CopyModel.EMBEDDED),
                     CONFIG, tracer=Spy())
        assert opened and "substep" not in opened


#: every pass a store-less, regalloc-less evaluation runs
EVAL_PASSES = {
    "StoreLookup", "BuildDDG", "IdealSchedule", "PartitionPass",
    "SpillRetryLoop", "InsertCopies", "ClusterReschedule", "SimulateCheck",
    "CheckOracles", "ComputeMetrics", "StoreWrite",
}


def exclusive_pass_ns(tracer: Tracer) -> dict[str, int]:
    """Per pass name, the summed duration of its pass spans less that of
    the pass spans directly nested in them, rebuilt from the span tree."""
    totals: dict[str, int] = {}
    for spans in tracer.by_cell().values():
        stack: list = []
        for span in spans:
            while stack and stack[-1].depth >= span.depth:
                stack.pop()
            if span.cat == "pass":
                totals[span.name] = totals.get(span.name, 0) + span.dur_ns
                parent = next((s for s in reversed(stack) if s.cat == "pass"), None)
                if parent is not None:
                    totals[parent.name] -= span.dur_ns
            stack.append(span)
    return totals


class TestOnePassClock:
    """Pass times come from the pass spans and nowhere else."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_pass_seconds_are_the_exclusive_span_times(self, jobs):
        tracer = Tracer()
        run = run_evaluation(loops=spec95_corpus(n=5), config=CONFIG,
                             jobs=jobs, tracer=tracer)
        totals = exclusive_pass_ns(tracer)
        assert set(run.pass_seconds) == set(totals) == EVAL_PASSES
        assert run.pass_seconds == {name: ns / 1e9 for name, ns in totals.items()}

    @pytest.mark.parametrize("make_clock", [PassClock, Tracer])
    def test_interrupted_cell_leaves_the_next_cell_clean(self, monkeypatch,
                                                         make_clock):
        """Cell 1 dies inside ClusterReschedule (under SpillRetryLoop) with
        a pass span left open past its exit; cell 2 on the same clock must
        time its passes as if cell 1 never ran."""
        clock = make_clock()
        loop = make_kernel("daxpy")
        machine = paper_machine(4, CopyModel.EMBEDDED)

        def interrupted(_self, ctx):
            ctx.tracer.span("Orphan", cat="pass").__enter__()
            raise DeadlineExceeded(1.0)

        with monkeypatch.context() as patch:
            patch.setattr(ClusterReschedule, "run", interrupted)
            with clock.cell(0, "cfg", loop_name=loop.name):
                with pytest.raises(DeadlineExceeded):
                    compile_loop(loop, machine, CONFIG, tracer=clock)
        assert clock._open == []

        before = dict(clock.pass_ns)
        t0 = time.perf_counter_ns()
        with clock.cell(1, "cfg", loop_name=loop.name):
            compile_loop(loop, machine, CONFIG, tracer=clock)
        wall_ns = time.perf_counter_ns() - t0
        assert clock._open == []

        cell2 = {name: ns - before.get(name, 0) for name, ns in clock.pass_ns.items()}
        assert EVAL_PASSES <= set(cell2)
        assert all(ns >= 0 for ns in cell2.values())
        spill_ns = wall_ns
        if clock.enabled:
            (span,) = [s for s in clock.spans
                       if s.loop_index == 1 and s.name == "SpillRetryLoop"]
            spill_ns = span.dur_ns
        assert cell2["SpillRetryLoop"] <= spill_ns
