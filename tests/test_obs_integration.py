"""Observability under the parallel runner and a store-backed resume.

Traces must merge deterministically across worker processes (same span
identities as a serial run, keyed by loop id) and a rerun over a partly
filled store must trace each cell exactly once and compile only the
cells the store lacks."""

import pytest

from repro.core.pipeline import PipelineConfig
from repro.evalx.report import render_full_report
from repro.evalx.runner import PAPER_CONFIG_ORDER, config_label, run_evaluation
from repro.obs import Tracer
from repro.store import ArtifactStore
from repro.workloads.corpus import spec95_corpus

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
        from repro.obs import NULL_TRACER

        run = run_evaluation(loops=spec95_corpus(n=3), config=CONFIG,
                             tracer=NULL_TRACER)
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
