"""Tracer span semantics and export formats (repro.obs.trace)."""

import io
import json
import time

import pytest

from repro.core.pipeline import PipelineConfig, compile_loop
from repro.machine.machine import CopyModel
from repro.machine.presets import paper_machine
from repro.obs import PassClock, Tracer, export_trace, trace_format_for
from repro.workloads.kernels import make_kernel


def traced_compile(loop_name: str = "daxpy", n_clusters: int = 4) -> Tracer:
    tracer = Tracer()
    loop = make_kernel(loop_name)
    machine = paper_machine(n_clusters, CopyModel.EMBEDDED)
    with tracer.cell(0, f"{n_clusters}c", loop_name=loop.name):
        compile_loop(loop, machine, PipelineConfig(run_regalloc=False), tracer=tracer)
    return tracer


class TestSpanRecording:
    def test_nesting_depth_and_seq(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner_a"):
                pass
            with t.span("inner_b"):
                with t.span("leaf"):
                    pass
        by_name = {s.name: s for s in t.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner_a"].depth == by_name["inner_b"].depth == 1
        assert by_name["leaf"].depth == 2
        # seq is begin order, not completion order
        assert [s.name for s in t.sorted_spans()] == [
            "outer", "inner_a", "inner_b", "leaf"
        ]
        assert [s.seq for s in t.sorted_spans()] == [0, 1, 2, 3]

    def test_timestamps_are_monotonic_and_span_args(self):
        t = Tracer()
        with t.span("work", items=3) as sp:
            time.sleep(0.001)
            sp.set(result="done")
        (span,) = t.spans
        assert span.t1_ns > span.t0_ns
        assert span.dur_ns == span.t1_ns - span.t0_ns
        assert span.args == {"items": 3, "result": "done"}

    def test_cell_scope_resets_seq_and_sets_identity(self):
        t = Tracer()
        for i, config in ((0, "A"), (1, "A"), (0, "B")):
            with t.cell(i, config, loop_name=f"loop{i}"):
                with t.span("pass1"):
                    pass
        cells = t.by_cell()
        assert set(cells) == {(0, "A"), (1, "A"), (0, "B")}
        for key, spans in cells.items():
            assert [s.name for s in spans] == ["compile_loop", "pass1"]
            assert [s.seq for s in spans] == [0, 1]
            assert spans[0].cat == "cell"
            assert spans[0].args["config"] == key[1]

    def test_cell_scope_restores_outer_state(self):
        t = Tracer()
        with t.span("outer"):
            with t.cell(7, "cfg"):
                pass
            with t.span("after_cell"):
                pass
        by_name = {s.name: s for s in t.spans}
        # after the cell, the outer scope's seq/depth continue
        assert by_name["after_cell"].depth == 1
        assert by_name["after_cell"].loop_index is None
        assert by_name["compile_loop"].loop_index == 7

    def test_identity_is_timestamp_free(self):
        t1, t2 = Tracer(), Tracer()
        for t in (t1, t2):
            with t.cell(3, "cfg", loop_name="x"):
                with t.span("p", k=1):
                    pass
        ids1 = [s.identity() for s in t1.sorted_spans()]
        ids2 = [s.identity() for s in t2.sorted_spans()]
        assert ids1 == ids2

    def test_add_spans_merges_deterministically(self):
        t1, t2 = Tracer(), Tracer()
        with t2.cell(1, "cfg"):
            pass
        with t1.cell(0, "cfg"):
            pass
        merged = Tracer()
        merged.add_spans(t2.spans)
        merged.add_spans(t1.spans)
        assert [s.loop_index for s in merged.sorted_spans()] == [0, 1]


class TestPassClock:
    def test_disabled_and_noop(self):
        clock = PassClock()
        assert clock.enabled is False
        assert isinstance(Tracer(), PassClock)
        with clock.span("anything", cat="substep", k=1) as sp:
            sp.set(extra=2)
        with clock.cell(0, "cfg", loop_name="x"):
            pass
        assert clock.spans == ()
        assert clock.pass_ns == {}

    def test_compile_loop_default_records_nothing(self):
        loop = make_kernel("daxpy")
        machine = paper_machine(2, CopyModel.EMBEDDED)
        result = compile_loop(loop, machine, PipelineConfig(run_regalloc=False))
        assert result.compile_metrics is None


class TestPipelineSpans:
    def test_compile_produces_expected_hierarchy(self):
        tracer = traced_compile()
        names = [s.name for s in tracer.sorted_spans()]
        assert names[0] == "compile_loop"
        for expected in ("BuildDDG", "IdealSchedule", "ims_attempt",
                         "build_rcg", "greedy_partition", "insert_copies",
                         "ComputeMetrics"):
            assert expected in names
        root = tracer.sorted_spans()[0]
        assert root.depth == 0
        assert all(s.depth >= 1 for s in tracer.sorted_spans()[1:])

    def test_substep_spans_nest_under_their_pass(self):
        tracer = traced_compile()
        spans = tracer.sorted_spans()
        by_name = {s.name: s for s in spans}
        assert by_name["ims_attempt"].depth > by_name["IdealSchedule"].depth
        assert by_name["greedy_partition"].depth > by_name["PartitionPass"].depth
        assert "ii" in by_name["ims_attempt"].args
        assert "bank_sizes" in by_name["greedy_partition"].args


class TestChromeExport:
    def export(self, tracer: Tracer) -> dict:
        buf = io.StringIO()
        n = export_trace(tracer, buf, "chrome")
        doc = json.loads(buf.getvalue())
        assert n > 0
        return doc

    def test_schema_every_event_complete(self):
        doc = self.export(traced_compile())
        assert "traceEvents" in doc
        for event in doc["traceEvents"]:
            for field in ("ph", "ts", "pid", "tid", "name"):
                assert field in event, f"event missing {field}: {event}"
            assert event["ph"] in ("B", "E", "M")

    def test_begin_end_balanced_and_nested_per_thread(self):
        doc = self.export(traced_compile())
        stacks: dict[tuple, list[str]] = {}
        for event in doc["traceEvents"]:
            key = (event["pid"], event["tid"])
            if event["ph"] == "B":
                stacks.setdefault(key, []).append(event["name"])
            elif event["ph"] == "E":
                assert stacks.get(key), f"E without B on {key}"
                assert stacks[key].pop() == event["name"]
        assert all(not stack for stack in stacks.values())

    def test_timestamps_monotonic_per_thread(self):
        tracer = Tracer()
        for i in range(3):
            loop = make_kernel("daxpy")
            machine = paper_machine(2, CopyModel.EMBEDDED)
            with tracer.cell(i, "2c", loop_name=loop.name):
                compile_loop(loop, machine, PipelineConfig(run_regalloc=False),
                             tracer=tracer)
        doc = self.export(tracer)
        last: dict[tuple, int] = {}
        for event in doc["traceEvents"]:
            if event["ph"] == "M":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last.get(key, 0)
            last[key] = event["ts"]

    def test_metadata_names_processes_and_threads(self):
        doc = self.export(traced_compile())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in meta}
        proc = next(e for e in meta if e["name"] == "process_name")
        assert proc["args"]["name"] == "4c"
        thread = next(e for e in meta if e["name"] == "thread_name")
        assert thread["args"]["name"] == "daxpy"


class TestJsonlExport:
    def test_one_valid_object_per_span_in_merge_order(self):
        tracer = traced_compile()
        buf = io.StringIO()
        n = export_trace(tracer, buf, "jsonl")
        lines = buf.getvalue().splitlines()
        assert n == len(lines) == len(tracer.spans)
        docs = [json.loads(line) for line in lines]
        assert [d["seq"] for d in docs] == sorted(d["seq"] for d in docs)
        assert docs[0]["name"] == "compile_loop"
        assert all(d["dur_us"] >= 0 for d in docs)


class TestFormatSelection:
    def test_extension_mapping(self):
        assert trace_format_for("trace.jsonl") == "jsonl"
        assert trace_format_for("trace.json") == "chrome"
        assert trace_format_for("anything") == "chrome"

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown trace format"):
            export_trace(Tracer(), io.StringIO(), "xml")
