"""Hierarchical tracing of the compile pipeline, and the pass clock.

A :class:`Tracer` records **spans** — named, timed, nested intervals —
as the pipeline runs: one root span per (loop, configuration) cell, one
span per pass under it (emitted generically by
:meth:`~repro.core.context.CompilationContext.run_timed`), and opt-in
sub-step spans inside the modulo scheduler (per-II attempts with their
backtrack counts), the greedy partitioner, copy insertion and spill
rewriting.  Spans carry monotonic ``perf_counter_ns`` timestamps plus a
deterministic identity — ``(loop_index, config, seq, depth, name)`` —
so traces from different execution strategies (serial, ``--jobs N``
workers, a rerun over a warm store) can be compared and merged by loop id.

The pass span is the only pass timer.  Every tracer is a
:class:`PassClock`: each ``cat="pass"`` span adds its *exclusive*
nanoseconds — its duration less that of the pass spans nested in it —
to ``pass_ns[name]``, so a composite pass (``SpillRetryLoop``) is not
counted twice and the totals sum to the pipeline's wall time.

Tracing is **off by default and cheap when disabled**: a context's
default tracer is a bare :class:`PassClock` (``enabled = False``), whose
non-pass spans are one shared no-op and whose pass spans only read the
clock twice; sub-step sites check ``enabled`` (or an explicit
``tracer=None`` parameter) before doing any work.  The disabled-overhead
budget (≤2% on the compile hot path) is gated by
``benchmarks/check_perf_regression.py``.

Two export formats:

* **JSONL** (``--trace file.jsonl``) — one JSON object per span, sorted
  by (loop, config, seq); trivially greppable/joinable.
* **Chrome trace-event JSON** (``--trace file.json``, the default) — a
  ``{"traceEvents": [...]}`` document of balanced ``B``/``E`` duration
  events loadable in ``chrome://tracing`` / Perfetto.  Each
  configuration becomes a process (pid), each loop a thread (tid), and
  cells are laid out sequentially on one deterministic timeline.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator


@dataclass
class Span:
    """One finished interval.

    ``seq`` is the begin-order of the span *within its cell* (the
    (loop_index, config) scope), and ``depth`` its nesting level; the
    pair reconstructs the span tree without needing comparable
    timestamps, which is what makes cross-process merges deterministic.
    """

    name: str
    cat: str
    t0_ns: int
    t1_ns: int
    depth: int
    seq: int
    loop_index: int | None = None
    config: str | None = None
    args: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.t1_ns - self.t0_ns

    def group_key(self) -> tuple[int, str]:
        """Cells sort by loop id first — the deterministic merge order."""
        return (-1 if self.loop_index is None else self.loop_index,
                self.config or "")

    def identity(self) -> tuple:
        """Timestamp-free identity used by the equivalence tests."""
        return (self.group_key(), self.seq, self.depth, self.name,
                tuple(sorted(self.args.items())))


class _NullSpan:
    """Shared no-op span handle; also serves as a null scope manager."""

    __slots__ = ()

    def set(self, **_args) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    # named parameters, not ``*exc``: no tuple is packed per disabled span
    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _PassSpan:
    """A pass clock's live pass span: charges its exclusive time on exit."""

    __slots__ = ("_clock", "_name", "_t0")

    def __init__(self, clock: "PassClock", name: str):
        self._clock = clock
        self._name = name

    def set(self, **_args) -> None:
        pass

    def __enter__(self) -> "_PassSpan":
        self._clock._open.append(0)
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._clock._close_pass(self._name, time.perf_counter_ns() - self._t0)
        return False


class _CellScope:
    """A pass clock's cell scope: swaps in a fresh open-pass stack on
    entry and puts the saved one back on exit."""

    __slots__ = ("_clock", "_saved")

    def __init__(self, clock: "PassClock"):
        self._clock = clock

    def __enter__(self) -> None:
        clock = self._clock
        self._saved, clock._open = clock._open, []

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._clock._open = self._saved
        return False


class PassClock:
    """The disabled tracer: it records no spans, but times passes.

    ``pass_ns`` maps each pass name to the exclusive nanoseconds of all
    its ``cat="pass"`` spans; :class:`Tracer` keeps the same totals from
    the spans it records.  Every other span is the shared no-op.
    """

    enabled = False
    spans: tuple = ()

    def __init__(self) -> None:
        #: exclusive nanoseconds per pass name, summed over its spans
        self.pass_ns: dict[str, int] = {}
        #: child pass time of each open pass span, innermost last
        self._open: list[int] = []

    def span(self, name: str, cat: str = "pass", **_args) -> "_PassSpan | _NullSpan":
        return _PassSpan(self, name) if cat == "pass" else _NULL_SPAN

    def cell(self, loop_index: int, config: str,
             loop_name: str | None = None) -> "_CellScope":
        """Scope one (loop, config) cell: a fresh open-pass stack for its
        duration, so a span an interrupt left open cannot skew the next."""
        return _CellScope(self)

    def _close_pass(self, name: str, dur_ns: int) -> None:
        opened = self._open
        child_ns = opened.pop()
        if opened:
            opened[-1] += dur_ns
        self.pass_ns[name] = self.pass_ns.get(name, 0) + dur_ns - child_ns

    def add_pass_ns(self, pass_ns: dict[str, int]) -> None:
        """Merge totals kept by another clock (a worker's)."""
        for name, ns in pass_ns.items():
            self.pass_ns[name] = self.pass_ns.get(name, 0) + ns

    def pass_seconds(self) -> dict[str, float]:
        """``pass_ns`` in seconds."""
        return {name: ns / 1e9 for name, ns in self.pass_ns.items()}


class _SpanHandle:
    """Context manager for one live span; ``set()`` attaches args."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def set(self, **args) -> None:
        self._span.args.update(args)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *_exc) -> bool:
        span = self._span
        span.t1_ns = time.perf_counter_ns()
        tracer = self._tracer
        tracer._depth = span.depth
        tracer.spans.append(span)
        if span.cat == "pass":
            tracer._close_pass(span.name, span.dur_ns)
        return False


class Tracer(PassClock):
    """Collects spans; see the module docstring for the span hierarchy."""

    enabled = True

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self._loop_index: int | None = None
        self._config: str | None = None
        self._seq = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, cat: str = "pass", **args) -> _SpanHandle:
        """Open a span; use as a context manager around the work."""
        span = Span(
            name=name,
            cat=cat,
            t0_ns=time.perf_counter_ns(),
            t1_ns=0,
            depth=self._depth,
            seq=self._seq,
            loop_index=self._loop_index,
            config=self._config,
            args=args,
        )
        self._seq += 1
        self._depth += 1
        if cat == "pass":
            self._open.append(0)
        return _SpanHandle(self, span)

    @contextmanager
    def cell(self, loop_index: int, config: str,
             loop_name: str | None = None) -> Iterator[None]:
        """Scope + root span for one (loop, configuration) compilation,
        with a fresh seq counter."""
        args = {"config": config}
        if loop_name is not None:
            args["loop"] = loop_name
        saved = (self._loop_index, self._config, self._seq, self._depth)
        self._loop_index, self._config, self._seq, self._depth = (
            loop_index, config, 0, 0)
        try:
            with super().cell(loop_index, config), \
                    self.span("compile_loop", cat="cell", **args):
                yield
        finally:
            self._loop_index, self._config, self._seq, self._depth = saved

    def add_spans(self, spans: Iterable[Span]) -> None:
        """Merge spans recorded elsewhere (a worker process)."""
        self.spans.extend(spans)

    # ------------------------------------------------------------------
    # inspection / export
    # ------------------------------------------------------------------
    def sorted_spans(self) -> list[Span]:
        """All spans in the deterministic merge order: loop id, config, seq."""
        return sorted(self.spans, key=lambda s: (s.group_key(), s.seq))

    def by_cell(self) -> dict[tuple[int, str], list[Span]]:
        """Spans grouped per cell, each group in seq order."""
        groups: dict[tuple[int, str], list[Span]] = {}
        for span in self.sorted_spans():
            groups.setdefault(span.group_key(), []).append(span)
        return groups

    def export_jsonl(self, fh: IO[str]) -> int:
        """One JSON object per span; returns the number written."""
        n = 0
        for span in self.sorted_spans():
            doc = {
                "name": span.name,
                "cat": span.cat,
                "loop_index": span.loop_index,
                "config": span.config,
                "seq": span.seq,
                "depth": span.depth,
                "dur_us": span.dur_ns // 1000,
                "args": span.args,
            }
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            n += 1
        return n

    def export_chrome(self, fh: IO[str]) -> int:
        """Chrome trace-event JSON; returns the number of B/E events.

        pid = configuration, tid = loop; every cell's spans are rebased
        onto one sequential timeline so the merged trace is monotonic
        and deterministic in structure regardless of which worker
        compiled which cell.  ``B``/``E`` pairs are emitted from the
        recorded (seq, depth) tree, so they are balanced and properly
        nested per (pid, tid) even under timestamp rounding.
        """
        cells = self.by_cell()
        configs = sorted({config for _i, config in cells})
        pids = {config: i + 1 for i, config in enumerate(configs)}

        events: list[dict] = []
        thread_names: dict[tuple[int, int], str] = {}
        cursor = 0
        for (loop_index, config), spans in sorted(cells.items()):
            pid = pids[config]
            tid = loop_index + 2 if loop_index >= 0 else 1
            root = spans[0]
            loop_name = root.args.get("loop")
            if loop_name:
                thread_names.setdefault((pid, tid), str(loop_name))
            base = min(s.t0_ns for s in spans)

            def us(ns: int) -> int:
                return cursor + max(0, (ns - base) // 1000)

            stack: list[Span] = []
            group_cursor = cursor

            def close(span: Span) -> None:
                nonlocal group_cursor
                group_cursor = max(group_cursor, us(span.t1_ns))
                events.append({
                    "name": span.name, "cat": span.cat, "ph": "E",
                    "ts": group_cursor, "pid": pid, "tid": tid,
                })

            for span in spans:  # seq order
                while stack and stack[-1].depth >= span.depth:
                    close(stack.pop())
                group_cursor = max(group_cursor, us(span.t0_ns))
                events.append({
                    "name": span.name, "cat": span.cat, "ph": "B",
                    "ts": group_cursor, "pid": pid, "tid": tid,
                    "args": span.args,
                })
                stack.append(span)
            while stack:
                close(stack.pop())
            cursor = group_cursor + 1  # next cell starts strictly later

        n_duration_events = len(events)
        meta: list[dict] = []
        for config, pid in pids.items():
            meta.append({
                "name": "process_name", "ph": "M", "ts": 0, "pid": pid,
                "tid": 0, "cat": "__metadata",
                "args": {"name": config or "compile"},
            })
        for (pid, tid), name in sorted(thread_names.items()):
            meta.append({
                "name": "thread_name", "ph": "M", "ts": 0, "pid": pid,
                "tid": tid, "cat": "__metadata", "args": {"name": name},
            })
        json.dump({"traceEvents": meta + events, "displayTimeUnit": "ms"},
                  fh, sort_keys=True)
        fh.write("\n")
        return n_duration_events


def trace_format_for(path: str) -> str:
    """``.jsonl`` exports span lines; anything else, Chrome trace JSON."""
    return "jsonl" if str(path).endswith(".jsonl") else "chrome"


def export_trace(tracer: Tracer, fh: IO[str], fmt: str = "chrome") -> int:
    """Write ``tracer`` to ``fh`` in ``fmt`` (``chrome`` | ``jsonl``)."""
    if fmt == "jsonl":
        return tracer.export_jsonl(fh)
    if fmt == "chrome":
        return tracer.export_chrome(fh)
    raise ValueError(f"unknown trace format {fmt!r} (chrome or jsonl)")
