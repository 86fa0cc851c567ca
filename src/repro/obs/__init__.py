"""Zero-dependency observability layer: tracing + compile metrics.

See :mod:`repro.obs.trace` (the pass clock every compilation is timed
by, hierarchical spans, JSONL / Chrome trace-event export) and
:mod:`repro.obs.metrics` (typed counters, gauges and histograms with
cross-process snapshot merging).  Spans and metrics are off by default;
the pipeline threads them through
``compile_loop(..., tracer=, metrics=)`` and
``run_evaluation(..., tracer=, collect_metrics=)``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricTypeError,
    merge_snapshots,
)
from repro.obs.trace import (
    PassClock,
    Span,
    Tracer,
    export_trace,
    trace_format_for,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricTypeError",
    "MetricsRegistry",
    "merge_snapshots",
    "PassClock",
    "Span",
    "Tracer",
    "export_trace",
    "trace_format_for",
]
