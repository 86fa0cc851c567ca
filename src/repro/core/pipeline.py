"""The end-to-end five-step compilation pipeline (paper Section 4).

    1. intermediate code with symbolic registers (input Loop);
    2. DDG + ideal schedule on the monolithic machine;
    3. RCG partitioning of registers to banks;
    4. copy insertion, the partitioned DDG derived from the ideal one
       (ops renamed, copy-split flow edges spliced in), cluster-constrained
       rescheduling;
    5. Chaitin/Briggs register assignment within each bank.

Since the pass-manager refactor the actual stages live in
:mod:`repro.core.passes` (as :class:`~repro.core.passes.Pass` objects
composed by a :class:`~repro.core.passes.PassPipeline`) and the mutable
state in :mod:`repro.core.context`.  This module keeps the stable
entry-point surface: :func:`compile_loop` builds a context, runs the
default pipeline over it and distills a :class:`CompilationResult`.
Pass ``cache=`` an :class:`~repro.core.cache.ArtifactCache` to share the
machine-independent DDG + ideal schedule across calls (the evaluation
runner does, across the six paper configurations).  Pass times are kept
by the ``tracer=`` passed in (see :mod:`repro.obs.trace`), not on the
result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Re-exported for backwards compatibility: these names historically lived
# here and are imported all over the tests, benchmarks and examples.
from repro.core.cache import ArtifactCache
from repro.core.context import (
    CompilationContext,
    PartitionerName,
    PipelineConfig,
    SchedulerName,
)
from repro.core.copies import PartitionedLoop
from repro.core.greedy import Partition
from repro.core.passes import PassPipeline, default_passes
from repro.core.results import LoopMetrics
from repro.core.rcg import FrozenRCG, RegisterComponentGraph
from repro.ddg.graph import DDG
from repro.ir.block import Loop
from repro.machine.machine import MachineDescription
from repro.sched.schedule import KernelSchedule

__all__ = [
    "ArtifactCache",
    "CompilationContext",
    "CompilationResult",
    "PartitionerName",
    "PipelineConfig",
    "SchedulerName",
    "compile_loop",
]


@dataclass
class CompilationResult:
    """All artifacts of one loop x machine compilation.

    ``partition`` is the *final* pre-copy partition — after any spill
    rounds — so it is always consistent with ``partitioned`` and
    ``metrics`` (every register it places has the same bank in
    ``partitioned.partition``, which extends it with copy destinations).
    """

    loop: Loop
    machine: MachineDescription
    ideal: KernelSchedule
    ddg: DDG
    rcg: FrozenRCG | RegisterComponentGraph | None
    partition: Partition
    partitioned: PartitionedLoop
    kernel: KernelSchedule
    partitioned_ddg: DDG
    metrics: LoopMetrics
    bank_assignment: "object | None" = None  # regalloc.assignment.BankAssignments
    scheduler_stats: dict = field(default_factory=dict)
    #: the pre-copy loop ``partition`` actually describes: the input loop,
    #: or its spill-rewritten successor after spill rounds.  The
    #: cross-stage oracles (repro.check) count communication demand on it.
    precopy_loop: Loop | None = None
    #: snapshot of the per-compilation MetricsRegistry (repro.obs) when
    #: metrics collection was requested; None otherwise
    compile_metrics: dict | None = None
    #: True when this result was served from the artifact store rather
    #: than compiled; hydrated results carry no rcg/scheduler_stats
    store_hit: bool = False


#: passes keep no state between runs, so every compilation shares these
_DEFAULT_PIPELINE = PassPipeline(default_passes())


def compile_loop(
    loop: Loop,
    machine: MachineDescription,
    config: PipelineConfig = PipelineConfig(),
    cache: ArtifactCache | None = None,
    tracer: "object | None" = None,
    metrics: "object | bool | None" = None,
    store: "object | None" = None,
    store_hydrate: str = "full",
    store_prefix: "object | None" = None,
) -> CompilationResult:
    """Compile ``loop`` for the clustered ``machine``; see module docs.

    Thin wrapper over the default :class:`~repro.core.passes
    .PassPipeline`; kept so every historical call site (CLI, benchmarks,
    evalx, examples) works unchanged.

    ``tracer`` (a :class:`repro.obs.PassClock`, or a
    :class:`repro.obs.Tracer` to also record hierarchical spans for every
    pass and opt-in sub-step) keeps the per-pass exclusive wall times in
    its ``pass_ns``; without one the context's own clock times the passes
    and is dropped.  ``metrics`` — ``True`` for a
    fresh :class:`repro.obs.MetricsRegistry` or an existing registry —
    collects typed compile metrics, snapshotted into the result's
    ``compile_metrics``.  Both default to disabled and change nothing
    about the compilation itself.

    ``store`` (a :class:`repro.store.ArtifactStore`) makes the
    compilation durable: a stored result for the same content key is
    served instead of running the pipeline (``result.store_hit``), and a
    fresh compilation is written back.  ``store_hydrate`` picks how much
    a hit rebuilds (``"full"`` artifacts, or just ``"metrics"``);
    ``store_prefix`` optionally carries the loop-independent key parts
    for callers compiling many loops against one configuration.
    """
    if not machine.is_clustered:
        raise ValueError("compile_loop targets clustered machines; "
                         "use modulo_schedule directly for the ideal model")

    registry = None
    if metrics is not None and metrics is not False:
        if metrics is True:
            from repro.obs.metrics import MetricsRegistry

            registry = MetricsRegistry()
        else:
            registry = metrics

    ctx = CompilationContext(
        loop=loop, machine=machine, config=config, cache=cache,
        store=store, store_hydrate=store_hydrate, store_prefix=store_prefix,
    )
    if tracer is not None:
        ctx.tracer = tracer
    ctx.metrics_registry = registry
    cache_stats0 = (
        (cache.stats.hits, cache.stats.misses)
        if registry is not None and cache is not None else None
    )
    store_stats0 = (
        (store.stats.hits, store.stats.misses,
         store.stats.invalid, store.stats.writes)
        if registry is not None and store is not None else None
    )
    _DEFAULT_PIPELINE.run(ctx)
    if cache_stats0 is not None:
        registry.counter("cache.hits").inc(cache.stats.hits - cache_stats0[0])
        registry.counter("cache.misses").inc(cache.stats.misses - cache_stats0[1])
    if store_stats0 is not None:
        registry.counter("store.hits").inc(store.stats.hits - store_stats0[0])
        registry.counter("store.misses").inc(store.stats.misses - store_stats0[1])
        registry.counter("store.invalid").inc(store.stats.invalid - store_stats0[2])
        registry.counter("store.writes").inc(store.stats.writes - store_stats0[3])
    return CompilationResult(
        loop=ctx.loop,
        machine=ctx.machine,
        ideal=ctx.ideal,
        ddg=ctx.ddg,
        rcg=ctx.rcg,
        partition=ctx.current_partition,
        partitioned=ctx.partitioned,
        kernel=ctx.kernel,
        partitioned_ddg=ctx.partitioned_ddg,
        metrics=ctx.metrics,
        bank_assignment=ctx.bank_assignment,
        precopy_loop=ctx.current_loop,
        compile_metrics=registry.snapshot() if registry is not None else None,
        store_hit=ctx.store_hit,
    )
