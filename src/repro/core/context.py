"""Compilation context and configuration for the pass-manager pipeline.

A :class:`CompilationContext` carries everything one loop x machine
compilation accumulates as it flows through the pass pipeline: the input
artifacts (loop, machine, config), the evolving intermediate artifacts
(DDG, ideal schedule, RCG, partition, partitioned loop, kernel, bank
assignment) and a structured per-pass event log with wall times.  Passes
(:mod:`repro.core.passes`) read and write these fields; nothing else
owns mutable compilation state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

from repro.core.weights import DEFAULT_HEURISTIC, HeuristicConfig
from repro.ir.block import Loop
from repro.ir.registers import SymbolicRegister
from repro.machine.machine import MachineDescription
from repro.machine.presets import ideal_machine
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.sched.modulo.scheduler import modulo_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ArtifactCache
    from repro.core.copies import PartitionedLoop
    from repro.core.fingerprint import StoreKey, StoreKeyPrefix
    from repro.core.greedy import Partition
    from repro.core.rcg import FrozenRCG, RegisterComponentGraph
    from repro.core.results import LoopMetrics
    from repro.ddg.graph import DDG
    from repro.obs.metrics import MetricsRegistry
    from repro.sched.schedule import KernelSchedule
    from repro.store.tiered import ArtifactStore

PartitionerName = Literal[
    "greedy", "iterative", "bug", "uas", "random", "round_robin", "single", "exact"
]

SchedulerName = Literal["ims", "swing"]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of the end-to-end pipeline."""

    heuristic: HeuristicConfig = DEFAULT_HEURISTIC
    partitioner: PartitionerName = "greedy"
    scheduler: SchedulerName = "ims"
    budget_ratio: int = 12
    run_regalloc: bool = True
    run_simulation: bool = False
    sim_trip_count: int = 6
    #: run the cross-stage differential oracles (repro.check) on the final
    #: artifacts; ``check_trip_counts=()`` lets the checker derive a sweep
    #: from the kernel's stage count
    run_check: bool = False
    check_trip_counts: tuple[int, ...] = ()
    seed: int = 0
    max_spill_rounds: int = 3
    precolored: dict[SymbolicRegister, int] | None = None
    #: modulo-reservation-table backend for both schedulers ("packed" or
    #: "reference"); see :func:`repro.sched.resources.make_mrt`
    mrt_backend: str = "packed"


@dataclass
class PassEvent:
    """One pass execution: what ran, how long it took, what it reported."""

    name: str
    seconds: float
    info: dict[str, object] = field(default_factory=dict)


@dataclass
class CompilationContext:
    """Mutable state threaded through a :class:`~repro.core.passes.PassPipeline`.

    The ``current_loop`` / ``current_partition`` pair is what step 4
    operates on; the spill-retry loop rebinds them when it rewrites the
    loop through memory, so downstream passes and the final result always
    see the post-spill artifacts.
    """

    loop: Loop
    machine: MachineDescription
    config: PipelineConfig = field(default_factory=PipelineConfig)
    cache: "ArtifactCache | None" = None

    # durable artifact store (repro.store): StoreLookup consults it before
    # any compilation work, StoreWrite persists the final result.
    # ``store_hydrate`` picks what a hit rebuilds: "full" (every artifact,
    # for the CLI's emit/trace consumers) or "metrics" (just LoopMetrics —
    # the evaluation runner's warm path).  ``store_prefix`` optionally
    # carries the loop-independent key parts, computed once per
    # configuration by the runner.
    store: "ArtifactStore | None" = None
    store_hydrate: Literal["full", "metrics"] = "full"
    store_prefix: "StoreKeyPrefix | None" = None
    store_key: "StoreKey | None" = None
    store_hit: bool = False

    # step 1-2 artifacts (machine-independent given width + latencies)
    ddg: "DDG | None" = None
    ideal: "KernelSchedule | None" = None

    # step 3 artifacts
    rcg: "FrozenRCG | RegisterComponentGraph | None" = None
    partition: "Partition | None" = None
    #: optimality certificate when the ``exact`` partitioner ran
    #: (:class:`repro.exact.bnb.ExactProof`); None for every heuristic
    exact_proof: object | None = None

    # step 4-5 artifacts (rebound by spill retries)
    current_loop: Loop | None = None
    current_partition: "Partition | None" = None
    partitioned: "PartitionedLoop | None" = None
    partitioned_ddg: "DDG | None" = None
    kernel: "KernelSchedule | None" = None
    bank_assignment: object | None = None
    spilled_total: int = 0

    # validation + distillation
    sim_checked: bool = False
    oracle_checked: bool = False
    metrics: "LoopMetrics | None" = None

    # observability (repro.obs); both default to the disabled state and
    # cost nothing there — NULL_TRACER's hooks are constant-time no-ops
    # and passes only record metrics when a registry is attached
    tracer: "Tracer | NullTracer" = NULL_TRACER
    metrics_registry: "MetricsRegistry | None" = None

    # diagnostics
    events: list[PassEvent] = field(default_factory=list)
    stop_requested: bool = False
    #: child-time accumulators for nested ``run_timed`` calls; composite
    #: passes (SpillRetryLoop) report exclusive time, so summing
    #: ``pass_seconds()`` gives true wall time with no double counting
    _active: list[float] = field(default_factory=list, repr=False)

    # ------------------------------------------------------------------
    @property
    def ideal_target(self) -> MachineDescription:
        """The monolithic machine the ideal schedule targets (Section 6.2)."""
        return ideal_machine(width=self.machine.width, latencies=self.machine.latencies)

    def schedule(self, loop: Loop, ddg: "DDG", target: MachineDescription):
        """Run the configured modulo scheduler (IMS or Swing).

        Every scheduling site in the pipeline — the ideal schedule, the
        cluster-constrained reschedule and the spill-retry re-partition —
        goes through this one closure, so ``config.scheduler`` is honored
        uniformly.
        """
        tracer = self.tracer if self.tracer.enabled else None
        if self.config.scheduler == "swing":
            from repro.sched.modulo.swing import swing_modulo_schedule

            if tracer is not None:
                with tracer.span("swing_schedule", cat="substep") as sp:
                    kernel = swing_modulo_schedule(
                        loop, ddg, target, mrt_backend=self.config.mrt_backend
                    )
                    sp.set(ii=kernel.ii)
                    return kernel
            return swing_modulo_schedule(
                loop, ddg, target, mrt_backend=self.config.mrt_backend
            )
        return modulo_schedule(
            loop, ddg, target, budget_ratio=self.config.budget_ratio,
            tracer=tracer, metrics=self.metrics_registry,
            mrt_backend=self.config.mrt_backend,
        )

    # ------------------------------------------------------------------
    def record(self, name: str, seconds: float, **info: object) -> PassEvent:
        """Append a structured event to the per-pass log."""
        event = PassEvent(name=name, seconds=seconds, info=dict(info))
        self.events.append(event)
        return event

    def run_timed(self, pass_, **info: object):
        """Run one pass against this context, timing and logging it.

        Nested calls (a composite pass running sub-passes through this
        same method) are accounted exclusively: the parent's event holds
        only the time not already attributed to a child event.
        """
        t0 = time.perf_counter()
        self._active.append(0.0)
        span = self.tracer.span(pass_.name, cat="pass", **info)
        try:
            with span:
                signal = pass_.run(self)
        finally:
            elapsed = time.perf_counter() - t0
            child_total = self._active.pop()
            if self._active:
                self._active[-1] += elapsed
            self.record(pass_.name, max(0.0, elapsed - child_total), **info)
        return signal

    def pass_seconds(self) -> dict[str, float]:
        """Aggregate exclusive wall time per pass name (rounds accumulate)."""
        totals: dict[str, float] = {}
        for event in self.events:
            totals[event.name] = totals.get(event.name, 0.0) + event.seconds
        return totals

    def request_stop(self) -> None:
        """Ask the pipeline to short-circuit after the current pass."""
        self.stop_requested = True
