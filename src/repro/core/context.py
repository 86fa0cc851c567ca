"""Compilation context and configuration for the pass-manager pipeline.

A :class:`CompilationContext` carries everything one loop x machine
compilation accumulates as it flows through the pass pipeline: the input
artifacts (loop, machine, config), the evolving intermediate artifacts
(DDG, ideal schedule, RCG, partition, partitioned loop, kernel, bank
assignment) and the tracer whose pass spans time every pass.  Passes
(:mod:`repro.core.passes`) read and write these fields; nothing else
owns mutable compilation state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Literal

from repro.core.weights import DEFAULT_HEURISTIC, HeuristicConfig
from repro.ir.block import Loop
from repro.ir.registers import SymbolicRegister
from repro.machine.machine import MachineDescription
from repro.machine.presets import ideal_machine
from repro.obs.trace import PassClock
from repro.sched.modulo.scheduler import modulo_schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import ArtifactCache, StepFourShare
    from repro.core.copies import PartitionedLoop
    from repro.core.fingerprint import StoreKey, StoreKeyPrefix
    from repro.core.greedy import Partition
    from repro.core.rcg import FrozenRCG
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


@dataclass
class CompilationContext:
    """Mutable state threaded through a :class:`~repro.core.passes.PassPipeline`.

    The ``current_loop`` / ``current_partition`` pair is what step 4
    operates on, and ``current_ddg`` is ``current_loop``'s DDG, from which
    the partitioned DDG is derived; the spill-retry loop rebinds all three
    when it rewrites the loop through memory, so downstream passes and the
    final result always see the post-spill artifacts.
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
    rcg: "FrozenRCG | None" = None
    partition: "Partition | None" = None
    #: optimality certificate when the ``exact`` partitioner ran
    #: (:class:`repro.exact.bnb.ExactProof`); None for every heuristic
    exact_proof: object | None = None

    #: the greedy cell's step-4 share: taken from its copy-model
    #: sibling through the cache, or being filled to offer to it
    share: "StepFourShare | None" = None

    # step 4-5 artifacts (rebound by spill retries)
    current_loop: Loop | None = None
    current_ddg: "DDG | None" = None
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

    # observability (repro.obs); both default to the disabled state — a
    # bare PassClock, which keeps per-pass exclusive times and no spans,
    # and no metrics registry (passes only record metrics into one)
    tracer: PassClock = field(default_factory=PassClock)
    metrics_registry: "MetricsRegistry | None" = None

    stop_requested: bool = False

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
                    kernel = swing_modulo_schedule(loop, ddg, target)
                    sp.set(ii=kernel.ii)
                    return kernel
            return swing_modulo_schedule(loop, ddg, target)
        return modulo_schedule(
            loop, ddg, target, budget_ratio=self.config.budget_ratio,
            tracer=tracer, metrics=self.metrics_registry,
        )

    # ------------------------------------------------------------------
    def run_timed(self, pass_, **info: object):
        """Run one pass against this context inside its pass span.

        The span's tracer keeps the pass's exclusive time: a composite
        pass (SpillRetryLoop) running sub-passes through this same method
        is charged only for the time outside them.
        """
        with self.tracer.span(pass_.name, cat="pass", **info):
            return pass_.run(self)

    def request_stop(self) -> None:
        """Ask the pipeline to short-circuit after the current pass."""
        self.stop_requested = True
