"""The compilation pipeline as composable passes (paper Section 4).

Each of the paper's five steps is a :class:`Pass`: a named object whose
``run`` method reads and writes one :class:`~repro.core.context
.CompilationContext`.  A :class:`PassPipeline` composes passes, runs each
inside a pass span of the context's tracer (which keeps per-pass
exclusive wall time) and short-circuits when a pass returns :data:`STOP`
(or the context requests it).

The default pipeline mirrors the monolithic driver this module replaced,
bracketed by the durable-store passes (:class:`StoreLookup` serves a
stored result and short-circuits; :class:`StoreWrite` persists a fresh
one; both are no-ops without an attached :class:`~repro.store
.ArtifactStore`):

1. :class:`BuildDDG`        — dependence graph of the input loop;
2. :class:`IdealSchedule`   — modulo schedule on the monolithic machine;
3. :class:`PartitionPass`   — registers to banks, via the partitioner
   registry (greedy / iterative / bug / uas / random / round_robin /
   single, plus anything registered at runtime);
4. :class:`SpillRetryLoop`  — :class:`InsertCopies` +
   :class:`ClusterReschedule` + :class:`AssignBanks`, retried with spill
   code while a bank's pressure exceeds its capacity;
5. :class:`SimulateCheck`   — optional end-to-end value validation;
6. :class:`ComputeMetrics`  — distill a :class:`~repro.core.results
   .LoopMetrics` for the evaluation harness.

Steps 1-3 consult the context's :class:`~repro.core.cache.ArtifactCache`
(when one is attached): the DDG, the 16-wide ideal schedule and the RCG
built from it are the same for all cluster arrangements, so the
evaluation runner shares them across the six paper configurations.  The
greedy strategy and the first round of step 4 consult it too: the
partition, the copy-inserted loop and its derived DDG are the same for
both copy models of one cluster count, so one cell's
:class:`~repro.core.cache.StepFourShare` serves its sibling.
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from repro.core.baselines import (
    bug_partition,
    random_partition,
    round_robin_partition,
    single_bank_partition,
)
from repro.core.cache import StepFourShare
from repro.core.context import CompilationContext
from repro.core.copies import insert_copies
from repro.core.greedy import Partition, greedy_partition
from repro.core.rcg import FrozenRCG
from repro.core.results import LoopMetrics
from repro.core.weights import build_rcg_from_kernel
from repro.ddg.analysis import min_ii, recurrence_ii, resource_ii
from repro.ddg.builder import build_loop_ddg, derive_partitioned_ddg
from repro.sched.validate import validate_kernel_schedule

#: Sentinel a pass returns to short-circuit the rest of the pipeline.
STOP = object()


@runtime_checkable
class Pass(Protocol):
    """One pipeline stage: transforms the context, optionally stops it."""

    name: str

    def run(self, ctx: CompilationContext) -> object | None:  # pragma: no cover
        ...


class PassPipeline:
    """Run passes in order, each inside its pass span.

    A pass that returns :data:`STOP` — or sets
    ``ctx.request_stop()`` — ends the run after its span closes;
    the remaining passes are skipped.
    """

    def __init__(self, passes: list[Pass]):
        self.passes = list(passes)

    def run(self, ctx: CompilationContext) -> CompilationContext:
        for pass_ in self.passes:
            signal = ctx.run_timed(pass_)
            if signal is STOP or ctx.stop_requested:
                break
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PassPipeline([{', '.join(p.name for p in self.passes)}])"


# ----------------------------------------------------------------------
# Partitioner registry (step 3 strategies)
# ----------------------------------------------------------------------

#: name -> strategy producing a Partition from a context whose DDG and
#: ideal schedule are already built.  ``register_partitioner`` adds to it.
PARTITIONERS: dict[str, Callable[[CompilationContext], Partition]] = {}


def register_partitioner(name: str):
    """Register a partitioning strategy under ``name``.

    The strategy receives the full context (loop, machine, config, DDG,
    ideal schedule) and returns a :class:`~repro.core.greedy.Partition`.
    See docs/architecture.md for the "add a new partitioner" recipe.
    """

    def decorator(fn: Callable[[CompilationContext], Partition]):
        PARTITIONERS[name] = fn
        return fn

    return decorator


def shared_rcg(ctx: CompilationContext) -> FrozenRCG:
    """Set ``ctx.rcg`` to the frozen RCG of the context's ideal schedule.

    With a cache attached the graph is built once per (loop, heuristic)
    and shared by every configuration (see
    :meth:`~repro.core.cache.ArtifactCache.rcg_for`).  One ``build_rcg``
    span is recorded per call, built or reused, so traces do not depend
    on which configuration of a loop ran first.
    """

    def build():
        return build_rcg_from_kernel(ctx.ideal, ctx.ddg, ctx.config.heuristic).freeze()

    def lookup():
        if ctx.cache is None:
            return build()
        return ctx.cache.rcg_for(ctx.ideal, ctx.config.heuristic, build)

    if ctx.tracer.enabled:
        with ctx.tracer.span("build_rcg", cat="substep") as sp:
            ctx.rcg = lookup()
            sp.set(nodes=len(ctx.rcg), edges=ctx.rcg.n_edges)
    else:
        ctx.rcg = lookup()
    return ctx.rcg


def record_rcg_gauges(ctx: CompilationContext, partition: Partition) -> None:
    """The ``rcg.*`` gauges of a partitioner that ran on ``ctx.rcg``."""
    registry = ctx.metrics_registry
    if registry is not None:
        registry.gauge("rcg.nodes").set(len(ctx.rcg))
        registry.gauge("rcg.edges").set(ctx.rcg.n_edges)
        registry.gauge("rcg.cut_weight").set(ctx.rcg.cut_weight(partition.assignment))


def _greedy_sweep(ctx: CompilationContext) -> Partition:
    """The Figure-4 sweep over the shared RCG, as the cell's machine
    asks for it."""
    rcg = shared_rcg(ctx)
    partition = greedy_partition(
        rcg,
        ctx.machine.n_clusters,
        ctx.config.heuristic,
        precolored=ctx.config.precolored,
        slots_per_bank=ctx.machine.fus_per_cluster * ctx.ideal.ii,
        tracer=ctx.tracer if ctx.tracer.enabled else None,
        metrics=ctx.metrics_registry,
    )
    record_rcg_gauges(ctx, partition)
    return partition


def _step_four_key(ctx: CompilationContext) -> tuple:
    """Everything the greedy partition, copy insertion and the derived
    DDG of a spill-free first round read (see
    :class:`~repro.core.cache.StepFourShare`)."""
    machine, config = ctx.machine, ctx.config
    pins = config.precolored
    return (
        ctx.cache.key_for(ctx.loop, machine.latencies, config, machine.width),
        config.heuristic,
        None if pins is None else tuple(sorted((r.rid, b) for r, b in pins.items())),
        machine.n_clusters,
        machine.fus_per_cluster,
    )


@register_partitioner("greedy")
def _greedy(ctx: CompilationContext) -> Partition:
    """The greedy sweep, or, with a cache, the partition its copy-model
    sibling already swept (:class:`~repro.core.cache.StepFourShare`).

    A reused partition records the same ``greedy_partition`` span and
    ``greedy.*`` counters as a swept one, so traces and metric snapshots
    do not depend on which sibling ran first.
    """
    if ctx.cache is None:
        return _greedy_sweep(ctx)
    key = _step_four_key(ctx)
    share = ctx.cache.take_share(key, ctx.loop)
    if share is None:
        ctx.share = StepFourShare(key, ctx.loop, _greedy_sweep(ctx))
        return ctx.share.partition
    ctx.share = share
    rcg = shared_rcg(ctx)
    partition = share.partition
    _replayed(ctx, "greedy_partition", nodes=len(rcg), banks=partition.n_banks,
              bank_sizes=partition.bank_sizes())
    if ctx.metrics_registry is not None:
        pinned = len(ctx.config.precolored or ())
        ctx.metrics_registry.counter("greedy.placements").inc(len(partition) - pinned)
        ctx.metrics_registry.counter("greedy.precolored").inc(pinned)
    record_rcg_gauges(ctx, partition)
    return partition


def _replayed(ctx: CompilationContext, name: str, **args) -> None:
    """The substep span of work a share already did, with the arguments
    the built path's span ends up with (in the same order)."""
    if ctx.tracer.enabled:
        with ctx.tracer.span(name, cat="substep", **args):
            pass


def _shared(ctx: CompilationContext) -> StepFourShare | None:
    """The cell's step-4 share while step 4 still works on the partition
    it was keyed by (the first round; spill rounds re-partition)."""
    share = ctx.share
    if share is not None and share.partition is ctx.current_partition:
        return share
    return None


@register_partitioner("iterative")
def _iterative(ctx: CompilationContext) -> Partition:
    from repro.core.iterative import refine_partition

    partition = _greedy_sweep(ctx)
    partition, _stats = refine_partition(
        ctx.loop, partition, ctx.machine, budget_ratio=ctx.config.budget_ratio
    )
    return partition


@register_partitioner("bug")
def _bug(ctx: CompilationContext) -> Partition:
    return bug_partition(ctx.loop, ctx.ddg, ctx.machine)


@register_partitioner("uas")
def _uas(ctx: CompilationContext) -> Partition:
    from repro.core.uas import uas_partition

    return uas_partition(ctx.loop, ctx.ddg, ctx.machine, budget_ratio=ctx.config.budget_ratio)


@register_partitioner("random")
def _random(ctx: CompilationContext) -> Partition:
    return random_partition(ctx.loop, ctx.machine.n_clusters, seed=ctx.config.seed)


@register_partitioner("round_robin")
def _round_robin(ctx: CompilationContext) -> Partition:
    return round_robin_partition(ctx.loop, ctx.machine.n_clusters)


@register_partitioner("single")
def _single(ctx: CompilationContext) -> Partition:
    return single_bank_partition(ctx.loop, ctx.machine.n_clusters)


@register_partitioner("exact")
def _exact(ctx: CompilationContext) -> Partition:
    # the optimality oracle (ROADMAP item 2): branch-and-bound to a
    # proven optimum, greedy-seeded so it is never worse than "greedy";
    # lazily imported to keep the common pipeline import-light
    from repro.exact.strategy import exact_partition_context

    return exact_partition_context(ctx)


# ----------------------------------------------------------------------
# Concrete passes
# ----------------------------------------------------------------------


class StoreLookup:
    """Step 0: answer the whole compilation from the artifact store.

    When the context carries an :class:`~repro.store.ArtifactStore`, the
    full five-part content key (:func:`repro.core.fingerprint.store_key`)
    is derived and looked up before any compilation work.  On a hit the
    pipeline short-circuits; what gets rebuilt depends on
    ``ctx.store_hydrate``:

    * ``"metrics"`` — only :class:`~repro.core.results.LoopMetrics` is
      materialised (the evaluation runner's warm path; parses a few
      hundred bytes per cell);
    * ``"full"`` — every artifact is rebuilt: step 4 is re-run on the
      stored pre-copy loop and partition (copies re-inserted, the
      partitioned DDG derived, the stored kernel revalidated), so
      downstream consumers (``--emit``, ``--expand``, oracles run by
      hand) see the result a fresh compile gives.

    An entry that decodes but fails hydration is rejected back to the
    store (dropped + reclassified as an invalid miss) and compilation
    proceeds normally — corruption degrades to a recompile, never an
    error or a wrong artifact.
    """

    name = "StoreLookup"

    def run(self, ctx: CompilationContext):
        if ctx.store is None:
            return None
        from repro.core.fingerprint import store_key
        from repro.store.entry import StoreEntryError

        ctx.store_key = store_key(
            ctx.loop, ctx.machine, ctx.config, prefix=ctx.store_prefix
        )
        entry = ctx.store.lookup(ctx.store_key)
        if entry is None:
            return None
        try:
            if ctx.store_hydrate == "metrics":
                ctx.metrics = entry.metrics()
            else:
                self._fill(ctx, entry.hydrate(ctx.loop, ctx.machine))
        except StoreEntryError:
            ctx.store.reject(ctx.store_key)
            return None
        ctx.store_hit = True
        return STOP

    @staticmethod
    def _fill(ctx: CompilationContext, result) -> None:
        ctx.ddg = result.ddg
        ctx.ideal = result.ideal
        ctx.partition = result.partition
        ctx.current_loop = result.precopy_loop
        ctx.current_partition = result.partition
        ctx.partitioned = result.partitioned
        ctx.partitioned_ddg = result.partitioned_ddg
        ctx.kernel = result.kernel
        ctx.bank_assignment = result.bank_assignment
        ctx.metrics = result.metrics
        ctx.spilled_total = result.metrics.spilled_registers


class StoreWrite:
    """Final step: persist the compiled result into the artifact store.

    Runs only when the pipeline actually compiled (no store hit) and
    reached the end with full artifacts; any pass exception aborts the
    pipeline before this point, so failed compilations are never stored.
    """

    name = "StoreWrite"

    def run(self, ctx: CompilationContext) -> None:
        if (
            ctx.store is None
            or ctx.store_hit
            or ctx.metrics is None
            or ctx.kernel is None
            or ctx.partitioned is None
        ):
            return
        from repro.core.fingerprint import store_key
        from repro.core.pipeline import CompilationResult

        if ctx.store_key is None:
            ctx.store_key = store_key(
                ctx.loop, ctx.machine, ctx.config, prefix=ctx.store_prefix
            )
        result = CompilationResult(
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
        )
        ctx.store.put_result(ctx.store_key, result)


class BuildDDG:
    """Step 1-2a: dependence graph of the input loop (cache-aware)."""

    name = "BuildDDG"

    def run(self, ctx: CompilationContext) -> None:
        if ctx.cache is not None:
            cached = ctx.cache.peek_ddg(
                ctx.loop, ctx.machine.latencies, ctx.config, ctx.machine.width
            )
            if cached is not None:
                ctx.ddg = cached
                return
        ctx.ddg = build_loop_ddg(ctx.loop, ctx.machine.latencies)


class IdealSchedule:
    """Step 2b: modulo schedule on the monolithic machine (cache-aware).

    The ideal reference schedule uses a monolithic machine of the same
    width and latency table, per Section 6.2 ("the 16-wide ideal schedule
    is the same no matter the cluster arrangement") — which is exactly
    what makes it shareable across the six clustered configurations.
    """

    name = "IdealSchedule"

    def run(self, ctx: CompilationContext) -> None:
        def build():
            ideal_ks = ctx.schedule(ctx.loop, ctx.ddg, ctx.ideal_target)
            validate_kernel_schedule(ideal_ks, ctx.ddg)
            return ctx.ddg, ideal_ks

        if ctx.cache is not None:
            ctx.ddg, ctx.ideal = ctx.cache.ideal_for(
                ctx.loop, ctx.machine.latencies, ctx.config, ctx.machine.width, build
            )
        else:
            _, ctx.ideal = build()


class PartitionPass:
    """Step 3: assign registers to banks via the strategy registry."""

    name = "PartitionPass"

    def __init__(self, partitioner: str | None = None):
        #: explicit strategy name, or None to follow ``config.partitioner``
        self.partitioner = partitioner

    def run(self, ctx: CompilationContext) -> None:
        name = self.partitioner or ctx.config.partitioner
        try:
            strategy = PARTITIONERS[name]
        except KeyError:
            raise ValueError(
                f"unknown partitioner {name!r}; registered: {sorted(PARTITIONERS)}"
            ) from None
        ctx.partition = strategy(ctx)
        ctx.current_loop = ctx.loop
        ctx.current_ddg = ctx.ddg
        ctx.current_partition = ctx.partition


class InsertCopies:
    """Step 4a: pin ops to clusters and insert cross-bank copies.

    In the first round of a greedy cell the result is taken from, or
    recorded into, the cell's step-4 share.
    """

    name = "InsertCopies"

    def run(self, ctx: CompilationContext) -> None:
        share = _shared(ctx)
        if share is None or share.partitioned is None:
            ctx.partitioned = insert_copies(
                ctx.current_loop, ctx.current_partition, ctx.machine,
                tracer=ctx.tracer if ctx.tracer.enabled else None,
            )
            if share is not None:
                share.partitioned = ctx.partitioned
        else:
            ctx.partitioned = share.partitioned
            _replayed(ctx, "insert_copies",
                      body_copies=share.partitioned.n_body_copies,
                      preheader_copies=share.partitioned.n_preheader_copies)
        if ctx.metrics_registry is not None:
            ctx.metrics_registry.counter("copies.inserted").inc(
                ctx.partitioned.n_body_copies
            )


class ClusterReschedule:
    """Step 4b: derive the partitioned DDG and reschedule under cluster
    constraints.

    The partitioned DDG is derived from ``ctx.current_ddg`` (the DDG of
    the loop copies were inserted into) by
    :func:`~repro.ddg.builder.derive_partitioned_ddg`, never rebuilt:
    same edges, in the same order, as ``build_loop_ddg`` would give, and
    the SCC condensation comes from the source graph's.  In the first
    round of a greedy cell the derived graph is taken from the cell's
    step-4 share, or, once derived, completes the share, which is then
    offered to the copy-model sibling.  With tracing on, the derivation
    and the validation are ``ddg_derive`` and ``validate_kernel``
    substep spans, next to the scheduler's ``ims_attempt`` spans.
    """

    name = "ClusterReschedule"

    def run(self, ctx: CompilationContext) -> None:
        share = _shared(ctx)
        if share is None or share.partitioned_ddg is None:
            ctx.partitioned_ddg = _substep(
                ctx, "ddg_derive", derive_partitioned_ddg,
                ctx.current_ddg, ctx.partitioned, ctx.machine.latencies,
            )
            if share is not None:
                share.partitioned_ddg = ctx.partitioned_ddg
                ctx.cache.offer_share(share)
        else:
            ctx.partitioned_ddg = share.partitioned_ddg
            _replayed(ctx, "ddg_derive")
        ctx.kernel = ctx.schedule(ctx.partitioned.loop, ctx.partitioned_ddg, ctx.machine)
        _substep(ctx, "validate_kernel", validate_kernel_schedule,
                 ctx.kernel, ctx.partitioned_ddg)


def _substep(ctx: CompilationContext, name: str, fn, *args):
    """``fn(*args)``, inside a ``name`` substep span if tracing is on."""
    if not ctx.tracer.enabled:
        return fn(*args)
    with ctx.tracer.span(name, cat="substep"):
        return fn(*args)


class AssignBanks:
    """Step 5: per-bank Chaitin/Briggs assignment.

    Leaves ``ctx.bank_assignment`` set only on success; the failing
    outcome (with its spill candidates) is returned for the retry loop.
    """

    name = "AssignBanks"

    def run(self, ctx: CompilationContext):
        from repro.regalloc.assignment import assign_banks

        outcome = assign_banks(
            ctx.kernel, ctx.partitioned_ddg, ctx.partitioned.partition, ctx.machine
        )
        if ctx.metrics_registry is not None:
            ctx.metrics_registry.counter("regalloc.attempts").inc()
            if outcome.success:
                ctx.metrics_registry.gauge("regalloc.unroll").set(outcome.unroll)
        if outcome.success:
            ctx.bank_assignment = outcome
        return outcome


class SpillRetryLoop:
    """Steps 4-5 with spill retries (composite pass).

    Each round inserts copies, reschedules and runs register assignment;
    on failure it spills the translated candidates, re-partitions the
    rewritten loop with the *same* scheduler and the full greedy
    arguments (capacity-aware ``slots_per_bank``, ``precolored`` pins) as
    the first round, and tries again.  Sub-passes, and each round's
    ``SpillRepartition``, run in their own pass spans tagged with their
    round number.
    """

    name = "SpillRetryLoop"

    def __init__(self):
        self.insert_copies = InsertCopies()
        self.reschedule = ClusterReschedule()
        self.assign_banks = AssignBanks()

    def run(self, ctx: CompilationContext) -> None:
        config = ctx.config
        for round_no in range(config.max_spill_rounds + 1):
            ctx.run_timed(self.insert_copies, round=round_no)
            ctx.run_timed(self.reschedule, round=round_no)

            if not config.run_regalloc:
                return

            outcome = ctx.run_timed(self.assign_banks, round=round_no)
            if outcome.success:
                return
            if round_no == config.max_spill_rounds:
                raise RuntimeError(
                    f"{ctx.loop.name!r}: register assignment still failing after "
                    f"{config.max_spill_rounds} spill rounds on {ctx.machine.name!r}"
                )
            with ctx.tracer.span("SpillRepartition", cat="pass", round=round_no):
                self._spill_and_repartition(ctx, outcome)

    def _spill_and_repartition(self, ctx: CompilationContext, outcome) -> None:
        from repro.regalloc.spill import spill_registers

        tracer = ctx.tracer if ctx.tracer.enabled else None
        # translate candidates back to the pre-partition loop: a spilled
        # copy register means its origin value is the one worth spilling
        translated: list = []
        seen_rids: set[int] = set()
        for reg in outcome.spill_candidates:
            origin = ctx.partitioned.copy_origin.get(reg.rid, reg)
            if origin.rid not in seen_rids:
                seen_rids.add(origin.rid)
                translated.append(origin)
        ctx.current_loop, n_spilled = spill_registers(
            ctx.current_loop, translated, ctx.machine, tracer=tracer
        )
        ctx.spilled_total += n_spilled
        if ctx.metrics_registry is not None:
            ctx.metrics_registry.counter("spill.rounds").inc()
            ctx.metrics_registry.counter("spill.spilled_registers").inc(n_spilled)

        # re-partition the rewritten loop from scratch, through the same
        # scheduler closure and with the same greedy knobs as round one;
        # the next round derives its partitioned DDG from ``sddg``
        sddg = build_loop_ddg(ctx.current_loop, ctx.machine.latencies)
        ctx.current_ddg = sddg
        sideal = ctx.schedule(ctx.current_loop, sddg, ctx.ideal_target)
        srcg = build_rcg_from_kernel(sideal, sddg, ctx.config.heuristic).freeze()
        ctx.current_partition = greedy_partition(
            srcg,
            ctx.machine.n_clusters,
            ctx.config.heuristic,
            precolored=ctx.config.precolored,
            slots_per_bank=ctx.machine.fus_per_cluster * sideal.ii,
            tracer=tracer,
            metrics=ctx.metrics_registry,
        )


class SimulateCheck:
    """Optional end-to-end value validation against the source semantics."""

    name = "SimulateCheck"

    def run(self, ctx: CompilationContext) -> None:
        if not ctx.config.run_simulation:
            return
        from repro.sim.equivalence import check_loop_equivalence

        check_loop_equivalence(
            ctx.loop, ctx.partitioned, ctx.kernel, ctx.partitioned_ddg, ctx.machine,
            trip_count=ctx.config.sim_trip_count,
        )
        ctx.sim_checked = True


class CheckOracles:
    """Opt-in cross-stage differential checking (``--check`` mode).

    Runs every registered oracle in :mod:`repro.check.oracles` against
    the context's final artifacts and raises the first
    :class:`~repro.check.oracles.OracleViolation` so callers (CLI,
    evaluation runner) see oracle failures exactly where a pipeline
    exception would surface.
    """

    name = "CheckOracles"

    def run(self, ctx: CompilationContext) -> None:
        if not ctx.config.run_check:
            return
        from repro.check.oracles import run_oracles, subject_from_context

        subject = subject_from_context(
            ctx, trip_counts=ctx.config.check_trip_counts
        )
        violations = run_oracles(subject)
        if violations:
            raise violations[0]
        ctx.oracle_checked = True


class ComputeMetrics:
    """Distill the context into a :class:`LoopMetrics` for evalx."""

    name = "ComputeMetrics"

    def run(self, ctx: CompilationContext) -> None:
        ideal_for_width = ctx.ideal_target
        n_components = (
            ctx.rcg.n_positive_components if ctx.rcg is not None else 0
        )
        max_pressure = (
            ctx.bank_assignment.max_pressure if ctx.bank_assignment is not None else 0
        )
        proof = ctx.exact_proof
        ctx.metrics = LoopMetrics(
            loop_name=ctx.loop.name,
            machine_name=ctx.machine.name,
            n_ops=len(ctx.loop.ops),
            ideal_ii=ctx.ideal.ii,
            ideal_min_ii=min_ii(ctx.ddg, ideal_for_width),
            ideal_rec_ii=recurrence_ii(ctx.ddg),
            ideal_res_ii=resource_ii(ctx.ddg, ideal_for_width),
            ideal_ipc=ctx.ideal.ipc,
            partitioned_ii=ctx.kernel.ii,
            partitioned_min_ii=min_ii(ctx.partitioned_ddg, ctx.machine),
            partitioned_ipc=ctx.kernel.ipc,
            n_kernel_ops=len(ctx.partitioned.loop.ops),
            n_body_copies=ctx.partitioned.n_body_copies,
            n_preheader_copies=ctx.partitioned.n_preheader_copies,
            n_registers=len(ctx.partitioned.partition),
            n_components=n_components,
            max_bank_pressure=max_pressure,
            spilled_registers=ctx.spilled_total,
            sim_checked=ctx.sim_checked,
            exact_cost=proof.cost if proof is not None else -1,
            exact_bound=proof.bound if proof is not None else -1,
            exact_nodes=proof.nodes if proof is not None else 0,
            exact_proven=proof.proven if proof is not None else False,
            exact_warm_cost=proof.warm_cost if proof is not None else -1,
        )
        registry = ctx.metrics_registry
        if registry is not None:
            m = ctx.metrics
            for name, value in (
                ("loop.n_ops", m.n_ops),
                ("loop.kernel_ops", m.n_kernel_ops),
                ("ideal.ii", m.ideal_ii),
                ("ideal.min_ii", m.ideal_min_ii),
                ("ideal.rec_ii", m.ideal_rec_ii),
                ("ideal.res_ii", m.ideal_res_ii),
                ("ideal.ipc", m.ideal_ipc),
                ("partitioned.ii", m.partitioned_ii),
                ("partitioned.min_ii", m.partitioned_min_ii),
                ("partitioned.ipc", m.partitioned_ipc),
                ("partitioned.normalized_kernel", m.normalized_kernel),
                ("copies.body", m.n_body_copies),
                ("copies.preheader", m.n_preheader_copies),
                ("rcg.components", m.n_components),
                ("partition.registers", m.n_registers),
                ("regalloc.max_pressure", m.max_bank_pressure),
                ("spill.registers", m.spilled_registers),
            ):
                registry.gauge(name).set(value)


def default_passes(config: "object | None" = None) -> list[Pass]:
    """The standard five-step pipeline (plus persistence, validation and
    distillation).  The store passes are no-ops unless the context
    carries an :class:`~repro.store.ArtifactStore`."""
    return [
        StoreLookup(),
        BuildDDG(),
        IdealSchedule(),
        PartitionPass(),
        SpillRetryLoop(),
        SimulateCheck(),
        CheckOracles(),
        ComputeMetrics(),
        StoreWrite(),
    ]
