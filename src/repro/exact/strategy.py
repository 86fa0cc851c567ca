"""The ``exact`` partitioner strategy for the pass pipeline.

Registered in :data:`repro.core.passes.PARTITIONERS` under ``"exact"``
(selectable via ``PipelineConfig(partitioner="exact")`` and
``--partitioner exact``), this strategy:

1. takes the RCG from the same shared helper as the greedy strategy
   (:func:`repro.core.passes.shared_rcg`: same kernel, same heuristic
   config, built once per loop under a cache), so variable order and
   benefit signals match;
2. runs the Figure-4 greedy for the warm-start incumbent — the exact
   result is therefore never worse than the heuristic, even if a
   surrounding :func:`repro.core.faults.deadline` interrupts the search;
3. solves the loop to proven optimality with :func:`repro.exact.bnb
   .solve_exact` and stashes the :class:`~repro.exact.bnb.ExactProof`
   on ``ctx.exact_proof``, which :class:`~repro.core.passes
   .ComputeMetrics` copies into the ``exact_*`` fields of
   :class:`~repro.core.results.LoopMetrics`.

The solver runs unbounded here: under the evaluation runner / serve
workers the per-cell ``deadline`` is the budget, and an expired budget
degrades the cell to a typed ``timeout`` failure (never a hang, never a
wrong answer).  Direct API callers wanting a softer stop can call
``solve_exact`` themselves with ``node_limit``/``time_budget``.
"""

from __future__ import annotations

from repro.core.context import CompilationContext
from repro.core.greedy import Partition, greedy_partition
from repro.core.passes import record_rcg_gauges, shared_rcg
from repro.exact.bnb import solve_exact
from repro.exact.cost import build_problem


def exact_partition_context(ctx: CompilationContext) -> Partition:
    """Partition ``ctx``'s loop to proven optimality (pipeline entry)."""
    tracer = ctx.tracer if ctx.tracer.enabled else None
    registry = ctx.metrics_registry
    rcg = shared_rcg(ctx)
    slots_per_bank = ctx.machine.fus_per_cluster * ctx.ideal.ii
    warm = greedy_partition(
        rcg,
        ctx.machine.n_clusters,
        ctx.config.heuristic,
        precolored=ctx.config.precolored,
        slots_per_bank=slots_per_bank,
        tracer=tracer,
        metrics=registry,
    )
    problem = build_problem(
        ctx.loop,
        ctx.machine.n_clusters,
        slots_per_bank=slots_per_bank,
        precolored=ctx.config.precolored,
    )
    # the warm partition may carry RCG-only registers (never read or
    # written by a body op); they are cost-irrelevant, so the solver
    # ignores them and their greedy banks are kept verbatim below
    if tracer is not None:
        with tracer.span(
            "exact_bnb", cat="substep", regs=problem.n_regs,
            banks=problem.n_banks,
        ) as sp:
            partition, proof = solve_exact(problem, warm=warm, rcg=rcg)
            sp.set(nodes=proof.nodes, cost=proof.cost, proven=proof.proven)
    else:
        partition, proof = solve_exact(problem, warm=warm, rcg=rcg)

    solved = set(partition.assignment)
    for bank in range(warm.n_banks):
        for reg in warm.registers_in_bank(bank):
            if reg.rid not in solved:
                partition.assign(reg, bank)

    ctx.exact_proof = proof
    record_rcg_gauges(ctx, partition)
    if registry is not None:
        registry.gauge("exact.cost").set(proof.cost)
        registry.gauge("exact.bound").set(proof.bound)
        registry.gauge("exact.nodes").set(proof.nodes)
        registry.gauge("exact.proven").set(int(proof.proven))
        registry.gauge("exact.warm_cost").set(proof.warm_cost)
    return partition
