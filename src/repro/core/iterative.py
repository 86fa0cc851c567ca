"""Iterative partition refinement (the Nystrom/Eichenberger contrast).

Section 6.3: "Nystrom and Eichenberger's partitioning algorithm calls
for iteration.  In that sense, our greedy algorithm can be thought of as
an initial phase before iteration is performed" — and their data showed
iteration cutting the fraction of degraded loops from ~5% to ~2%.  This
module supplies that missing phase: a hill-climbing refinement around the
greedy seed.

Each round evaluates the incumbent partition by actually compiling it
(copy insertion + cluster-constrained modulo reschedule — the true
objective, not a proxy), then proposes moves for the registers most
likely responsible for the damage:

* sources of inserted copies (moving the value to its consumers' bank
  removes the copy outright, the move Nystrom/Eichenberger prioritize
  when the copy sits on a critical recurrence);
* their counterpart: moving a lone consumer toward the value.

A move is kept only if it strictly improves (II, then copy count).  The
search stops after ``max_rounds`` or when no candidate improves.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.copies import insert_copies
from repro.core.greedy import Partition
from repro.ddg.builder import build_loop_ddg, derive_partitioned_ddg
from repro.ddg.graph import DDG
from repro.ir.block import Loop
from repro.ir.registers import SymbolicRegister
from repro.machine.machine import MachineDescription
from repro.sched.modulo.scheduler import SchedulingError, modulo_schedule


@dataclass(frozen=True)
class RefinementStats:
    """What the refinement accomplished (attached to the result)."""

    rounds: int
    moves_tried: int
    moves_kept: int
    initial_ii: int
    final_ii: int
    initial_copies: int
    final_copies: int


def _evaluate(
    loop: Loop, ddg: DDG, partition: Partition, machine: MachineDescription,
    budget_ratio: int,
) -> tuple[int, int]:
    """(achieved II, body copies) of ``partition`` — the real objective.
    ``ddg`` is ``loop``'s DDG; each candidate's graph is derived from it."""
    ploop = insert_copies(loop, partition, machine)
    pddg = derive_partitioned_ddg(ddg, ploop, machine.latencies)
    kernel = modulo_schedule(ploop.loop, pddg, machine, budget_ratio=budget_ratio)
    return kernel.ii, ploop.n_body_copies


def _candidate_moves(
    loop: Loop, partition: Partition, machine: MachineDescription
) -> list[tuple[SymbolicRegister, int]]:
    """(register, new bank) moves targeting current cross-bank traffic."""
    ploop = insert_copies(loop, partition, machine)
    moves: list[tuple[SymbolicRegister, int]] = []
    seen: set[tuple[int, int]] = set()

    for cp in ploop.body_copies:
        src = cp.sources[0]
        assert isinstance(src, SymbolicRegister)
        # move the copied value into the consuming cluster
        key = (src.rid, cp.cluster)
        if key not in seen:
            seen.add(key)
            moves.append((src, cp.cluster))
        # or drag each consumer of the copy back to the value's bank
        home = partition.bank_of(src)
        for op in ploop.loop.ops:
            if cp.dest in op.used() and op.dest is not None:
                origin = ploop.copy_origin.get(op.dest.rid)
                reg = origin if origin is not None else op.dest
                if reg.rid in partition.assignment:
                    key = (reg.rid, home)
                    if key not in seen:
                        seen.add(key)
                        moves.append((reg, home))
    return moves


def refine_partition(
    loop: Loop,
    partition: Partition,
    machine: MachineDescription,
    max_rounds: int = 4,
    budget_ratio: int = 12,
) -> tuple[Partition, RefinementStats]:
    """Hill-climb ``partition``; returns the refined copy and statistics.

    The input partition is not modified.  Registers minted by copy
    insertion are never moved (they are recreated fresh each evaluation).
    """
    best = partition.copy()
    ddg = build_loop_ddg(loop, machine.latencies)
    try:
        best_score = _evaluate(loop, ddg, best, machine, budget_ratio)
    except SchedulingError:  # pragma: no cover - greedy seeds always compile
        raise
    initial_score = best_score

    rounds = tried = kept = 0
    for _ in range(max_rounds):
        rounds += 1
        improved = False
        for reg, bank in _candidate_moves(loop, best, machine):
            if best.bank_of(reg) == bank:
                continue
            tried += 1
            trial = best.copy()
            trial.assign(reg, bank)
            try:
                score = _evaluate(loop, ddg, trial, machine, budget_ratio)
            except SchedulingError:
                continue
            if score < best_score:
                best, best_score = trial, score
                kept += 1
                improved = True
                break  # re-derive candidates from the new incumbent
        if not improved:
            break

    stats = RefinementStats(
        rounds=rounds,
        moves_tried=tried,
        moves_kept=kept,
        initial_ii=initial_score[0],
        final_ii=best_score[0],
        initial_copies=initial_score[1],
        final_copies=best_score[1],
    )
    return best, stats
