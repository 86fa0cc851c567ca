"""Per-bank register assignment driver.

Runs cyclic liveness + MVE once per kernel, sweeps the MVE plan once
into every bank's names and occupancy masks, then colors each bank
independently with ``regs_per_bank`` colors — the banks are
architecturally separate, so their assignments never interact (that
separation is the entire point of the partitioned organization).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.greedy import Partition
from repro.ddg.graph import DDG
from repro.ir.registers import SymbolicRegister
from repro.machine.machine import MachineDescription
from repro.regalloc.coloring import ColoringResult, chaitin_briggs_color
from repro.regalloc.interference import bank_interference
from repro.regalloc.liveness import cyclic_liveness
from repro.regalloc.mve import plan_mve
from repro.sched.schedule import KernelSchedule


@dataclass
class BankAssignments:
    """Result of step 5 for one kernel."""

    success: bool
    unroll: int
    per_bank: dict[int, ColoringResult] = field(default_factory=dict)
    #: (rid, replica) -> (bank, physical register index)
    physical: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    max_pressure: int = 0
    spill_candidates: list[SymbolicRegister] = field(default_factory=list)

    def physical_name(self, rid: int, replica: int = 0) -> str:
        bank, idx = self.physical[(rid, replica)]
        return f"b{bank}.r{idx}"


def assign_banks(
    kernel: KernelSchedule,
    ddg: DDG,
    partition: Partition,
    machine: MachineDescription,
) -> BankAssignments:
    """Color each bank; on failure, surface spill candidates.

    Spill candidates are body-defined registers (loop-invariant live-ins
    are excluded — spilling them needs a preheader store this allocator
    does not emit; if a bank cannot even hold its invariants the caller's
    retry loop reports the hard failure).
    """
    liveness = cyclic_liveness(kernel, ddg)
    plan = plan_mve(liveness)
    depth_weight = 10.0 ** kernel.loop.depth

    def spill_cost(name: tuple[int, int]) -> float:
        lr = liveness.ranges[name[0]]
        if lr.invariant:
            return float("inf")  # never choose an invariant
        return (lr.n_uses + 1) * depth_weight

    result = BankAssignments(success=True, unroll=plan.unroll)
    for bank, graph in bank_interference(plan, partition.assignment).items():
        result.max_pressure = max(result.max_pressure, graph.max_pressure)
        coloring = chaitin_briggs_color(graph, machine.regs_per_bank, spill_cost)
        coloring.verify(graph)
        result.per_bank[bank] = coloring
        for name, color in coloring.colors.items():
            result.physical[name] = (bank, color)
        if not coloring.success:
            result.success = False
            seen: set[int] = set()
            for rid, _replica in coloring.spilled:
                if rid in seen or liveness.ranges[rid].invariant:
                    continue
                seen.add(rid)
                result.spill_candidates.append(liveness.ranges[rid].reg)
    return result
