"""Register assignment within each bank (paper Section 4, step 5).

"With functional units specified and registers allocated to banks,
perform 'standard' Chaitin/Briggs graph coloring register assignment for
each register bank."

For software-pipelined kernels, values whose lifetimes exceed the
initiation interval would be clobbered by the next iteration's definition;
:mod:`repro.regalloc.mve` plans modulo variable expansion (kernel
unrolling with register renaming) so that interference can be computed on
a cyclic timeline — each name's occupancy mask and each bank's pressure
follow arithmetically from the live ranges, with no per-iteration window
expanded — after which each bank is colored independently with the
Chaitin/Briggs optimistic allocator.  Two names interfere iff their
masks meet, so select works on one union mask per colour; only a bank
with more names than registers builds neighbour bitsets for simplify's
degrees.  Banks that
fail to color surface spill candidates; :mod:`repro.regalloc.spill`
rewrites the loop with spill code and the pipeline recompiles.
"""

from repro.regalloc.liveness import CyclicLiveness, cyclic_liveness
from repro.regalloc.mve import MVEPlan, plan_mve
from repro.regalloc.interference import InterferenceGraph, build_interference
from repro.regalloc.coloring import ColoringResult, chaitin_briggs_color
from repro.regalloc.spill import spill_registers
from repro.regalloc.assignment import BankAssignments, assign_banks
from repro.regalloc.rotating import (
    RotatingAllocation,
    allocate_rotating,
    verify_rotating,
)

__all__ = [
    "CyclicLiveness",
    "cyclic_liveness",
    "MVEPlan",
    "plan_mve",
    "InterferenceGraph",
    "build_interference",
    "ColoringResult",
    "chaitin_briggs_color",
    "spill_registers",
    "BankAssignments",
    "assign_banks",
    "RotatingAllocation",
    "allocate_rotating",
    "verify_rotating",
]
