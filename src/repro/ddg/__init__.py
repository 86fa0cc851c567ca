"""Data dependence graphs (paper Section 4, step 2).

Modulo scheduling "requires analysis of the data dependence graph (DDG)
for a loop to determine the minimum number of instructions, MinII,
required between initiating execution of successive loop iterations"
(Section 2).  This package builds loop DDGs with iteration distances,
computes recurrence-constrained lower bounds (RecII), and derives the
slack/"Flexibility" quantities the RCG weighting heuristic consumes.
"""

from repro.ddg.graph import DDG, DepKind
from repro.ddg.builder import build_loop_ddg, build_block_ddg
from repro.ddg.analysis import (
    recurrence_ii,
    resource_ii,
    min_ii,
    critical_cycle_ratio,
    estart_lstart,
    schedule_slack,
    longest_path_heights,
)

__all__ = [
    "DepKind",
    "DDG",
    "build_loop_ddg",
    "build_block_ddg",
    "recurrence_ii",
    "resource_ii",
    "min_ii",
    "critical_cycle_ratio",
    "estart_lstart",
    "schedule_slack",
    "longest_path_heights",
]
