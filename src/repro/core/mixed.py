"""Mixed functions: software-pipelined loops and straight-line code
partitioned together.

Section 6.3: "our greedy partitioning method is easily applicable to
entire programs, since we could easily use both non-loop and loop code to
build our register component graph and our greedy method works on a
function basis."  This driver realizes that sentence:

1. every straight-line block is list-scheduled on the ideal machine and
   ingested into one function-wide RCG at its nesting depth;
2. every *loop* is modulo-scheduled on the ideal machine and its kernel
   ingested into the **same** RCG (loop depth weighting makes kernel
   registers dominate placement order, as they should);
3. one greedy partition covers the whole function;
4. loops are recompiled for the clustered machine with that partition
   pinned (copy insertion + cluster-constrained modulo rescheduling) and
   blocks are rewritten/rescheduled exactly as in the block-only path.

The result reports both the loop degradation (kernel II growth) and the
block degradation, weighted into one whole-function figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.copies import PartitionedLoop, insert_copies
from repro.core.greedy import Partition, greedy_partition
from repro.core.rcg import RegisterComponentGraph
from repro.core.weights import (
    DEFAULT_HEURISTIC,
    HeuristicConfig,
    build_rcg_from_kernel,
    build_rcg_from_linear,
)
from repro.core.wholefn import _FunctionRewriter
from repro.ddg.builder import build_block_ddg, build_loop_ddg, derive_partitioned_ddg
from repro.ir.block import Loop
from repro.ir.function import Function
from repro.machine.machine import MachineDescription
from repro.machine.presets import ideal_machine
from repro.sched.list_scheduler import list_schedule
from repro.sched.modulo.scheduler import modulo_schedule
from repro.sched.schedule import KernelSchedule, LinearSchedule
from repro.sched.validate import validate_kernel_schedule, validate_linear_schedule


@dataclass
class MixedFunction:
    """A function with straight-line blocks plus innermost loops."""

    name: str
    function: Function
    loops: list[Loop] = field(default_factory=list)

    def registers(self):
        regs = self.function.registers()
        for loop in self.loops:
            regs |= loop.registers()
        return regs


@dataclass
class MixedCompilation:
    """Artifacts of one mixed-function compilation."""

    mixed: MixedFunction
    machine: MachineDescription
    rcg: RegisterComponentGraph
    partition: Partition
    ideal_kernels: dict[str, KernelSchedule]
    clustered_kernels: dict[str, KernelSchedule]
    partitioned_loops: dict[str, PartitionedLoop]
    ideal_blocks: dict[str, LinearSchedule]
    clustered_blocks: dict[str, LinearSchedule]

    # ------------------------------------------------------------------
    def loop_degradation_pct(self) -> float:
        """Mean kernel-II growth across the function's loops."""
        if not self.ideal_kernels:
            return 0.0
        total = 0.0
        for name, ideal in self.ideal_kernels.items():
            total += 100.0 * self.clustered_kernels[name].ii / ideal.ii - 100.0
        return total / len(self.ideal_kernels)

    def weighted_degradation_pct(self, loop_trips: float = 100.0) -> float:
        """One whole-function figure: block cycles (depth-weighted) plus
        loop kernels weighted by an assumed trip count."""
        ideal = clustered = 0.0
        for block in self.mixed.function.blocks:
            w = 10.0 ** block.depth
            ideal += self.ideal_blocks[block.name].length * w
            clustered += self.clustered_blocks[block.name].length * w
        for name, ik in self.ideal_kernels.items():
            ideal += ik.ii * loop_trips
            clustered += self.clustered_kernels[name].ii * loop_trips
        if ideal == 0:
            return 0.0
        return 100.0 * (clustered - ideal) / ideal


def compile_mixed(
    mixed: MixedFunction,
    machine: MachineDescription,
    config: HeuristicConfig = DEFAULT_HEURISTIC,
) -> MixedCompilation:
    """Compile blocks and loops under one function-wide partition."""
    if not machine.is_clustered:
        raise ValueError("compile_mixed targets clustered machines")
    ideal = ideal_machine(width=machine.width, latencies=machine.latencies)

    rcg = RegisterComponentGraph()
    ideal_blocks: dict[str, LinearSchedule] = {}
    block_ddgs = {}
    for block in mixed.function.blocks:
        ddg = build_block_ddg(block, machine.latencies)
        sched = list_schedule(ddg, ideal)
        validate_linear_schedule(sched, ddg)
        ideal_blocks[block.name] = sched
        block_ddgs[block.name] = ddg
        build_rcg_from_linear(sched, ddg, depth=block.depth, config=config, rcg=rcg)

    ideal_kernels: dict[str, KernelSchedule] = {}
    loop_ddgs = {}
    slots_budget = 0
    for loop in mixed.loops:
        ddg = build_loop_ddg(loop, machine.latencies)
        ks = modulo_schedule(loop, ddg, ideal)
        validate_kernel_schedule(ks, ddg)
        ideal_kernels[loop.name] = ks
        loop_ddgs[loop.name] = ddg
        slots_budget = max(slots_budget, machine.fus_per_cluster * ks.ii)
        build_rcg_from_kernel(ks, ddg, config=config, rcg=rcg)

    for reg in mixed.registers():
        rcg.add_node(reg)

    total_block_cycles = sum(s.length for s in ideal_blocks.values())
    slots_per_bank = max(
        slots_budget, machine.fus_per_cluster * max(1, total_block_cycles)
    )
    partition = greedy_partition(
        rcg, machine.n_clusters, config, slots_per_bank=slots_per_bank
    )

    # loops: copies + clustered reschedule under the shared partition
    clustered_kernels: dict[str, KernelSchedule] = {}
    partitioned_loops: dict[str, PartitionedLoop] = {}
    for loop in mixed.loops:
        ploop = insert_copies(loop, partition, machine)
        pddg = derive_partitioned_ddg(loop_ddgs[loop.name], ploop, machine.latencies)
        kernel = modulo_schedule(ploop.loop, pddg, machine)
        validate_kernel_schedule(kernel, pddg)
        clustered_kernels[loop.name] = kernel
        partitioned_loops[loop.name] = ploop

    # blocks: rewrite + clustered list scheduling (reuses the block-path
    # rewriter; the partition object is shared, so cross-references from
    # blocks into loop-defined registers resolve to the same banks)
    rewriter = _FunctionRewriter(mixed.function, partition, machine)
    new_blocks, _copies, _entry = rewriter.rewrite()
    clustered_blocks: dict[str, LinearSchedule] = {}
    for name, block in new_blocks.items():
        ddg = build_block_ddg(block, machine.latencies)
        sched = list_schedule(ddg, machine)
        validate_linear_schedule(sched, ddg)
        clustered_blocks[name] = sched

    return MixedCompilation(
        mixed=mixed,
        machine=machine,
        rcg=rcg,
        partition=partition,
        ideal_kernels=ideal_kernels,
        clustered_kernels=clustered_kernels,
        partitioned_loops=partitioned_loops,
        ideal_blocks=ideal_blocks,
        clustered_blocks=clustered_blocks,
    )
