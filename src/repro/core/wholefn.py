"""The function-level driver: straight-line blocks and pipelined loops
partitioned together.

"Our framework and greedy partitioning method are applicable to both
whole programs and software pipelined loops" (Section 7), and "we could
easily use both non-loop and loop code to build our register component
graph and our greedy method works on a function basis" (Section 6.3).
:func:`compile_function` realizes both sentences with steps 2-4 of the
paper's flow:

2. every block is list-scheduled on the ideal machine and every loop is
   modulo-scheduled on it; all of them feed one function-wide RCG (blocks
   weighted by nesting depth, kernels by loop weighting);
3. one greedy partition covers the whole function;
4. loops get copies and a cluster-constrained modulo reschedule, then
   blocks get copies and a cluster-constrained list reschedule, all under
   that partition, so registers shared between loops and blocks resolve
   to the same bank.

A function without loops is the plain whole-function path; it also
reproduces the Section 4.2 worked example, which is straight-line code.
:class:`MixedFunction` bundles a function's blocks with its innermost
loops (Section 6.3).

Copy placement for acyclic code: a cross-bank read of a value defined in
the same block gets its copy right after the definition; a value defined
in another block (or a function live-in) is copied at the top of the
consuming block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.copies import PartitionedLoop, insert_copies
from repro.core.greedy import Partition, greedy_partition
from repro.core.rcg import FrozenRCG, RegisterComponentGraph
from repro.core.weights import (
    DEFAULT_HEURISTIC,
    HeuristicConfig,
    build_rcg_from_kernel,
    build_rcg_from_linear,
)
from repro.ddg.builder import build_block_ddg, build_loop_ddg, derive_partitioned_ddg
from repro.ir.block import BasicBlock, Loop
from repro.ir.function import Function
from repro.ir.operations import Operation, make_copy
from repro.ir.registers import RegisterFactory, SymbolicRegister
from repro.machine.machine import MachineDescription
from repro.machine.presets import ideal_machine
from repro.sched.list_scheduler import list_schedule
from repro.sched.modulo.scheduler import modulo_schedule
from repro.sched.schedule import KernelSchedule, LinearSchedule
from repro.sched.validate import validate_kernel_schedule, validate_linear_schedule


@dataclass
class MixedFunction:
    """A function with straight-line blocks plus innermost loops; compile
    it with ``compile_function(mixed.function, machine, loops=mixed.loops)``."""

    name: str
    function: Function
    loops: list[Loop] = field(default_factory=list)

    def registers(self):
        regs = self.function.registers()
        for loop in self.loops:
            regs |= loop.registers()
        return regs


@dataclass
class FunctionCompilation:
    """Artifacts and metrics of one function compilation."""

    function: Function
    machine: MachineDescription
    rcg: FrozenRCG
    partition: Partition
    ideal_schedules: dict[str, LinearSchedule]
    clustered_blocks: dict[str, BasicBlock]
    clustered_schedules: dict[str, LinearSchedule]
    n_copies: int
    n_entry_copies: int
    ideal_kernels: dict[str, KernelSchedule] = field(default_factory=dict)
    clustered_kernels: dict[str, KernelSchedule] = field(default_factory=dict)
    partitioned_loops: dict[str, PartitionedLoop] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def ideal_cycles(self) -> int:
        """Sum of ideal block schedule lengths (static)."""
        return sum(s.length for s in self.ideal_schedules.values())

    def clustered_cycles(self) -> int:
        return sum(s.length for s in self.clustered_schedules.values())

    def weighted_cycles(self, schedules: dict[str, LinearSchedule]) -> float:
        """Depth-weighted cycle estimate (inner blocks execute ~10x more
        often per nesting level, the classic static frequency guess)."""
        total = 0.0
        for block in self.function.blocks:
            total += schedules[block.name].length * (10.0 ** block.depth)
        return total

    def loop_degradation_pct(self) -> float:
        """Mean kernel-II growth across the function's loops."""
        if not self.ideal_kernels:
            return 0.0
        total = 0.0
        for name, ideal in self.ideal_kernels.items():
            total += 100.0 * self.clustered_kernels[name].ii / ideal.ii - 100.0
        return total / len(self.ideal_kernels)

    def weighted_degradation_pct(self, loop_trips: float = 100.0) -> float:
        """One whole-function slowdown of the clustered code over ideal:
        block cycles (depth-weighted) plus loop kernels weighted by an
        assumed trip count; 0.0 for a function with no ideal cycles."""
        ideal = self.weighted_cycles(self.ideal_schedules)
        clustered = self.weighted_cycles(self.clustered_schedules)
        for name, ik in self.ideal_kernels.items():
            ideal += ik.ii * loop_trips
            clustered += self.clustered_kernels[name].ii * loop_trips
        if ideal == 0:
            return 0.0
        return 100.0 * (clustered - ideal) / ideal

    @property
    def degradation_pct(self) -> float:
        return self.weighted_degradation_pct()


def compile_function(
    fn: Function,
    machine: MachineDescription,
    config: HeuristicConfig = DEFAULT_HEURISTIC,
    precolored: dict[SymbolicRegister, int] | None = None,
    loops: Iterable[Loop] = (),
) -> FunctionCompilation:
    """Compile ``fn``'s blocks and ``loops`` under one function-wide
    partition; see module docs."""
    loops = list(loops)
    if not machine.is_clustered:
        raise ValueError("compile_function targets clustered machines")
    if not fn.blocks and not loops:
        raise ValueError(f"function {fn.name!r} has no blocks")
    seen: set[str] = set()
    for loop in loops:
        if loop.name in seen:
            raise ValueError(f"duplicate loop name {loop.name!r} in {fn.name!r}")
        seen.add(loop.name)

    ideal = ideal_machine(width=machine.width, latencies=machine.latencies)

    # step 2: ideal schedules of blocks and loops, one function-wide RCG
    builder = RegisterComponentGraph()
    ideal_schedules: dict[str, LinearSchedule] = {}
    for block in fn.blocks:
        ddg = build_block_ddg(block, machine.latencies)
        sched = list_schedule(ddg, ideal)
        validate_linear_schedule(sched, ddg)
        ideal_schedules[block.name] = sched
        build_rcg_from_linear(sched, ddg, depth=block.depth, config=config, rcg=builder)
    ideal_kernels: dict[str, KernelSchedule] = {}
    loop_ddgs = {}
    slots_per_bank = 0
    for loop in loops:
        ddg = build_loop_ddg(loop, machine.latencies)
        ks = modulo_schedule(loop, ddg, ideal)
        validate_kernel_schedule(ks, ddg)
        ideal_kernels[loop.name] = ks
        loop_ddgs[loop.name] = ddg
        slots_per_bank = max(slots_per_bank, machine.fus_per_cluster * ks.ii)
        build_rcg_from_kernel(ks, ddg, config=config, rcg=builder)
    registers = fn.registers()
    for loop in loops:
        registers |= loop.registers()
    for reg in registers:
        builder.add_node(reg)
    rcg = builder.freeze()

    # step 3: one partition for the whole function; per-bank issue capacity
    # is the larger of the loops' kernel slots and the cluster's slots
    # across all ideal block schedules
    block_cycles = sum(s.length for s in ideal_schedules.values())
    partition = greedy_partition(
        rcg,
        machine.n_clusters,
        config,
        precolored=precolored,
        slots_per_bank=max(slots_per_bank, machine.fus_per_cluster * max(1, block_cycles)),
    )

    # step 4: copies + cluster-constrained rescheduling, loops first
    clustered_kernels: dict[str, KernelSchedule] = {}
    partitioned_loops: dict[str, PartitionedLoop] = {}
    for loop in loops:
        ploop = insert_copies(loop, partition, machine)
        pddg = derive_partitioned_ddg(loop_ddgs[loop.name], ploop, machine.latencies)
        kernel = modulo_schedule(ploop.loop, pddg, machine)
        validate_kernel_schedule(kernel, pddg)
        clustered_kernels[loop.name] = kernel
        partitioned_loops[loop.name] = ploop
    clustered_blocks, n_copies, n_entry = _FunctionRewriter(fn, partition).rewrite()
    clustered_schedules: dict[str, LinearSchedule] = {}
    for name, block in clustered_blocks.items():
        ddg = build_block_ddg(block, machine.latencies)
        sched = list_schedule(ddg, machine)
        validate_linear_schedule(sched, ddg)
        clustered_schedules[name] = sched

    return FunctionCompilation(
        function=fn,
        machine=machine,
        rcg=rcg,
        partition=partition,
        ideal_schedules=ideal_schedules,
        clustered_blocks=clustered_blocks,
        clustered_schedules=clustered_schedules,
        n_copies=n_copies,
        n_entry_copies=n_entry,
        ideal_kernels=ideal_kernels,
        clustered_kernels=clustered_kernels,
        partitioned_loops=partitioned_loops,
    )


class _FunctionRewriter:
    """Copy insertion over a function's blocks (acyclic semantics)."""

    def __init__(self, fn: Function, partition: Partition):
        self.fn = fn
        self.partition = partition
        self.factory = RegisterFactory()
        #: (rid, cluster) -> copy register, shared function-wide
        self.copy_regs: dict[tuple[int, int], SymbolicRegister] = {}

    def rewrite(self) -> tuple[dict[str, BasicBlock], int, int]:
        out: dict[str, BasicBlock] = {}
        n_copies = 0
        n_entry = 0
        for block in self.fn.blocks:
            new_ops, local_copies, entry_copies = self._rewrite_block(block)
            n_copies += local_copies
            n_entry += entry_copies
            out[block.name] = BasicBlock(
                name=block.name, ops=new_ops, depth=block.depth
            )
        return out, n_copies, n_entry

    def _copy_reg_for(self, src: SymbolicRegister, cluster: int) -> tuple[SymbolicRegister, bool]:
        key = (src.rid, cluster)
        existing = self.copy_regs.get(key)
        if existing is not None:
            return existing, False
        name = f"{src.name}.c{cluster}"
        if self.factory.get(name) is not None:
            # a distinct register of the same name already has a copy here
            name = f"{src.name}#{src.rid}.c{cluster}"
        reg = self.factory.new(src.dtype, name=name)
        self.partition.assign(reg, cluster)
        self.copy_regs[key] = reg
        return reg, True

    def _home_cluster(self, op: Operation) -> int:
        if op.dest is not None:
            return self.partition.bank_of(op.dest)
        for s in op.sources:
            if isinstance(s, SymbolicRegister):
                return self.partition.bank_of(s)
        return 0

    def _rewrite_block(self, block: BasicBlock) -> tuple[list[Operation], int, int]:
        clones = [op.clone() for op in block.ops]
        for op in clones:
            op.cluster = self._home_cluster(op)

        local_defs = {
            op.dest.rid: i for i, op in enumerate(clones) if op.dest is not None
        }
        prologue: list[Operation] = []
        after_def: dict[int, list[Operation]] = {}
        n_local = 0
        n_entry = 0

        for op in clones:
            new_sources = list(op.sources)
            for i, src in enumerate(new_sources):
                if not isinstance(src, SymbolicRegister):
                    continue
                if self.partition.bank_of(src) == op.cluster:
                    continue
                copy_reg, fresh = self._copy_reg_for(src, op.cluster)
                new_sources[i] = copy_reg
                if not fresh:
                    continue
                cp = make_copy(copy_reg, src, cluster=op.cluster)
                if src.rid in local_defs:
                    after_def.setdefault(local_defs[src.rid], []).append(cp)
                    n_local += 1
                else:
                    prologue.append(cp)
                    n_entry += 1
            op.sources = tuple(new_sources)

        body: list[Operation] = list(prologue)
        for idx, op in enumerate(clones):
            body.append(op)
            body.extend(after_def.get(idx, ()))
        return body, n_local + n_entry, n_entry
