"""Rendering compiled pipelines with physical registers.

Two views of the same result:

* :func:`emit_assembly` — the *loop-resident* code: prologue (preheader
  copies into their banks), the kernel unrolled ``u`` times for modulo
  variable expansion with every operand renamed to its physical register
  (``b<bank>.r<index>``), and the epilogue note.  A value read across
  ``d`` iterations resolves to replica ``(j - d) mod q`` of its producer
  — correct at the unroll boundary because every ``q`` divides ``u``
  (the MVE wraparound condition).
* :func:`emit_expanded` — a concrete trip count fully unrolled cycle by
  cycle (prelude/kernel/postlude phases labeled), for inspection and for
  tests that want to see every instance.

Memory operands keep their symbolic ``array[stride*i + offset]`` form
with the replica's iteration recorded (a real backend would strength-
reduce these to post-incremented address registers; that bookkeeping is
orthogonal to register assignment, which is what this module renders).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.pipeline import CompilationResult
from repro.ddg.analysis import source_distances
from repro.ir.operations import Operation
from repro.ir.registers import SymbolicRegister
from repro.ir.types import Immediate


@dataclass
class AssemblyListing:
    """A rendered pipeline."""

    loop_name: str
    machine_name: str
    ii: int
    unroll: int
    lines: list[str]

    @property
    def n_kernel_instructions(self) -> int:
        return self.unroll * self.ii

    def text(self) -> str:
        return "\n".join(self.lines)


class _Renamer:
    """Maps (virtual register, kernel replica) to physical names."""

    def __init__(self, result: CompilationResult):
        if result.bank_assignment is None:
            raise ValueError(
                "emit requires register assignment; compile with run_regalloc=True"
            )
        self.assignment = result.bank_assignment
        self.replica_count: dict[int, int] = defaultdict(int)
        for rid, replica in self.assignment.physical:
            self.replica_count[rid] = max(self.replica_count[rid], replica + 1)
        self.src_distance = source_distances(result.partitioned_ddg)

    def name_def(self, reg: SymbolicRegister, j: int) -> str:
        q = self.replica_count[reg.rid]
        return self.assignment.physical_name(reg.rid, j % q)

    def name_use(self, op: Operation, reg: SymbolicRegister, j: int) -> str:
        q = self.replica_count.get(reg.rid, 0)
        if q == 0:
            # register never allocated (should not happen); show symbolically
            return reg.name
        d = self.src_distance[op.op_id].get(reg.rid, 0)
        return self.assignment.physical_name(reg.rid, (j - d) % q)


def _render_op(op: Operation, j: int, renamer: _Renamer) -> str:
    parts: list[str] = []
    if op.dest is not None:
        parts.append(renamer.name_def(op.dest, j))
    for s in op.sources:
        if isinstance(s, Immediate):
            parts.append(str(s))
        else:
            parts.append(renamer.name_use(op, s, j))
    if op.mem is not None:
        parts.append(str(op.mem))
    body = ", ".join(parts)
    text = f"{op.opcode.value} {body}" if body else op.opcode.value
    if op.cluster is not None:
        text += f"  @c{op.cluster}"
    return text


def emit_assembly(result: CompilationResult) -> AssemblyListing:
    """Render the loop-resident pipeline; see module docs."""
    renamer = _Renamer(result)
    kernel = result.kernel
    unroll = result.bank_assignment.unroll
    lines: list[str] = [
        f"; {result.loop.name} on {result.machine.name}: "
        f"II={kernel.ii}, stages={kernel.stage_count}, MVE x{unroll}",
        "prologue:",
    ]
    for src, dst in result.partitioned.preheader_copies:
        opname = "fcopy" if src.is_float else "copy"
        lines.append(
            f"    {opname} {renamer.name_def(dst, 0)}, "
            f"{renamer.name_def(src, 0)}    ; hoisted loop-invariant copy"
        )
    lines.append(f"    ; software-pipeline prelude: fill {kernel.stage_count - 1} stage(s)")

    rows = kernel.kernel_rows()
    for j in range(unroll):
        lines.append(f"kernel_{j}:    ; iterations with i mod {unroll} == {j}")
        for r in range(kernel.ii):
            ops = rows[r]
            if not ops:
                lines.append(f"  {j * kernel.ii + r:4d}: nop")
                continue
            rendered = " ; ".join(_render_op(op, j, renamer) for op in ops)
            lines.append(f"  {j * kernel.ii + r:4d}: {rendered}")
    lines.append("epilogue:")
    lines.append(
        f"    ; software-pipeline postlude: drain {kernel.stage_count - 1} stage(s)"
    )
    return AssemblyListing(
        loop_name=result.loop.name,
        machine_name=result.machine.name,
        ii=kernel.ii,
        unroll=unroll,
        lines=lines,
    )


def emit_expanded(result: CompilationResult, trip_count: int) -> AssemblyListing:
    """Fully expand ``trip_count`` iterations, physical names applied."""
    from repro.sched.modulo.kernel import expand_pipeline

    renamer = _Renamer(result)
    kernel = result.kernel
    expansion = expand_pipeline(kernel, trip_count)
    unroll = result.bank_assignment.unroll

    by_cycle: dict[int, list] = defaultdict(list)
    for slot in expansion.slots:
        by_cycle[slot.cycle].append(slot)

    lines = [
        f"; {result.loop.name} expanded for {trip_count} iterations "
        f"({expansion.total_cycles} cycles)"
    ]
    for cycle in range(expansion.total_cycles):
        slots = by_cycle.get(cycle, [])
        phase = expansion.phase_of(cycle)
        if not slots:
            lines.append(f"  {cycle:4d} [{phase:8s}]: nop")
            continue
        rendered = " ; ".join(
            _render_op(s.op, s.iteration % unroll, renamer) for s in slots
        )
        lines.append(f"  {cycle:4d} [{phase:8s}]: {rendered}")
    return AssemblyListing(
        loop_name=result.loop.name,
        machine_name=result.machine.name,
        ii=kernel.ii,
        unroll=unroll,
        lines=lines,
    )
