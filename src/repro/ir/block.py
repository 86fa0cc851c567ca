"""Basic blocks and single-block innermost loops.

The experimental corpus in the paper consists entirely of "single-block
innermost loops" (Section 6.3), so :class:`Loop` — a basic block plus loop
metadata — is the main unit the pipeline compiles.  :class:`BasicBlock` is
also used on its own by the whole-function path (list scheduling + RCG
partitioning over all blocks), which the paper argues its method supports
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.ir.operations import Operation, advance_op_ids_past
from repro.ir.registers import RegisterFactory, SymbolicRegister, advance_rids_past


@dataclass(slots=True)
class BasicBlock:
    """A straight-line sequence of operations.

    ``depth`` is the loop-nesting depth of the block, one of the inputs to
    the RCG weighting heuristic ("Nesting Depth", Section 5).
    """

    name: str
    ops: list[Operation] = field(default_factory=list)
    depth: int = 0

    def append(self, op: Operation) -> Operation:
        self.ops.append(op)
        return op

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def registers(self) -> set[SymbolicRegister]:
        """All symbolic registers mentioned anywhere in the block."""
        regs: set[SymbolicRegister] = set()
        for op in self.ops:
            regs.update(op.registers())
        return regs

    def index_of(self, op: Operation) -> int:
        """Position of ``op`` in the block (by identity)."""
        for i, candidate in enumerate(self.ops):
            if candidate is op:
                return i
        raise ValueError(f"operation not in block {self.name!r}: {op!r}")


@dataclass(slots=True)
class Loop:
    """A single-block innermost loop, the unit of software pipelining.

    Attributes
    ----------
    name:
        Identifier used in reports and corpus indexing.
    body:
        The loop body block.  Branch/induction bookkeeping is implicit:
        following standard modulo-scheduling practice (and the paper's own
        examples, which show only the dataflow operations) the back-branch
        and induction-variable update are not represented as scheduled
        operations; the machine model reserves no slots for them.
    depth:
        Nesting depth of the *body* (>= 1 for a loop).  Feeds the RCG
        heuristic's "Nesting Depth" term.
    factory:
        Register factory shared by all passes that mint temporaries for
        this loop (copy insertion, spilling).
    live_in:
        Registers defined before the loop and read inside it (array base
        addresses, loop-invariant scalars, initial accumulator values).
        These have no defining operation in the body; the dependence
        builder and the simulator treat them as external inputs.
    live_out:
        Registers whose final values are consumed after the loop
        (accumulators, reductions).  Liveness keeps them alive to the end
        of the last iteration, and the simulator checks their values.
    trip_count_hint:
        Iteration count used by the validating simulator; irrelevant to
        scheduling itself.
    """

    name: str
    body: BasicBlock
    depth: int = 1
    factory: RegisterFactory = field(default_factory=RegisterFactory)
    live_in: set[SymbolicRegister] = field(default_factory=set)
    live_out: set[SymbolicRegister] = field(default_factory=set)
    trip_count_hint: int = 8
    #: content-hash memo owned by :func:`repro.core.cache.loop_fingerprint`.
    #: Sound because every rewriting pass (copy insertion, spilling) builds
    #: a *new* Loop from cloned operations rather than mutating this one.
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    @property
    def ops(self) -> list[Operation]:
        return self.body.ops

    def __len__(self) -> int:
        return len(self.body)

    def registers(self) -> set[SymbolicRegister]:
        """All registers mentioned in the body or live across its boundary."""
        regs = self.body.registers()
        regs.update(self.live_in)
        regs.update(self.live_out)
        return regs

    def defined_registers(self) -> set[SymbolicRegister]:
        """Registers with a defining operation inside the body."""
        return {op.dest for op in self.ops if op.dest is not None}

    def definition_of(self, reg: SymbolicRegister) -> Operation | None:
        """The body operation defining ``reg`` (``None`` for live-ins).

        Loop bodies are single-assignment apart from explicit accumulators,
        which are both defined and used by the same operation; either way a
        register has at most one defining op, which the verifier enforces.
        """
        for op in self.ops:
            if op.dest is not None and op.dest == reg:
                return op
        return None


def reserve_ids(loops: Iterable[Loop]) -> None:
    """Move the process-wide register and operation id counters past
    every id that ``loops`` use.

    Ids are unique within one process only.  A loop built in another
    process (the compile daemon parses request loops after its workers
    have forked) may carry ids this process has already handed out, and
    copies minted for it here would then collide with its own registers.
    A loop listed more than once (one per cell of a chunk) is walked once.
    """
    loops = list({id(lp): lp for lp in loops}.values())
    advance_rids_past(max((r.rid for lp in loops for r in lp.registers()), default=0))
    advance_op_ids_past(max((op.op_id for lp in loops for op in lp.ops), default=0))
