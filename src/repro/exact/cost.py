"""The exact partitioner's objective, shared by every exact backend.

Pure copy-count minimisation is degenerate — putting every register in
bank 0 needs no copies at all — so the exact objective mirrors what the
Figure-4 greedy actually trades off: **schedulability first, copies
second**.  For a bank assignment the scalar integer cost is::

    cost = OVERFLOW_WEIGHT * overflow + body_copies

where ``overflow`` is the total number of operations homed beyond a
bank's issue capacity (``slots_per_bank`` = FU slots per cluster x the
ideal II, the same capacity the greedy's capacity-aware balancing uses)
and ``body_copies`` is the number of copy operations
:func:`~repro.core.copies.insert_copies` would materialise in the kernel
body: one per distinct (source register, consuming cluster) pair whose
source is defined in the body.  Preheader copies of loop-invariant
live-ins cost nothing per iteration (paper Section 4) and are free here
too.  ``OVERFLOW_WEIGHT`` makes the objective lexicographic: no number
of saved copies justifies an unschedulable bank.

Homing follows :func:`~repro.core.copies.insert_copies` exactly (and
:func:`repro.core.copies._home_cluster`, the rule spelled out for the
copy-consistency oracle): an operation executes on its destination's
bank; stores on the bank of the first register source; operations
touching no registers on cluster 0.

:class:`ExactProblem` precomputes the loop structure both the
branch-and-bound solver (:mod:`repro.exact.bnb`) and the tests'
brute-force enumerator (``tests/golden.py``) consume, so the two can
never disagree about what they are optimising.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.greedy import Partition
from repro.ir.block import Loop
from repro.ir.registers import SymbolicRegister

#: one overflowed issue slot outweighs any achievable copy count
OVERFLOW_WEIGHT = 1_000_000


@dataclass(frozen=True)
class ExactProblem:
    """One loop's bank-assignment problem, in solver-ready form.

    ``ops`` holds one ``(pin_rid, src_rids)`` pair per operation: the
    register whose bank homes the op (None = fixed to bank 0) and the
    distinct register sources it reads.  ``regs`` lists every decision
    variable in ascending rid order; ``precolored`` maps a subset of
    them to pinned banks.
    """

    loop_name: str
    n_banks: int
    #: issue capacity per bank (None disables the overflow term)
    slots_per_bank: int | None
    #: (pin_rid | None, distinct source rids) per body operation
    ops: tuple[tuple[int | None, tuple[int, ...]], ...]
    #: rids of registers defined in the body (their copies cost 1 each;
    #: live-in copies are free preheader copies)
    body_defined: frozenset[int]
    #: every register rid the assignment must cover, ascending
    regs: tuple[int, ...]
    #: rid -> SymbolicRegister, for building Partition results
    reg_objs: dict[int, SymbolicRegister]
    #: rid -> pinned bank (Section 4.1 idiosyncratic constraints)
    precolored: dict[int, int]

    @property
    def n_regs(self) -> int:
        return len(self.regs)

    @property
    def fixed_ops(self) -> int:
        """Operations homed to bank 0 regardless of any assignment."""
        return sum(1 for pin, _srcs in self.ops if pin is None)

    @property
    def symmetric(self) -> bool:
        """Whether banks are interchangeable (enables symmetry breaking
        and canonical dominance signatures): no pre-colored pins and no
        operations hard-homed to bank 0."""
        return not self.precolored and self.fixed_ops == 0

    def min_overflow(self) -> int:
        """A global lower bound on the overflow term: the op count in
        excess of the machine's total issue capacity lands somewhere no
        matter how the banks are chosen."""
        if self.slots_per_bank is None:
            return 0
        return max(0, len(self.ops) - self.n_banks * self.slots_per_bank)


def build_problem(
    loop: Loop,
    n_banks: int,
    slots_per_bank: int | None = None,
    precolored: dict[SymbolicRegister, int] | None = None,
) -> ExactProblem:
    """Distill ``loop`` into an :class:`ExactProblem`."""
    reg_objs: dict[int, SymbolicRegister] = {}
    ops: list[tuple[int | None, tuple[int, ...]]] = []
    body_defined: set[int] = set()
    for op in loop.ops:
        for reg in op.registers():
            reg_objs.setdefault(reg.rid, reg)
        if op.dest is not None:
            body_defined.add(op.dest.rid)
            pin: int | None = op.dest.rid
        else:
            used = op.used()
            pin = used[0].rid if used else None
        seen: list[int] = []
        for src in op.used():
            if src.rid not in seen:
                seen.append(src.rid)
        ops.append((pin, tuple(seen)))
    for reg in loop.live_in:
        reg_objs.setdefault(reg.rid, reg)

    pins: dict[int, int] = {}
    for reg, bank in (precolored or {}).items():
        if not (0 <= bank < n_banks):
            raise ValueError(
                f"precolored bank {bank} out of range (n_banks={n_banks})"
            )
        reg_objs.setdefault(reg.rid, reg)
        pins[reg.rid] = bank
    return ExactProblem(
        loop_name=loop.name,
        n_banks=n_banks,
        slots_per_bank=slots_per_bank,
        ops=tuple(ops),
        body_defined=frozenset(body_defined),
        regs=tuple(sorted(reg_objs)),
        reg_objs=reg_objs,
        precolored=pins,
    )


def assignment_cost(problem: ExactProblem, bank_of: dict[int, int]) -> int:
    """The objective for a complete assignment — the one definition both
    the solver's incremental accounting and the brute-force oracle (and
    the tests comparing them) rely on."""
    loads = [0] * problem.n_banks
    demands: set[tuple[int, int]] = set()
    for pin, srcs in problem.ops:
        home = bank_of[pin] if pin is not None else 0
        loads[home] += 1
        for s in srcs:
            if bank_of[s] != home:
                demands.add((s, home))
    copies = sum(1 for s, _h in demands if s in problem.body_defined)
    overflow = 0
    if problem.slots_per_bank is not None:
        overflow = sum(max(0, load - problem.slots_per_bank) for load in loads)
    return OVERFLOW_WEIGHT * overflow + copies


def partition_cost(problem: ExactProblem, partition: Partition) -> int:
    """Evaluate an existing :class:`Partition` (e.g. the greedy's) under
    the exact objective, so heuristic and exact results are comparable."""
    return assignment_cost(
        problem, {rid: partition.assignment[rid] for rid in problem.regs}
    )


def partition_from_assignment(
    problem: ExactProblem, bank_of: dict[int, int]
) -> Partition:
    """Materialise a solver assignment as a :class:`Partition`."""
    partition = Partition(n_banks=problem.n_banks)
    for rid in problem.regs:
        partition.assign(problem.reg_objs[rid], bank_of[rid])
    return partition
