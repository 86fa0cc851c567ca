"""Spill code insertion.

Classic spill-everywhere: a spilled value is stored to a dedicated scalar
spill slot immediately after its definition and reloaded into a fresh
temporary before each use.  The scalar memory-dependence machinery makes
the semantics come out right even for loop-carried (accumulator) values:
a use that textually precedes the definition reloads the slot written by
the *previous* iteration, exactly matching the register it replaced.

Loop-invariant live-ins are not spillable here (they have no defining
operation to anchor the store); the assignment driver never nominates
them.
"""

from __future__ import annotations

from repro.ir.block import BasicBlock, Loop
from repro.ir.operations import Opcode, Operation
from repro.ir.registers import RegisterFactory, SymbolicRegister
from repro.ir.types import DataType, MemRef
from repro.machine.machine import MachineDescription


def spill_registers(
    loop: Loop,
    candidates: list[SymbolicRegister],
    machine: MachineDescription,
    tracer: "object | None" = None,
) -> tuple[Loop, int]:
    """Return a rewritten copy of ``loop`` with ``candidates`` spilled and
    the number of registers actually spilled.

    Candidates without a defining operation in the body are skipped; if
    nothing can be spilled a ``RuntimeError`` is raised (retrying would
    loop forever).  ``tracer`` (opt-in :mod:`repro.obs` hook, None =
    disabled) records one span with the candidate/spilled counts.
    """
    if tracer is not None:
        with tracer.span(
            "spill_registers", cat="substep", candidates=len(candidates)
        ) as sp:
            rewritten, n_spilled = spill_registers(loop, candidates, machine)
            sp.set(spilled=n_spilled)
            return rewritten, n_spilled
    defined = {op.dest.rid for op in loop.ops if op.dest is not None}
    to_spill = [r for r in candidates if r.rid in defined]
    if not to_spill:
        raise RuntimeError(
            f"loop {loop.name!r}: no spillable candidates among "
            f"{[r.name for r in candidates]} (bank too small for invariants?)"
        )

    factory = RegisterFactory()
    # an earlier round's reload of the same value may hold a name this
    # round would mint again; names must stay unique for the loop's text
    # to parse back (a spilled pre-copy loop is stored as text)
    taken = {r.name for r in loop.registers()}
    spill_rids = {r.rid for r in to_spill}
    slot_of = {r.rid: MemRef(f"__spill_{r.name}", scalar=True) for r in to_spill}

    body: list[Operation] = []
    for op in loop.ops:
        clone = op.clone()
        # reload every spilled source into a fresh temporary first
        new_sources = list(clone.sources)
        for i, src in enumerate(new_sources):
            if isinstance(src, SymbolicRegister) and src.rid in spill_rids:
                name = f"{src.name}.rl{len(body)}_{i}"
                while name in taken:
                    name += "_"
                temp = factory.new(src.dtype, name=name)
                load_opc = Opcode.FLOAD if src.dtype is DataType.FLOAT else Opcode.LOAD
                body.append(
                    Operation(opcode=load_opc, dest=temp, mem=slot_of[src.rid])
                )
                new_sources[i] = temp
        clone.sources = tuple(new_sources)
        body.append(clone)
        # store the spilled value right after its definition
        if clone.dest is not None and clone.dest.rid in spill_rids:
            store_opc = (
                Opcode.FSTORE if clone.dest.dtype is DataType.FLOAT else Opcode.STORE
            )
            body.append(
                Operation(
                    opcode=store_opc,
                    sources=(clone.dest,),
                    mem=slot_of[clone.dest.rid],
                )
            )

    new_loop = Loop(
        name=loop.name,
        body=BasicBlock(name=f"{loop.name}.body", ops=body, depth=loop.depth),
        depth=loop.depth,
        factory=factory,
        live_in=set(loop.live_in),
        live_out=set(loop.live_out),
        trip_count_hint=loop.trip_count_hint,
    )
    return new_loop, len(to_spill)
