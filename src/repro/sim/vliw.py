"""Cycle-accurate clustered-VLIW executor for modulo-scheduled kernels.

Iteration ``k`` issues operation ``o`` at absolute cycle ``k * II +
t(o)``.  The executor materializes the dataflow with per-iteration value
instances: a source register carried across ``d`` iterations (per its DDG
flow edge) resolves to the instance produced by iteration ``k - d``, or
the seeded initial value when ``k - d < 0``.  Every value instance —
register or memory — carries a *ready cycle* of ``issue + latency`` and
obeys one visibility rule on both paths: **a value ready at cycle R is
observable by operations issuing at any cycle >= R** (matching the DDG
convention ``t_consumer >= t_producer + latency``).  A register read
before readiness raises :class:`TimingViolation` — including the final
live-out reads, which are performed at the pipeline's last cycle rather
than with the check bypassed — while a memory load before a pending
store's ready cycle observes the previous contents.  A schedule that
merely looked legal but mis-modeled a latency cannot pass this executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ddg.analysis import source_distances
from repro.ddg.graph import DDG
from repro.ir.operations import Operation
from repro.ir.registers import SymbolicRegister
from repro.ir.types import DataType, Immediate
from repro.sim.reference import MachineState, Value
from repro.sim.values import evaluate, seed_memory, seed_register


class TimingViolation(AssertionError):
    """A value was read before the cycle its producer makes it ready."""


@dataclass
class VLIWExecutor:
    """Executes a kernel schedule for a fixed trip count."""

    kernel: "object"  # KernelSchedule (typed loosely to avoid import cycle)
    ddg: DDG
    trip_count: int
    initial_registers: dict[int, Value] | None = None

    # (rid, iteration) -> (value, ready_cycle)
    _instances: dict[tuple[int, int], tuple[Value, int]] = field(default_factory=dict)
    _initial: dict[int, Value] = field(default_factory=dict)

    def run(self) -> MachineState:
        kernel = self.kernel
        loop = kernel.loop
        machine = kernel.machine

        src_distance = source_distances(self.ddg)

        for reg in loop.registers():
            self._initial[reg.rid] = seed_register(reg)
        if self.initial_registers:
            self._initial.update(self.initial_registers)

        state = MachineState()
        pending_mem: list[tuple[int, str, int, Value]] = []  # (ready, array, idx, val)

        # build issue order: (cycle, iteration, op) sorted by cycle
        issues: list[tuple[int, int, Operation]] = []
        for k in range(self.trip_count):
            base = k * kernel.ii
            for op in loop.ops:
                issues.append((base + kernel.time_of(op), k, op))
        issues.sort(key=lambda x: (x[0], x[2].op_id))

        defined_rids = {o.dest.rid for o in loop.ops if o.dest is not None}
        for cycle, k, op in issues:
            self._commit_memory(state, pending_mem, cycle)
            self._execute(
                op, k, cycle, state, pending_mem, src_distance, machine, defined_rids
            )

        # drain remaining memory traffic at the end of the pipeline; the
        # end cycle bounds every ready cycle by construction (flat_length
        # includes the last operation's latency), which the commit asserts
        end = kernel.total_cycles(self.trip_count)
        self._commit_memory(state, pending_mem, end)
        if pending_mem:
            w = min(pending_mem)
            raise TimingViolation(
                f"store to {(w[1], w[2])} ready at {w[0]} but the pipeline "
                f"ends at cycle {end}"
            )

        # expose final live-out register values (last iteration's instance),
        # read at the pipeline's end cycle so readiness is still enforced
        for reg in loop.live_out:
            state.registers[reg.rid] = self._read(reg, self.trip_count - 1, end)
        return state

    @staticmethod
    def _commit_memory(
        state: MachineState, pending_mem: list, cycle: int
    ) -> None:
        """Commit pending stores whose ready cycle has been reached.

        Same visibility boundary as the register path: a store ready at R
        is observable by ops issuing at cycle >= R.  Ready-cycle ties are
        broken by issue order (the list is appended in issue order and the
        sort is stable), never by stored value.
        """
        due = [w for w in pending_mem if w[0] <= cycle]
        if not due:
            return
        due.sort(key=lambda w: w[0])
        for _, array, idx, val in due:
            state.memory[(array, idx)] = val
        pending_mem[:] = [w for w in pending_mem if w[0] > cycle]

    # ------------------------------------------------------------------
    def _read(self, reg: SymbolicRegister, instance_iter: int, cycle: int) -> Value:
        if instance_iter < 0:
            return self._initial[reg.rid]
        entry = self._instances.get((reg.rid, instance_iter))
        if entry is None:
            # register never defined in the body: loop-invariant live-in
            return self._initial[reg.rid]
        value, ready = entry
        if ready > cycle:
            raise TimingViolation(
                f"{reg} (iteration {instance_iter}) read at cycle {cycle} "
                f"but ready only at {ready}"
            )
        return value

    def _execute(
        self,
        op: Operation,
        k: int,
        cycle: int,
        state: MachineState,
        pending_mem: list,
        src_distance: dict[int, dict[int, int]],
        machine,
        defined_rids: set[int],
    ) -> None:
        distances = src_distance[op.op_id]

        def value_of(source) -> Value:
            if isinstance(source, Immediate):
                return int(source.value) if source.dtype is DataType.INT else float(source.value)
            if source.rid not in defined_rids:
                return self._initial[source.rid]  # invariant live-in
            d = distances.get(source.rid, 0)
            return self._read(source, k - d, cycle)

        latency = machine.latency(op)

        if op.reads_mem:
            assert op.mem is not None and op.dest is not None
            index = op.mem.address(k)
            key = (op.mem.array, index)
            if key not in state.memory:
                state.memory[key] = seed_memory(
                    op.mem.array, index, op.dest.dtype is DataType.FLOAT
                )
            self._instances[(op.dest.rid, k)] = (state.memory[key], cycle + latency)
            return
        if op.writes_mem:
            assert op.mem is not None
            index = op.mem.address(k)
            value = value_of(op.sources[0])
            pending_mem.append((cycle + latency, op.mem.array, index, value))
            state.store_count += 1
            return

        result = evaluate(op, [value_of(s) for s in op.sources])
        assert op.dest is not None
        self._instances[(op.dest.rid, k)] = (result, cycle + latency)


def run_pipelined(
    kernel,
    ddg: DDG,
    trip_count: int | None = None,
    initial_registers: dict[int, Value] | None = None,
) -> MachineState:
    """Execute a modulo schedule cycle-accurately; see :class:`VLIWExecutor`."""
    trips = trip_count if trip_count is not None else kernel.loop.trip_count_hint
    return VLIWExecutor(kernel, ddg, trips, initial_registers).run()
